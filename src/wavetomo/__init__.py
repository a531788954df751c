"""Tomographic representations of complex wavefunctions.

Forward maps: symplectic tomogram w(X, mu, nu), its optical ((mu, nu) on the
unit circle) and Fresnel (mu = 1) families, for 1D states and product states
up to three axes. Inverse maps: the wavefunction, the density matrix and the
Wigner function as linear read-outs of one table of the tomographic
characteristic function, built from plane sweeps or source callables. The
chirped-Gaussian model state is built in as the analytic anchor for every
numerical path, and a text file format plus CLI expose the whole pipeline.
"""

from .errors import (
    DegeneratePointError,
    DomainLookupError,
    ManifestError,
    MissingAnchorError,
    NodeAtOriginError,
    SingularFrequencyError,
    UnsupportedSizeError,
    WavetomoError,
)
from .grid import (
    ComplexField1D,
    SampledWavefunction,
    UniformGrid1D,
    trapezoid_integrate,
)
from .tomography import (
    EPS_NU,
    FresnelTomogram,
    Moments,
    NdWavefunction,
    OpticalTomogram,
    TomogramPlane,
    fresnel_tomogram,
    fresnel_tomogram_nd,
    optical_from_fresnel,
    optical_tomogram,
    optical_tomogram_map,
    plane_grids_for_slice,
    symplectic_from_fresnel,
    symplectic_tomogram,
    symplectic_tomogram_nd,
    symplectic_tomogram_plane,
    wavefunction_moments,
)
from .reconstruct import (
    DensityMatrix,
    DensityMatrixNd,
    InversionConfig,
    PsiAutocorrelation,
    PsiReconstruction,
    WignerFunction,
    density_matrix_from_planes,
    fresnel_as_symplectic_source,
    raised_cosine_taper,
    reconstruct_density_matrix,
    reconstruct_density_matrix_fresnel,
    reconstruct_density_matrix_nd,
    reconstruct_psi,
    reconstruct_wigner,
    wigner_from_planes,
)
from .analytic import (
    GcfParams,
    analytic_plane_set,
    density_matrix_direct,
    gaussian2_psi,
    gaussian2_tomogram,
    gcf_autocorrelation,
    gcf_fresnel_analytic,
    gcf_grid,
    gcf_moments,
    gcf_plane_analytic,
    gcf_psi,
    gcf_sampled,
    gcf_source,
    gcf_fresnel_source,
    gcf_tomogram_analytic,
    gcf_tomogram_ft_analytic,
    gcf_width,
    gcf_wigner_analytic,
    wigner_direct,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "WavetomoError", "DegeneratePointError", "DomainLookupError", "ManifestError",
    "MissingAnchorError", "NodeAtOriginError", "SingularFrequencyError",
    "UnsupportedSizeError",
    # grids and fields
    "UniformGrid1D", "ComplexField1D", "SampledWavefunction",
    "trapezoid_integrate",
    # forward maps
    "EPS_NU", "TomogramPlane", "FresnelTomogram",
    "OpticalTomogram", "NdWavefunction", "Moments",
    "symplectic_tomogram", "symplectic_tomogram_plane", "fresnel_tomogram",
    "optical_tomogram", "optical_tomogram_map", "symplectic_from_fresnel",
    "optical_from_fresnel",
    "symplectic_tomogram_nd", "fresnel_tomogram_nd", "wavefunction_moments",
    "plane_grids_for_slice",
    # inverse maps
    "DensityMatrix", "DensityMatrixNd", "WignerFunction", "PsiAutocorrelation",
    "PsiReconstruction", "InversionConfig", "raised_cosine_taper",
    "reconstruct_psi",
    "reconstruct_density_matrix", "reconstruct_density_matrix_fresnel",
    "reconstruct_density_matrix_nd", "reconstruct_wigner",
    "fresnel_as_symplectic_source", "density_matrix_from_planes",
    "wigner_from_planes",
    # analytic model
    "GcfParams", "gcf_psi", "gcf_grid", "gcf_sampled", "gcf_moments",
    "gcf_width", "gcf_tomogram_analytic", "gcf_plane_analytic",
    "gcf_fresnel_analytic", "gcf_autocorrelation", "gcf_tomogram_ft_analytic",
    "gcf_wigner_analytic", "gcf_source", "gcf_fresnel_source",
    "analytic_plane_set", "wigner_direct", "density_matrix_direct",
    "gaussian2_psi", "gaussian2_tomogram",
]
