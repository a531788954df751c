"""Tomographic representations of complex wavefunctions.

Forward maps: symplectic tomogram w(X, mu, nu), its optical ((mu, nu) on the
unit circle) and Fresnel (mu = 1) families, for 1D states and N-axis states
of up to three axes. Inverse maps: the wavefunction, the density matrix and the
Wigner function as linear read-outs of one table of the tomographic
characteristic function, built from plane sweeps, sampled Fresnel maps or
source callables. The
chirped-Gaussian model state is built in as the analytic anchor for every
numerical path, and a text file format plus CLI expose the whole pipeline.
"""

from . import analytic, errors, grid, reconstruct, tomography
from .analytic import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .reconstruct import *  # noqa: F401,F403
from .tomography import *  # noqa: F401,F403

__version__ = "0.1.0"

# each library module lists its public names once; the package exports their union
__all__ = ["__version__"] + [
    n for m in (errors, grid, tomography, reconstruct, analytic) for n in m.__all__]
