"""Closed forms for the chirped Gaussian family, plus brute-force oracles.

The model state is psi(x) = (2/(pi*sigma^2))^(1/4) * exp(-x^2/sigma^2 + i*alpha*x^2):
a Gaussian of width parameter sigma carrying a quadratic phase (chirp) alpha.
Every transform of it is Gaussian, so each numerical path in this package has
an exact target here. The closed forms below were pinned against quadrature
before being frozen; see RESOLUTIONS.md for the evidence table.

The two-mode Gaussian psi(x) ~ exp(-x^T A x / 2), entangled when A is not
diagonal, gives the N = 2 paths a target that no product of one-mode states
meets (gaussian2_psi, gaussian2_tomogram).

The first excited Hermite-Gauss (Fock n = 1) state in the same units (the
ground state is sigma = sqrt(2)) is odd, has a node at 0 and a negative
Wigner function, W(0, 0) = -1/pi (fock1_psi, fock1_tomogram, fock1_wigner;
Mancini, Man'ko and Tombesi, Phys. Lett. A 213, 1 (1996)).

gcf_tomogram_analytic vectorizes, so it serves the source inversions as a
callable (bound to its parameters with functools.partial); wigner_direct is
the exact Wigner function of any sampled state, read off its samples by the
one rule the forward maps use, tomography._spectrum.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DegeneratePointError, SingularFrequencyError
from .grid import SampledWavefunction, UniformGrid1D, _Owned, _Record
from .tomography import (
    FresnelTomogram,
    Moments,
    TomogramPlane,
    _spectrum,
    plane_grids_for_slice,
)

__all__ = [
    "GcfParams",
    "gcf_psi",
    "gcf_sampled",
    "gcf_moments",
    "gcf_width",
    "gcf_tomogram_analytic",
    "gcf_plane_analytic",
    "gcf_fresnel_analytic",
    "gcf_tomogram_ft_analytic",
    "gcf_wigner_analytic",
    "gaussian2_psi",
    "gaussian2_tomogram",
    "fock1_psi",
    "fock1_tomogram",
    "fock1_wigner",
    "analytic_plane_set",
    "wigner_direct",
]


class GcfParams(_Record):
    """Width and chirp of the Gaussian model state."""

    sigma: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")


def gcf_psi(p: GcfParams, x):
    """psi(x); accepts scalars or arrays."""
    x = np.asarray(x, dtype=np.float64)
    amp = (2.0 / (np.pi * p.sigma**2)) ** 0.25
    out = amp * np.exp(-(x**2) / p.sigma**2 + 1j * p.alpha * x**2)
    return out if out.ndim else complex(out)


def gcf_sampled(
    p: GcfParams, grid: UniformGrid1D | None = None, count: int = 1025
) -> SampledWavefunction:
    """psi on `grid`; by default `count` points over 8 times the 1/e half-width of |psi|^2."""
    if grid is None:
        grid = UniformGrid1D.symmetric(8.0 * p.sigma / math.sqrt(2.0), count)
    return SampledWavefunction(grid, gcf_psi(p, grid.points))


def gcf_moments(p: GcfParams) -> Moments:
    """Exact phase-space moments; det of the covariance is 1/4 (pure state)."""
    s2 = p.sigma**2
    return Moments(
        mean_q=0.0,
        mean_p=0.0,
        var_q=s2 / 4.0,
        var_p=1.0 / s2 + p.alpha**2 * s2,
        cov=p.alpha * s2 / 2.0,
    )


def _omega_sq(p: GcfParams, mu, nu):
    nu = np.asarray(nu, dtype=np.float64)
    mu_shift = np.asarray(mu, dtype=np.float64) + 2.0 * p.alpha * nu
    return (4.0 * nu**2 + p.sigma**4 * mu_shift**2) / (2.0 * p.sigma**2)


def gcf_width(p: GcfParams, mu: float, nu: float) -> float:
    """1/e half-width of the tomogram's X profile at (mu, nu).

    omega = sqrt((4 nu^2 + sigma^4 (mu + 2 alpha nu)^2) / (2 sigma^2)); the
    profile is w(X) = w(0) exp(-X^2/omega^2). Zero only at the degenerate
    point, where no profile exists.
    """
    return float(np.sqrt(_omega_sq(p, mu, nu)))


def gcf_tomogram_analytic(p: GcfParams, X, mu, nu):
    """Closed-form symplectic tomogram w(X, mu, nu) of the model state.

    exp(-X^2/omega^2) / (sqrt(pi) * omega), a normalized Gaussian in X for
    any line direction. Scalars or broadcastable arrays.
    """
    w2 = _omega_sq(p, mu, nu)
    if (w2 <= 0.0).any():
        raise DegeneratePointError(
            "tomogram undefined where both nu and the chirp-shifted mu vanish"
        )
    X = np.asarray(X, dtype=np.float64)
    out = np.asarray(np.divide(-(X**2), w2))  # the one array of the result's size
    np.exp(out, out=out)
    out /= np.sqrt(np.pi * w2)
    return out if out.ndim else float(out)


def gcf_plane_analytic(
    p: GcfParams, grid_x: UniformGrid1D, grid_mu: UniformGrid1D, nu: float
) -> TomogramPlane:
    vals = gcf_tomogram_analytic(
        p, grid_x.points[:, None], grid_mu.points[None, :], float(nu)
    )
    return TomogramPlane(float(nu), grid_x, grid_mu, _Owned(vals))


def gcf_fresnel_analytic(
    p: GcfParams, grid_x: UniformGrid1D, grid_nu: UniformGrid1D
) -> FresnelTomogram:
    vals = gcf_tomogram_analytic(
        p, grid_x.points[:, None], 1.0, grid_nu.points[None, :]
    )
    return FresnelTomogram(grid_x, grid_nu, _Owned(vals))


def gcf_tomogram_ft_analytic(p: GcfParams, omega_x, omega_mu, nu):
    """2D Fourier transform of the fixed-nu tomogram plane, in closed form.

    sqrt(2/(pi sigma^2 omega_x^2)) * exp(-(nu^2/2)(omega_x/sigma)^2
    - (2/sigma^2)(omega_mu/omega_x)^2 - 2i alpha omega_mu nu). Singular on
    the omega_x = 0 line, where the mu integral of the plane does not decay.
    """
    omega_x = np.asarray(omega_x, dtype=np.float64)
    if np.any(omega_x == 0.0):
        raise SingularFrequencyError(
            "plane transform diverges at omega_x = 0; the mu profile is not integrable there"
        )
    omega_mu = np.asarray(omega_mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    s2 = p.sigma**2
    out = np.sqrt(2.0 / (np.pi * s2 * omega_x**2)) * np.exp(
        -0.5 * nu**2 * omega_x**2 / s2
        - 2.0 * omega_mu**2 / (s2 * omega_x**2)
        - 2j * p.alpha * omega_mu * nu
    )
    return out if out.ndim else complex(out)


def gcf_wigner_analytic(p: GcfParams, q, pm):
    """Wigner function of the model state: (1/pi) exp(-xi^T Sigma^{-1} xi / 2).

    Sigma is the moment covariance (det 1/4), so the peak is always 1/pi.
    """
    m = gcf_moments(p)
    inv_qq = m.var_p / m.det
    inv_pp = m.var_q / m.det
    inv_qp = -m.cov / m.det
    q = np.asarray(q, dtype=np.float64)
    pm = np.asarray(pm, dtype=np.float64)
    quad = inv_qq * q**2 + 2.0 * inv_qp * q * pm + inv_pp * pm**2
    out = np.exp(-0.5 * quad) / np.pi
    return out if out.ndim else float(out)


def gaussian2_psi(A, x1, x2):
    """Two-mode Gaussian (det A / pi^2)^(1/4) exp(-x^T A x / 2) at (x1, x2).

    A is a real symmetric positive-definite 2x2 matrix; the state is a
    product of one-mode states only when A is diagonal. Broadcasts.
    """
    A = np.asarray(A, dtype=np.float64)
    x1, x2 = np.asarray(x1, dtype=np.float64), np.asarray(x2, dtype=np.float64)
    quad = A[0, 0] * x1**2 + 2.0 * A[0, 1] * x1 * x2 + A[1, 1] * x2**2
    return (np.linalg.det(A) / np.pi**2) ** 0.25 * np.exp(-0.5 * quad)


def gaussian2_tomogram(A, X1, X2, mu1, mu2, nu1, nu2):
    """Symplectic tomogram of gaussian2_psi: a bivariate normal in (X1, X2).

    Its covariance is M V M^T with M = [[mu1, nu1, 0, 0], [0, 0, mu2, nu2]]
    and V the covariance of (q1, p1, q2, p2): position block A^-1 / 2,
    momentum block A / 2, no position-momentum correlation (psi is real).
    Undefined where one mode has mu = nu = 0. Broadcasts.
    """
    A = np.asarray(A, dtype=np.float64)
    Ai = np.linalg.inv(A)
    X1, X2, mu1, mu2, nu1, nu2 = (np.asarray(v, dtype=np.float64)
                                  for v in (X1, X2, mu1, mu2, nu1, nu2))
    s11 = 0.5 * (mu1**2 * Ai[0, 0] + nu1**2 * A[0, 0])
    s22 = 0.5 * (mu2**2 * Ai[1, 1] + nu2**2 * A[1, 1])
    s12 = 0.5 * (mu1 * mu2 * Ai[0, 1] + nu1 * nu2 * A[0, 1])
    det = s11 * s22 - s12**2
    if np.any(det <= 0.0):
        raise DegeneratePointError("tomogram undefined where a mode has mu = nu = 0")
    quad = (s22 * X1**2 - 2.0 * s12 * X1 * X2 + s11 * X2**2) / det
    return np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(det))


def fock1_psi(x):
    """psi_1(x) = sqrt(2) pi^(-1/4) x e^{-x^2/2}. Broadcasts."""
    x = np.asarray(x, dtype=np.float64)
    return math.sqrt(2.0) * np.pi**-0.25 * x * np.exp(-0.5 * x**2)


def fock1_tomogram(X, mu, nu):
    """Symplectic tomogram of fock1_psi: 2 X^2 e^{-X^2/s^2} / (sqrt(pi) s^3),
    s^2 = mu^2 + nu^2. Undefined at mu = nu = 0. Broadcasts."""
    s2 = np.asarray(mu, dtype=np.float64) ** 2 + np.asarray(nu, dtype=np.float64) ** 2
    if np.any(s2 <= 0.0):
        raise DegeneratePointError("tomogram undefined where mu and nu both vanish")
    X = np.asarray(X, dtype=np.float64)
    return 2.0 * X**2 * np.exp(-(X**2) / s2) / (math.sqrt(math.pi) * s2**1.5)


def fock1_wigner(q, pm):
    """Wigner function of fock1_psi: (2 (q^2 + p^2) - 1) e^{-(q^2 + p^2)} / pi. Broadcasts."""
    r2 = np.asarray(q, dtype=np.float64) ** 2 + np.asarray(pm, dtype=np.float64) ** 2
    return (2.0 * r2 - 1.0) * np.exp(-r2) / np.pi


def analytic_plane_set(p: GcfParams, nu_values: Sequence[float]) -> list[TomogramPlane]:
    """Closed-form tomogram planes on the same adapted grids the numeric
    builder would choose; exact forward data for exercising the inverse maps."""
    m = gcf_moments(p)
    planes = []
    for nu in nu_values:
        gx, gmu = plane_grids_for_slice(float(nu), m)
        planes.append(gcf_plane_analytic(p, gx, gmu, float(nu)))
    return planes


def wigner_direct(psi: SampledWavefunction, q: float, p: float) -> float:
    """W(q, p) = (1/pi) Int psi(q + s) conj(psi(q - s)) e^{-2ips} ds, exactly, of psi's
    band-limited interpolant (tomography._spectrum; zero off psi's grid).

    The spectrum, zero-padded to 2n and shifted by q, is inverse-FFT'd onto q + j*h/2;
    the sum over s = j*h/2 is then exact for |p| < pi/h.
    """
    g, n = psi.grid, psi.grid.count
    k, c = _spectrum(psi.values, g)
    c *= np.exp(1j * q * k)
    pos = (n + 1) // 2  # bins of nonnegative momentum; the rest go to the end
    half = 2.0 * np.fft.ifft(np.concatenate((c[:pos], np.zeros(n), c[pos:])))
    j = np.arange(-2 * (n - 1), 2 * n - 1)
    x = q + 0.5 * g.step * j
    f = np.where((g.start <= x) & (x <= g.end), half[j % (2 * n)], 0.0)
    val = (f * np.conj(f[::-1])) @ np.exp(-1j * p * g.step * j) * (g.step / (2.0 * np.pi))
    return float(val.real)
