"""Forward tomographic transforms of sampled wavefunctions.

The central object is the symplectic tomogram

    w(X, mu, nu) = (1/(2*pi*|nu|)) |Int psi(y) exp(i*mu*y^2/(2*nu) - i*X*y/nu) dy|^2

with the optical (mu, nu) = (cos t, sin t) and Fresnel (mu = 1) families as
special cases, and the scaling identity

    w(l*X, l*mu, l*nu) = w(X, mu, nu) / |l|

connecting them. All quadratures are composite trapezoid sums on the
wavefunction's own grid; the caller is responsible for sampling psi finely
enough for the oscillatory kernel (roughly step < 2*pi / ((|mu|*y_max + |X|)/|nu|)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegeneratePointError, DomainLookupError, UnsupportedSizeError
from .grid import (
    ComplexField1D,
    SampledWavefunction,
    UniformGrid1D,
    _frozen_array,
    trapezoid_integrate,
    trapezoid_weights,
)

__all__ = [
    "EPS_NU",
    "TomogramPlane",
    "FresnelTomogram",
    "OpticalTomogram",
    "NdWavefunction",
    "Moments",
    "symplectic_tomogram",
    "symplectic_tomogram_plane",
    "fresnel_tomogram",
    "optical_tomogram",
    "symplectic_from_fresnel",
    "optical_from_fresnel",
    "symplectic_tomogram_nd",
    "fresnel_tomogram_nd",
    "wavefunction_moments",
    "plane_grids_for_slice",
]

# Below this, |nu| (or |cos t|, |mu|) counts as zero and the analytic limit applies.
EPS_NU = 1e-8

NEGATIVITY_TOL = -1e-10


def _tomogram_values(values, grid_a: UniformGrid1D, grid_b: UniformGrid1D) -> np.ndarray:
    """Frozen samples on the (grid_a, grid_b) product grid; a tomogram is nonnegative."""
    vals = _frozen_array(values, (grid_a.count, grid_b.count), np.float64)
    if vals.min(initial=0.0) < NEGATIVITY_TOL:
        raise ValueError(f"tomogram values must be nonnegative, min {vals.min()}")
    return vals


@dataclass(frozen=True)
class TomogramPlane:
    """Tomogram samples on a product (X, mu) grid at one fixed nu."""

    nu: float
    grid_x: UniformGrid1D
    grid_mu: UniformGrid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        if not np.isfinite(self.nu):
            raise ValueError("nu must be finite")
        object.__setattr__(self, "values", _tomogram_values(self.values, self.grid_x, self.grid_mu))


@dataclass(frozen=True)
class FresnelTomogram:
    """Fresnel tomogram samples over a product (X, nu) grid.

    values[i, j] belongs to (grid_x.point(i), grid_nu.point(j)).
    """

    grid_x: UniformGrid1D
    grid_nu: UniformGrid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _tomogram_values(self.values, self.grid_x, self.grid_nu))

    def norms_over_x(self) -> np.ndarray:
        """Integral over X for every nu; 1 to within 1e-4 when the grid covers the field."""
        return np.trapezoid(self.values, dx=self.grid_x.step, axis=0)


@dataclass(frozen=True)
class OpticalTomogram:
    """Homodyne-style tomogram samples over a product (X, theta) grid."""

    grid_x: UniformGrid1D
    grid_theta: UniformGrid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", _tomogram_values(self.values, self.grid_x, self.grid_theta)
        )


def symplectic_tomogram(psi: SampledWavefunction, X: float, mu: float, nu: float) -> float:
    """Symplectic tomogram of psi at a single (X, mu, nu).

    For |nu| <= EPS_NU the analytic limit |psi(X/mu)|^2 / |mu| is used
    (linear interpolation); if |mu| is also below threshold the point is
    degenerate and an error is raised.
    """
    if abs(nu) <= EPS_NU:
        if abs(mu) <= EPS_NU:
            raise DegeneratePointError(f"(mu, nu) = ({mu}, {nu}) is degenerate")
        return float(psi.abs2_at(X / mu)) / abs(mu)
    y = psi.grid.points
    phase = np.exp(1j * (mu * y * y / (2.0 * nu) - X * y / nu))
    integral = trapezoid_integrate(psi.values * phase, psi.grid.step)
    return float(abs(integral) ** 2 / (2.0 * np.pi * abs(nu)))


def symplectic_tomogram_plane(
    psi: SampledWavefunction,
    grid_x: UniformGrid1D,
    grid_mu: UniformGrid1D,
    nu: float,
) -> TomogramPlane:
    """Tomogram over a full (X, mu) product grid at fixed nu.

    One chirp matrix and one matrix product per plane, so building planes for
    many nu values stays affordable.
    """
    x = grid_x.points
    mu = grid_mu.points
    if abs(nu) <= EPS_NU:
        if np.min(np.abs(mu)) <= EPS_NU:
            raise DegeneratePointError(
                "plane at nu=0 includes |mu| below threshold; the limit is undefined there"
            )
        vals = psi.abs2_at(x[:, None] / mu[None, :]) / np.abs(mu)[None, :]
        return TomogramPlane(nu, grid_x, grid_mu, vals)
    y = psi.grid.points
    weighted = psi.values * trapezoid_weights(y.size, psi.grid.step)
    chirp = np.exp((1j / (2.0 * nu)) * np.outer(y * y, mu))  # (n_y, n_mu)
    kernel = np.exp((-1j / nu) * np.outer(x, y))  # (n_x, n_y)
    amps = kernel @ (weighted[:, None] * chirp)
    vals = (amps.real**2 + amps.imag**2) / (2.0 * np.pi * abs(nu))
    return TomogramPlane(nu, grid_x, grid_mu, vals)


def fresnel_tomogram(
    psi: SampledWavefunction, grid_x: UniformGrid1D, grid_nu: UniformGrid1D
) -> FresnelTomogram:
    """Fresnel tomogram |(1/sqrt(2*pi*i*nu)) Int exp(i*(X-y)^2/(2*nu)) psi(y) dy|^2.

    Rows at |nu| <= EPS_NU reduce to |psi(X)|^2.
    """
    x = grid_x.points
    y = psi.grid.points
    weighted = psi.values * trapezoid_weights(y.size, psi.grid.step)
    out = np.empty((grid_x.count, grid_nu.count))
    for j in range(grid_nu.count):
        nu = grid_nu.point(j)
        if abs(nu) <= EPS_NU:
            out[:, j] = psi.abs2_at(x)
            continue
        diff = x[:, None] - y[None, :]
        amp = np.exp((1j / (2.0 * nu)) * diff * diff) @ weighted
        out[:, j] = (amp.real**2 + amp.imag**2) / (2.0 * np.pi * abs(nu))
    return FresnelTomogram(grid_x, grid_nu, out)


def optical_tomogram(psi: SampledWavefunction, X: float, theta: float) -> float:
    """Optical tomogram: the symplectic tomogram along (mu, nu) = (cos t, sin t)."""
    return symplectic_tomogram(psi, X, math.cos(theta), math.sin(theta))


def _bilinear(gx: UniformGrid1D, gy: UniformGrid1D, values: np.ndarray, x, y) -> np.ndarray:
    """Bilinear interpolation of values at the points (x, y), broadcast together.

    Raises DomainLookupError carrying the first point outside the grid.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    # fractional indices; tolerate a hair of roundoff at the far edges
    fx = (x - gx.start) / gx.step
    fy = (y - gy.start) / gy.step
    edge = 1e-9
    inside = (fx >= -edge) & (fx <= gx.count - 1 + edge)
    inside &= (fy >= -edge) & (fy <= gy.count - 1 + edge)
    if not inside.all():
        k = int(np.argmin(inside.ravel()))
        point = (float(x.ravel()[k]), float(y.ravel()[k]))
        raise DomainLookupError("lookup outside the sampled tomogram domain", point)
    i = np.clip(np.floor(fx), 0, gx.count - 2).astype(np.intp)
    j = np.clip(np.floor(fy), 0, gy.count - 2).astype(np.intp)
    tx = np.clip(fx - i, 0.0, 1.0)
    ty = np.clip(fy - j, 0.0, 1.0)
    v00, v01 = values[i, j], values[i, j + 1]
    v10, v11 = values[i + 1, j], values[i + 1, j + 1]
    return v00 * (1 - tx) * (1 - ty) + v10 * tx * (1 - ty) + v01 * (1 - tx) * ty + v11 * tx * ty


def symplectic_from_fresnel(wf: FresnelTomogram, X: float, mu: float, nu: float) -> float:
    """Rebuild a symplectic tomogram value from Fresnel data.

    Uses w(X, mu, nu) = (1/|mu|) w_F(X/mu, nu/mu) with bilinear interpolation
    on the sampled (X, nu) domain; lookups that leave the domain raise
    DomainLookupError carrying the rescaled point.
    """
    if abs(mu) <= EPS_NU:
        raise DegeneratePointError(f"mu = {mu} is below threshold; rescaling is singular")
    return float(_bilinear(wf.grid_x, wf.grid_nu, wf.values, X / mu, nu / mu)) / abs(mu)


def optical_from_fresnel(wf: FresnelTomogram, X: float, theta: float) -> float:
    """Optical tomogram from Fresnel data via the (cos t, sin t) rescaling.

    Degenerate when |cos t| is below threshold: the rescaled arguments
    (X / cos t, tan t) leave every bounded domain.
    """
    c = math.cos(theta)
    if abs(c) <= EPS_NU:
        raise DegeneratePointError(f"cos(theta) = {c} is below threshold")
    return symplectic_from_fresnel(wf, X, c, math.sin(theta))


# ---------------------------------------------------------------------------
# N-dimensional fields


@dataclass(frozen=True)
class NdWavefunction:
    """Wavefunction on an N-axis product grid, N in {1, 2, 3}.

    separable_factors, when given, are per-axis 1D samples whose outer
    product must reproduce `values` (checked to 1e-10); the N=3 transforms
    are supported only through them.
    """

    grids: tuple[UniformGrid1D, ...]
    values: np.ndarray
    separable_factors: tuple[ComplexField1D, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.grids)
        if n not in (1, 2, 3):
            raise UnsupportedSizeError(f"supported dimensions are 1..3, got {n}")
        vals = _frozen_array(self.values, tuple(g.count for g in self.grids), np.complex128)
        # no norm gate here: unnormalized tensors (even all-zero) are legal
        # inputs to the forward transforms
        if self.separable_factors is not None:
            if len(self.separable_factors) != n:
                raise ValueError("need one separable factor per axis")
            outer = self.separable_factors[0].values
            for f in self.separable_factors[1:]:
                outer = np.multiply.outer(outer, f.values)
            if np.max(np.abs(outer - vals)) > 1e-10:
                raise ValueError("separable_factors outer product does not match values")
        object.__setattr__(self, "values", vals)

    @property
    def ndim(self) -> int:
        return len(self.grids)


def _interp_slice(grids, values, axis: int, position: float):
    """Linear interpolation of the complex tensor along one axis; zero outside."""
    g = grids[axis]
    f = (position - g.start) / g.step
    if f < 0.0 or f > g.count - 1:
        return np.zeros(tuple(gr.count for k, gr in enumerate(grids) if k != axis), np.complex128)
    i = min(int(np.floor(f)), g.count - 2)
    t = f - i
    lo = np.take(values, i, axis=axis)
    hi = np.take(values, i + 1, axis=axis)
    return lo * (1.0 - t) + hi * t


def _nd_point(grids, values, Xs, mus, nus) -> float:
    grids = list(grids)
    factor = 1.0
    axis = 0
    Xs, mus, nus = list(Xs), list(mus), list(nus)
    while axis < len(grids):
        if abs(nus[axis]) <= EPS_NU:
            if abs(mus[axis]) <= EPS_NU:
                raise DegeneratePointError(
                    f"axis {axis}: (mu, nu) = ({mus[axis]}, {nus[axis]}) is degenerate"
                )
            values = _interp_slice(grids, values, axis, Xs[axis] / mus[axis])
            factor /= abs(mus[axis])
            del grids[axis], Xs[axis], mus[axis], nus[axis]
        else:
            axis += 1
    if not grids:  # every axis collapsed; the remaining "integral" is the point value
        return factor * float(np.abs(values) ** 2)
    amp = values
    for g, X, mu, nu in zip(grids, Xs, mus, nus):
        y = g.points
        k = np.exp(1j * (mu * y * y / (2.0 * nu) - X * y / nu)) * trapezoid_weights(y.size, g.step)
        amp = np.tensordot(k, amp, axes=(0, 0))
        factor /= 2.0 * np.pi * abs(nu)
    return factor * float(np.abs(amp) ** 2)


def symplectic_tomogram_nd(
    psi: NdWavefunction, Xs: Sequence[float], mus: Sequence[float], nus: Sequence[float]
) -> float:
    """Product-kernel symplectic tomogram of an N-axis wavefunction.

    N in {1, 2} integrates the full tensor; N = 3 requires separable_factors
    and multiplies per-axis 1D tomograms.
    """
    n = psi.ndim
    if not (len(Xs) == len(mus) == len(nus) == n):
        raise ValueError(f"expected {n} components per argument")
    if n <= 2:
        return _nd_point(psi.grids, psi.values, Xs, mus, nus)
    if psi.separable_factors is None:
        raise UnsupportedSizeError("N=3 tomograms require separable_factors")
    out = 1.0
    for g, f, X, mu, nu in zip(psi.grids, psi.separable_factors, Xs, mus, nus):
        part = SampledWavefunction.normalized(g, f.values)
        scale2 = float(trapezoid_integrate(np.abs(f.values) ** 2, g.step).real)
        out *= scale2 * symplectic_tomogram(part, X, mu, nu)
    return out


def fresnel_tomogram_nd(
    psi: NdWavefunction, Xs: Sequence[float], nus: Sequence[float]
) -> float:
    """N-axis Fresnel tomogram; equals the symplectic transform at mu = (1, ..., 1)."""
    return symplectic_tomogram_nd(psi, Xs, [1.0] * psi.ndim, nus)


# ---------------------------------------------------------------------------
# Moments and plane-grid policy for reconstruction pipelines


@dataclass(frozen=True)
class Moments:
    mean_q: float
    mean_p: float
    var_q: float
    var_p: float
    cov: float

    @property
    def det(self) -> float:
        return self.var_q * self.var_p - self.cov**2


def wavefunction_moments(psi: SampledWavefunction) -> Moments:
    """First and second position/momentum moments via quadrature.

    Momentum moments come from the finite-difference derivative, good to
    O(step^2); that is plenty for sizing windows, which is what this feeds.
    """
    x = psi.grid.points
    step = psi.grid.step
    prob = np.abs(psi.values) ** 2
    mq = float(trapezoid_integrate(prob * x, step).real)
    var_q = float(trapezoid_integrate(prob * (x - mq) ** 2, step).real)
    dpsi = np.gradient(psi.values, step)
    mp = float(trapezoid_integrate(np.conj(psi.values) * dpsi, step).imag)
    var_p = float(trapezoid_integrate(np.abs(dpsi) ** 2, step).real) - mp**2
    cov = float(trapezoid_integrate(np.conj(psi.values) * x * dpsi, step).imag) - mq * mp
    return Moments(mq, mp, var_q, var_p, cov)


def plane_grids_for_slice(
    nu: float,
    moments: Moments,
    nu_floor: float,
    max_x_count: int = 8192,
) -> tuple[UniformGrid1D, UniformGrid1D]:
    """(X, mu) grids adapted to one nu so a plane supports accurate slices.

    The mu window tracks the characteristic-function support (center shifted
    by -nu*cov/var_q for chirped states); the X step resolves the narrowest
    column on the plane, whose 1/e half-width shrinks like
    |nu|*sqrt(2*det/var_q), and the X window covers the widest column that
    still carries weight. A product grid with a single global X step cannot
    avoid over-resolving the wide columns, hence the count cap.
    """
    sq = math.sqrt(moments.var_q)
    sp = math.sqrt(moments.var_p)
    det = max(moments.det, 1e-12)
    mu_c = -nu * moments.cov / moments.var_q
    mu_half = 6.5 / sq + 2.0
    step_mu = min(1.0 / (3.0 * sq), 2.0 / (1.0 + 0.5 * abs(nu)))
    n_mu = 2 * math.ceil(mu_half / step_mu) + 1
    start_mu = mu_c - step_mu * (n_mu // 2)
    # dodge an exact mu=0 node on the delta-limit plane, where it is degenerate
    if abs(nu) <= EPS_NU:
        k0 = round(-start_mu / step_mu)
        if 0 <= k0 < n_mu and abs(start_mu + k0 * step_mu) <= 1e-6 * step_mu:
            start_mu += 0.5 * step_mu
    grid_mu = UniformGrid1D(start_mu, step_mu, n_mu)

    nu_eff = max(abs(nu), nu_floor)
    w_min = nu_eff * math.sqrt(2.0 * det / moments.var_q)
    # columns with weight >= ~1e-4 sit within 4.3/sq of the center
    w_eff = math.sqrt(2.0) * ((abs(mu_c) + 4.3 / sq) * sq + abs(nu) * sp)
    # the window-edge column is weightless but a window that cuts its flanks
    # leaves slowly-decaying boundary junk in e^{iX}-weighted sums, so the
    # X half-width must cover the widest in-window column too
    w_edge = math.sqrt(2.0) * ((abs(mu_c) + mu_half) * sq + abs(nu) * sp)
    x_half = max(2.6 * w_eff + 3.0, 2.5 * w_edge)
    step_x = min(w_min / 3.0, 0.7)
    n_x = 2 * math.ceil(x_half / step_x) + 1
    if n_x > max_x_count:
        n_x = max_x_count | 1
        step_x = 2.0 * x_half / (n_x - 1)
    grid_x = UniformGrid1D(-step_x * (n_x // 2), step_x, n_x)
    return grid_x, grid_mu
