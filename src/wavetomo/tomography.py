"""Forward tomographic transforms of sampled wavefunctions.

The central object is the symplectic tomogram

    w(X, mu, nu) = (1/(2*pi*|nu|)) |Int psi(y) exp(i*mu*y^2/(2*nu) - i*X*y/nu) dy|^2

with the optical (mu, nu) = (cos t, sin t) and Fresnel (mu = 1) families as
special cases, and the scaling identity

    w(l*X, l*mu, l*nu) = w(X, mu, nu) / |l|

connecting them. All quadratures are composite trapezoid sums on the
wavefunction's own grid; the caller is responsible for sampling psi finely
enough for the oscillatory kernel (roughly step < 2*pi / ((|mu|*y_max + |X|)/|nu|)).

Every gridded map (plane, Fresnel, optical) is one call to `_chirp_z_abs2`:
with X and y both on uniform grids the sum over y is a chirp-z transform,
one FFT convolution costing O((n_x + n_y) log) per row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegeneratePointError, DomainLookupError, UnsupportedSizeError
from .grid import (
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
    "optical_tomogram_map",
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


def _chirp_z_abs2(
    rows: np.ndarray, grid_y: UniformGrid1D, grid_x: UniformGrid1D, nu
) -> np.ndarray:
    """|Sum_j rows[r, j] exp(-i X_k y_j / nu_r)|^2 for X_k on grid_x, shape (n_x, n_rows).

    nu is one value for every row or one per row. With k and j counted from
    the grid centres, X_k y_j / nu = (terms in k alone) + xc*y_j/nu + c*k*j,
    c = dX*dy/nu, and Bluestein's k*j = (k^2 + j^2 - (k-j)^2)/2 makes the sum
    one convolution with the chirp exp(i*c*m^2/2), done by FFT; the factors
    of unit modulus in k drop out of |.|^2.
    """
    n_rows, n_y = rows.shape
    n_x = grid_x.count
    kc, jc = n_x // 2, n_y // 2
    nu = np.reshape(np.asarray(nu, dtype=np.float64), (-1, 1))
    c = grid_x.step * grid_y.step / nu
    size = 1 << (n_x + n_y - 2).bit_length()  # >= n_x + n_y - 1, so no lag wraps
    j = np.arange(n_y) - jc
    buf = np.zeros((n_rows, size), np.complex128)
    buf[:, :n_y] = rows * np.exp(-1j * (grid_x.point(kc) * grid_y.points / nu + c * (j * j) / 2))
    lag = np.arange(size)
    m = np.where(lag < n_x, lag, lag - size) - (kc - jc)  # (k - kc) - (j - jc), exact integers
    chirp = np.exp(1j * (c * (m * m) / 2))
    np.fft.fft(chirp, axis=1, out=chirp)
    np.fft.fft(buf, axis=1, out=buf)
    buf *= chirp
    np.fft.ifft(buf, axis=1, out=buf)
    amp = buf[:, :n_x]
    return (amp.real**2 + amp.imag**2).T


def _tomogram_columns(psi: SampledWavefunction, grid_x: UniformGrid1D, mu, nu) -> np.ndarray:
    """w(X, mu_r, nu_r) for X on grid_x, one column per mu_r; nu is one value or one per column.

    Columns at |nu| <= EPS_NU take the limit |psi(X/mu)|^2 / |mu|; the rest
    are one chirp-z call, with one shared chirp when nu is a single value.
    """
    mu = np.asarray(mu, dtype=np.float64)
    nu_r = np.broadcast_to(np.asarray(nu, dtype=np.float64), mu.shape)
    flat = np.abs(nu_r) <= EPS_NU
    if np.min(np.abs(mu[flat]), initial=np.inf) <= EPS_NU:
        raise DegeneratePointError(
            "a column at nu=0 has |mu| below threshold; the limit is undefined there"
        )
    out = np.empty((grid_x.count, mu.size))
    out[:, flat] = psi.abs2_at(grid_x.points[:, None] / mu[flat]) / np.abs(mu[flat])
    live = ~flat
    if live.any():
        nu_live = nu if np.ndim(nu) == 0 else nu_r[live]
        y = psi.grid.points
        weighted = psi.values * trapezoid_weights(y.size, psi.grid.step)
        rows = weighted * np.exp(1j * (mu[live] / (2.0 * nu_r[live]))[:, None] * (y * y))
        amp2 = _chirp_z_abs2(rows, psi.grid, grid_x, nu_live)
        out[:, live] = amp2 / (2.0 * np.pi * np.abs(nu_r[live]))
    return out


def symplectic_tomogram_plane(
    psi: SampledWavefunction,
    grid_x: UniformGrid1D,
    grid_mu: UniformGrid1D,
    nu: float,
) -> TomogramPlane:
    """Tomogram over a full (X, mu) product grid at fixed nu.

    The mu columns share one nu, so the plane is one chirp-z call with one
    chirp FFT; building planes for many nu values stays affordable.
    """
    return TomogramPlane(nu, grid_x, grid_mu, _tomogram_columns(psi, grid_x, grid_mu.points, nu))


def fresnel_tomogram(
    psi: SampledWavefunction, grid_x: UniformGrid1D, grid_nu: UniformGrid1D
) -> FresnelTomogram:
    """Fresnel tomogram |(1/sqrt(2*pi*i*nu)) Int exp(i*(X-y)^2/(2*nu)) psi(y) dy|^2.

    Rows at |nu| <= EPS_NU reduce to |psi(X)|^2.
    """
    ones = np.ones(grid_nu.count)
    return FresnelTomogram(grid_x, grid_nu, _tomogram_columns(psi, grid_x, ones, grid_nu.points))


def optical_tomogram(psi: SampledWavefunction, X: float, theta: float) -> float:
    """Optical tomogram: the symplectic tomogram along (mu, nu) = (cos t, sin t)."""
    return symplectic_tomogram(psi, X, math.cos(theta), math.sin(theta))


def optical_tomogram_map(
    psi: SampledWavefunction, grid_x: UniformGrid1D, grid_theta: UniformGrid1D
) -> OpticalTomogram:
    """Optical tomogram over a product (X, theta) grid.

    Rows at |sin t| <= EPS_NU reduce to |psi(X/cos t)|^2 / |cos t|.
    """
    theta = grid_theta.points
    vals = _tomogram_columns(psi, grid_x, np.cos(theta), np.sin(theta))
    return OpticalTomogram(grid_x, grid_theta, vals)


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


# ---------------------------------------------------------------------------
# N-dimensional fields


@dataclass(frozen=True)
class NdWavefunction:
    """Wavefunction on an N-axis product grid, N in {1, 2, 3}."""

    grids: tuple[UniformGrid1D, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.grids)
        if n not in (1, 2, 3):
            raise UnsupportedSizeError(f"supported dimensions are 1..3, got {n}")
        vals = _frozen_array(self.values, tuple(g.count for g in self.grids), np.complex128)
        # no norm gate here: unnormalized tensors (even all-zero) are legal
        # inputs to the forward transforms
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


def symplectic_tomogram_nd(
    psi: NdWavefunction, Xs: Sequence[float], mus: Sequence[float], nus: Sequence[float]
) -> float:
    """Product-kernel symplectic tomogram of an N-axis wavefunction.

    The amplitude contracts the dense tensor with one chirped kernel per
    axis. An axis with |nu_k| <= EPS_NU is first collapsed by linear
    interpolation of psi at X_k/mu_k: exact where that falls on a node,
    otherwise off by O(step^2) (6.6e-4 relative on the entangled two-mode
    Gaussian with a 301-point grid over +-8, against 1.8e-12 with every nu
    nonzero). For a product state the value is the product of the 1D
    symplectic_tomogram values, which needs no tensor at all.
    """
    grids = list(psi.grids)
    if not (len(Xs) == len(mus) == len(nus) == len(grids)):
        raise ValueError(f"expected {len(grids)} components per argument")
    values = psi.values
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
    max_x_count: int = 8192,
) -> tuple[UniformGrid1D, UniformGrid1D]:
    """(X, mu) grids adapted to one nu so a plane supports accurate slices.

    At fixed nu the plane is a set of X-marginals, one per mu node; the
    column at mu has 1/e half-width sqrt(2*(var_q*(mu - mu_c)^2 + nu^2*det/var_q)),
    narrowest at mu_c = -nu*cov/var_q. The mu nodes are an even count centred
    on mu_c, so they sit at mu_c +- (k + 1/2)*step_mu and none lands on the
    narrowest column (at nu = 0 that column is the degenerate mu = 0 delta).
    The X step resolves the narrowest column on the grid, the one half a mu
    step off mu_c, and the X window covers the widest column that still
    carries weight. A product grid with a single global X step cannot avoid
    over-resolving the wide columns, hence the count cap.
    """
    sq = math.sqrt(moments.var_q)
    sp = math.sqrt(moments.var_p)
    det = max(moments.det, 1e-12)
    mu_c = -nu * moments.cov / moments.var_q
    mu_half = 6.5 / sq + 2.0
    step_mu = min(1.0 / (3.0 * sq), 2.0 / (1.0 + 0.5 * abs(nu)))
    n_mu = 2 * math.ceil(mu_half / step_mu)
    grid_mu = UniformGrid1D(mu_c - step_mu * (n_mu - 1) / 2.0, step_mu, n_mu)

    # 1/e half-width of the narrowest column on the grid, half a mu step off mu_c
    w_min = math.sqrt(2.0 * (moments.var_q * (0.5 * step_mu) ** 2 + nu**2 * det / moments.var_q))
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
