"""Forward tomographic transforms of sampled wavefunctions.

The central object is the symplectic tomogram

    w(X, mu, nu) = (1/(2*pi*|nu|)) |Int psi(y) exp(i*mu*y^2/(2*nu) - i*X*y/nu) dy|^2

with the optical (mu, nu) = (cos t, sin t) and Fresnel (mu = 1) families as
special cases, and the scaling identity

    w(l*X, l*mu, l*nu) = w(X, mu, nu) / |l|

connecting them. At nu != 0 every quadrature is a trapezoid sum on the
wavefunction's own grid; the caller is responsible for sampling psi finely
enough for the oscillatory kernel (roughly step < 2*pi / ((|mu|*y_max + |X|)/|nu|)).

Every value takes one ray rule, `_rays` (a flat column, |nu| <= EPS_NU, reads psi's
band-limited interpolant, `_spectrum`, as the ray (0, -mu) over its spectrum), and one
kernel row, `_kernel`. A map sums over an X grid by chirp-z, a point at one X by a dot
product per axis (`symplectic_tomogram_nd`), so a product state's tomogram is its
factors'. `analytic.wigner_direct` reads the same interpolant.

Every gridded map (plane, Fresnel, optical) is one call to `_chirp_z_columns`:
with X and y both on uniform grids the sum over y is a chirp-z transform,
one FFT convolution of 5-smooth length costing O((n_x + n_y) log) per row,
run in blocks of rows whose FFT rows, chirps and phase scratch together stay
within _KERNEL_BYTES (256 KiB), and written straight into the map: at
cli-forward's sizes the 481 x 161 Fresnel map (0.62 MB) peaks at 1.3 MB under
tracemalloc, the map and its dataset's frozen copy, and the 241 x 129 optical
map at 0.9 MB. A Fresnel or optical row is one complex exp per y sample; a
plane's rows share nu on a uniform mu grid, so they form a geometric
progression, the plane's first row times the powers of the step row
exp(i*dmu*y^2/(2*nu)), one running product carried from block to block: two
rows of exps per plane.

The kernel's budget is its own. reconstruct._BLOCK_BYTES (1 MiB) bounds a
source call, a Fresnel-map lookup or a probe: a source call has a fixed cost of
about 60 us, and a two-axis inversion makes over a thousand of them, while a
block of FFT rows has no per-call cost worth counting, so it is sized for
memory alone.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DegeneratePointError, UnsupportedSizeError
from .grid import (
    SampledWavefunction,
    UniformGrid1D,
    _Dataset,
    _Record,
    trapezoid_weights,
)

__all__ = [
    "EPS_NU",
    "TomogramPlane",
    "FresnelTomogram",
    "OpticalTomogram",
    "NdWavefunction",
    "Moments",
    "symplectic_tomogram_plane",
    "fresnel_tomogram",
    "optical_tomogram",
    "symplectic_tomogram_nd",
    "wavefunction_moments",
    "plane_grids_for_slice",
]

# Below this, |nu| (or |sin t|, |mu|) counts as zero and the nu = 0 rule (_spectrum) applies.
EPS_NU = 1e-8

NEGATIVITY_TOL = -1e-10
# cap on a plane's X points from plane_grids_for_slice
MAX_X_COUNT = 8192
# A trapezoid sum on X step h of e^{iX} times a Gaussian column of 1/e half-width w aliases
# by exp(-((2*pi/h - 1)*w/2)^2) (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)), at most 2^-53
# once (2*pi/h - 1)*w/2 >= sqrt(53 ln 2) = 6.0611; 6.07, as at that value a plane's narrowest
# column at nu = 0 would sit on the bound itself, on the wrong side of it by rounding.
_ALIAS_A = 6.07
_KERNEL_BYTES = 1 << 18  # all buffers of a _chirp_z_columns row block: FFT rows, chirps, phases


def _alias_step(w: float) -> float:
    """The longest X step at which that sum over a column of 1/e half-width w aliases by 2^-53."""
    return 2.0 * math.pi / (1.0 + 2.0 * _ALIAS_A / w)


class _Tomogram(_Dataset):
    """Nonnegative samples `values` on the product of its two grids."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.values.min(initial=0.0) < NEGATIVITY_TOL:
            raise ValueError(f"tomogram values must be nonnegative, min {self.values.min()}")


class TomogramPlane(_Tomogram):
    """Tomogram samples on a product (X, mu) grid at one fixed nu."""

    _axes = ("grid_x", "grid_mu")
    nu: float
    grid_x: UniformGrid1D
    grid_mu: UniformGrid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        if not np.isfinite(self.nu):
            raise ValueError("nu must be finite")
        super().__post_init__()


class FresnelTomogram(_Tomogram):
    """Fresnel tomogram samples over a product (X, nu) grid.

    values[i, j] belongs to (grid_x.point(i), grid_nu.point(j)).
    """

    _axes = ("grid_x", "grid_nu")
    grid_x: UniformGrid1D
    grid_nu: UniformGrid1D
    values: np.ndarray


class OpticalTomogram(_Tomogram):
    """Homodyne-style tomogram samples over a product (X, theta) grid."""

    _axes = ("grid_x", "grid_theta")
    grid_x: UniformGrid1D
    grid_theta: UniformGrid1D
    values: np.ndarray


def _rays(mu, nu, X=0.0, named=False):
    """(mu_r, nu_r, flat) of the 1-D columns (mu, nu): a value is |Sum f*k|^2 / (2*pi*|nu_r|),
    k _kernel's row at (mu_r, nu_r), f psi's weighted samples on a live ray and sqrt(2*pi)/n
    times its centred spectrum on the flat ray (0, -mu). A non-finite X (a point's), mu or nu
    raises ValueError, a flat |mu| <= EPS_NU DegeneratePointError, named by axis if named."""
    X, mu, nu = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (X, mu, nu)))
    flat = np.abs(nu) <= EPS_NU
    for i in np.flatnonzero(~np.isfinite([X, mu, nu]).all(0) | flat & (np.abs(mu) <= EPS_NU))[:1]:
        where = f"axis {i}: " if named else ""
        for name, v in (("X", X[i]), ("mu", mu[i]), ("nu", nu[i])):
            if not np.isfinite(v):
                raise ValueError(f"{where}{name} = {v} is not finite")
        raise DegeneratePointError(f"{where}(mu, nu) = ({mu[i]}, {nu[i]}) is degenerate")
    return np.where(flat, 0.0, mu), np.where(flat, -mu, nu), flat


def _kernel(mu, nu, y2, shift, weights, phase, out) -> np.ndarray:
    """out = exp(i*(mu*y2 - shift)/nu) * weights, by the float scratch phase, mu and nu scalars
    or one per row: every row exp(i*mu*y^2/(2*nu) - i*X*y/nu)*w (y2 = y^2/2, shift = X*y)."""
    np.multiply(mu, y2, out=phase)
    phase -= shift
    phase /= nu
    np.multiply(phase, 1j, out=out)  # exp(1j*phase) bit for bit, with no temporary
    np.exp(out, out=out)
    out *= weights
    return out


def _fft_size(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n: a length numpy's FFT transforms fast."""
    odd = (3**b * 5**c for b in range(n.bit_length()) for c in range(n.bit_length()))
    return min(p << ((n - 1) // p).bit_length() for p in odd)


def _block_rows(size: int, shared_chirp: bool) -> int:
    """Rows per _chirp_z_columns block at FFT length size within _KERNEL_BYTES: an FFT
    row (16*size bytes) per row, and per row a chirp (16*size) and float phase row
    (8*size) or, when the rows share one chirp, that chirp, one phase row, and the step,
    carried and spare rows of their running product (16*size each at most)."""
    if shared_chirp:
        return max(1, (_KERNEL_BYTES // size - 72) // 16)
    return max(1, _KERNEL_BYTES // (40 * size))


def _chirp_z_columns(weighted, grid_y: UniformGrid1D, grid_x: UniformGrid1D, mu, nu, out, cols):
    """Write |Sum_j weighted[j] exp(i*mu_r*y_j^2/(2*nu_r) - i*X_k*y_j/nu_r)|^2 / (2*pi*|nu_r|)
    for X_k on grid_x into out[:, cols[r]]; mu and nu hold one value per row r, or mu is
    the rows' UniformGrid1D and nu their one value.

    With k and j counted from the grid centres, X_k y_j / nu = (terms in k
    alone) + xc*y_j/nu + c*k*j, c = dX*dy/nu, and Bluestein's k*j = (k^2 + j^2
    - (k-j)^2)/2 makes the sum one convolution with the chirp exp(i*c*m^2/2),
    done by FFT at a 5-smooth length; the factors of unit modulus in k drop
    out of |.|^2. Rows run in blocks of _block_rows, whose FFT rows, chirps and
    float phase scratch are allocated once; every exp is taken in place from the
    scratch. A row is exp(i*(mu*y^2/2 - xc*y - c*j^2/2)/nu)*weighted, one exp each,
    except on a mu grid: there every block shares one chirp FFT, and row r is row
    0 times the step row exp(i*dmu*y^2/(2*nu)) to the power r, one cumprod down
    each block that runs on from the last row of the block before, so a plane
    takes two rows of exps at any block size. Each cumprod also fills a spare row
    past its block: numpy multiplies a lone product in a vectorised loop that
    rounds otherwise, and two or more keep every row on the loop of a long
    cumprod, so the plane's bits do not depend on the block size.
    """
    n_x, n_y = grid_x.count, grid_y.count
    kc, jc = n_x // 2, n_y // 2
    size = _fft_size(n_x + n_y - 1)  # no lag wraps
    j, y = np.arange(n_y) - jc, grid_y.points
    lag = np.arange(size)
    m = np.where(lag < n_x, lag, lag - size) - (kc - jc)  # (k - kc) - (j - jc), exact integers
    # a row's phase is (mu*y2 - shift)/nu, and its chirp's phase cm2/nu
    y2, shift = y * y / 2, grid_x.point(kc) * y + grid_x.step * grid_y.step * (j * j) / 2
    cm2 = grid_x.step * grid_y.step * (m * m) / 2
    shared = isinstance(mu, UniformGrid1D)
    mu, d_mu = (mu.points, mu.step) if shared else (mu, 0.0)
    nu = np.reshape(np.asarray(nu, dtype=np.float64), (-1, 1))
    n = min(_block_rows(size, shared), len(mu))
    # on a mu grid, buf's row 0 carries the product between blocks and a spare row follows them
    buf = np.empty((n + 2 * shared, size), np.complex128)
    chirp = np.empty((1 if shared else n, size), np.complex128)
    phase = np.empty((1 if shared else n, size))
    for s in range(0, len(mu), n):
        mu_b, nu_b = mu[s : s + n, None], nu if shared else nu[s : s + n]
        b, c = buf[shared : shared + len(mu_b)], chirp if shared else chirp[: len(mu_b)]
        if s == 0 or not shared:  # every row from its own exp, or a grid's first row
            _kernel(1.0, nu_b, cm2, 0.0, 1.0, phase[: len(c)], c)  # the chirp exp(i*cm2/nu)
            np.fft.fft(c, axis=1, out=c)
            _kernel(mu_b[: len(c)], nu_b, y2, shift, weighted, phase[: len(c), :n_y],
                    b[: len(c), :n_y])
        if shared and len(mu) > 1:  # each row is the row before it times the step row
            if s == 0:
                step = _kernel(d_mu, nu[0], y2, 0.0, 1.0, phase[0, :n_y], np.empty(n_y, complex))
            run = buf[int(s == 0) : len(b) + 2, :n_y]  # from the block's row 0 or the carried row
            run[1:] = step
            np.cumprod(run, axis=0, out=run)
            buf[0, :n_y] = b[-1, :n_y]
        b[:, n_y:] = 0.0
        np.fft.fft(b, axis=1, out=b)
        b *= c
        np.fft.ifft(b, axis=1, out=b)
        w, im = b.real[:, :n_x], b.imag[:, :n_x]
        np.square(w, out=w)
        w += np.square(im, out=im)
        w /= 2.0 * np.pi * np.abs(nu_b)
        out[:, cols[s : s + n]] = w.T


def _momenta(grid: UniformGrid1D) -> np.ndarray:
    """p = 2*pi*fftfreq(n, h), the Nyquist bin at -pi/h: the momenta of _spectrum."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.count, grid.step)


def _spectrum(values, grid: UniformGrid1D) -> tuple[np.ndarray, np.ndarray]:
    """(p, c), c = fft(psi)*exp(-i*p*x0) along values' last axis: the one rule that reads
    psi off its samples. psi(x) is its band-limited interpolant Sum_k c_k exp(i*p_k*x)/n
    on its grid [x0, x1] and 0 off it."""
    p = _momenta(grid)
    return p, np.fft.fft(values) * np.exp(-1j * grid.start * p)


def _tomogram_columns(psi: SampledWavefunction, grid_x: UniformGrid1D, mu, nu) -> np.ndarray:
    """w(X, mu_j, nu_j) for X on grid_x, one column per mu_j; nu is one value or one per
    column, and mu one value per column or, with one nu, the columns' UniformGrid1D.

    The flat rays (_rays) are one chirp-z call on the p grid; the rest one more, with one
    shared chirp and rows as a running product when mu is a grid.
    """
    grid = isinstance(mu, UniformGrid1D)
    mu_r, nu_r, flat = _rays(mu.points if grid else mu, nu)
    out = np.empty((grid_x.count, flat.size))
    g, cols, live = psi.grid, np.flatnonzero(flat), np.flatnonzero(~flat)
    if cols.size:
        p, c = _spectrum(psi.values, g)
        c = np.fft.fftshift(c)
        c *= math.sqrt(2.0 * math.pi) / g.count
        grid_p = UniformGrid1D(p.min(), p[1], g.count)
        _chirp_z_columns(c, grid_p, grid_x, mu_r[cols], nu_r[cols], out, cols)
        x = grid_x.points[:, None] / -nu_r[cols]  # X/mu, zero off psi's grid, where the
        out[:, cols] *= (g.start <= x) & (x <= g.end)  # periodic interpolant would wrap
    if live.size:  # a mu grid has one nu, and it is live
        weighted = psi.values * trapezoid_weights(g.count, g.step)
        _chirp_z_columns(weighted, g, grid_x, mu if grid else mu_r[live],
                         nu if grid else nu_r[live], out, live)
    return out


def symplectic_tomogram_plane(
    psi: SampledWavefunction,
    grid_x: UniformGrid1D,
    grid_mu: UniformGrid1D,
    nu: float,
) -> TomogramPlane:
    """Tomogram over a full (X, mu) product grid at fixed nu.

    The mu columns share one nu and a uniform step, so the plane is one
    chirp-z call with one chirp FFT, whose rows are a running product of one
    step row: two rows of complex exps, not n_mu.
    """
    return TomogramPlane(nu, grid_x, grid_mu, _tomogram_columns(psi, grid_x, grid_mu, nu))


def fresnel_tomogram(
    psi: SampledWavefunction, grid_x: UniformGrid1D, grid_nu: UniformGrid1D
) -> FresnelTomogram:
    """Fresnel tomogram |(1/sqrt(2*pi*i*nu)) Int exp(i*(X-y)^2/(2*nu)) psi(y) dy|^2.

    Rows at |nu| <= EPS_NU reduce to |psi(X)|^2.
    """
    ones = np.ones(grid_nu.count)
    return FresnelTomogram(grid_x, grid_nu, _tomogram_columns(psi, grid_x, ones, grid_nu.points))


def optical_tomogram(
    psi: SampledWavefunction, grid_x: UniformGrid1D, grid_theta: UniformGrid1D
) -> OpticalTomogram:
    """Optical tomogram over a product (X, theta) grid.

    Rows at |sin t| <= EPS_NU reduce to |psi(X/cos t)|^2 / |cos t|.
    """
    theta = grid_theta.points
    vals = _tomogram_columns(psi, grid_x, np.cos(theta), np.sin(theta))
    return OpticalTomogram(grid_x, grid_theta, vals)


# ---------------------------------------------------------------------------
# N-dimensional fields


class NdWavefunction(_Dataset):
    """Wavefunction on an N-axis product grid, N in {1, 2, 3}."""

    _axes, _dtype = ("grids",), np.complex128
    grids: tuple[UniformGrid1D, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.grids)
        if n not in (1, 2, 3):
            raise UnsupportedSizeError(f"supported dimensions are 1..3, got {n}")
        super().__post_init__()  # no norm gate: unnormalized tensors are legal forward inputs


def symplectic_tomogram_nd(
    psi: NdWavefunction, Xs: Sequence[float], mus: Sequence[float], nus: Sequence[float]
) -> float:
    """Product-kernel symplectic tomogram of an N-axis wavefunction.

    One loop over the axes, last first, contracts psi with one kernel row (_kernel) per
    axis at its ray (_rays): over its samples, or when flat over its p grid at X - mu*x0
    (fft(psi) is the spectrum about x0), the row taken through one 1-D FFT. A product
    state's value is its factors' product. At mu = (1, ..., 1) this is the N-axis
    Fresnel tomogram.
    """
    if not (len(Xs) == len(mus) == len(nus) == len(psi.grids)):
        raise ValueError(f"expected {len(psi.grids)} components per argument")
    mu_r, nu_r, flat = _rays(mus, nus, Xs, named=len(psi.grids) > 1)
    amp = psi.values
    for axis in reversed(range(len(psi.grids))):  # each step consumes the last axis of amp
        g, X, n = psi.grids[axis], Xs[axis], psi.grids[axis].count
        if flat[axis]:
            y, w, X = _momenta(g), math.sqrt(2.0 * math.pi) / n, X - mus[axis] * g.start
        else:
            y, w = g.points, trapezoid_weights(n, g.step)
        k = _kernel(mu_r[axis], nu_r[axis], y * y / 2, X * y, w, np.empty(n), np.empty(n, complex))
        if flat[axis]:  # zero off psi's grid, where the periodic interpolant would wrap
            k = np.fft.fft(k) * (g.start <= Xs[axis] / mus[axis] <= g.end)
        amp = amp @ k
    return float(amp.real**2 + amp.imag**2) / float(np.prod(2.0 * np.pi * np.abs(nu_r)))


# ---------------------------------------------------------------------------
# Moments and plane-grid policy for reconstruction pipelines


class Moments(_Record):
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

    Momentum moments take psi' from psi's spectrum, the derivative of the
    band-limited interpolant that the nu = 0 rule reads (_spectrum).
    """
    x = psi.grid.points
    step = psi.grid.step
    prob = np.abs(psi.values) ** 2
    mq = float(np.trapezoid(prob * x, dx=step))
    var_q = float(np.trapezoid(prob * (x - mq) ** 2, dx=step))
    dpsi = np.fft.ifft(1j * _momenta(psi.grid) * np.fft.fft(psi.values))
    mp = float(np.trapezoid(np.conj(psi.values) * dpsi, dx=step).imag)
    var_p = float(np.trapezoid(np.abs(dpsi) ** 2, dx=step)) - mp**2
    cov = float(np.trapezoid(np.conj(psi.values) * x * dpsi, dx=step).imag) - mq * mp
    return Moments(mq, mp, var_q, var_p, cov)


def plane_grids_for_slice(nu: float, moments: Moments) -> tuple[UniformGrid1D, UniformGrid1D]:
    """(X, mu) grids adapted to one nu so a plane supports accurate slices.

    At fixed nu the plane is a set of X-marginals, one per mu node; the
    column at mu has 1/e half-width sqrt(2*(var_q*(mu - mu_c)^2 + nu^2*det/var_q)),
    narrowest at mu_c = -nu*cov/var_q. The mu nodes are an even count centred
    on mu_c, so they sit at mu_c +- (k + 1/2)*step_mu and none lands on the
    narrowest column (at nu = 0 that column is the degenerate mu = 0 delta).
    The X step is the longest at which the sum the inversion takes over that
    column, the one half a mu step off mu_c (half-width w_min), aliases by at
    most float64 epsilon, _alias_step(w_min). The X window covers the
    widest column that still carries weight; a plane that would need over
    MAX_X_COUNT X points raises UnsupportedSizeError naming nu.
    """
    sq = math.sqrt(moments.var_q)
    sp = math.sqrt(moments.var_p)
    det = max(moments.det, 1e-12)
    mu_c = -nu * moments.cov / moments.var_q
    mu_half = 6.5 / sq + 2.0
    step_mu = min(1.0 / (3.0 * sq), 2.0 / (1.0 + 0.5 * abs(nu)))
    n_mu = 2 * math.ceil(mu_half / step_mu)
    grid_mu = UniformGrid1D(mu_c - step_mu * (n_mu - 1) / 2.0, step_mu, n_mu)

    w_min = math.sqrt(2.0 * (moments.var_q * (0.5 * step_mu) ** 2 + nu**2 * det / moments.var_q))
    # columns with weight >= ~1e-4 sit within 4.3/sq of the center
    w_eff = math.sqrt(2.0) * ((abs(mu_c) + 4.3 / sq) * sq + abs(nu) * sp)
    # a window that cuts the flanks of the weightless window-edge column leaves slowly
    # decaying junk in e^{iX}-weighted sums, so the X window covers that column too
    w_edge = math.sqrt(2.0) * ((abs(mu_c) + mu_half) * sq + abs(nu) * sp)
    x_half = max(2.6 * w_eff + 3.0, 2.5 * w_edge)
    step_x = _alias_step(w_min)
    n_x = 2 * math.ceil(x_half / step_x) + 1
    if n_x > MAX_X_COUNT:
        raise UnsupportedSizeError(f"the plane at nu = {nu:g} takes {n_x} X points to sample "
                                   f"its narrowest column, over MAX_X_COUNT = {MAX_X_COUNT}")
    grid_x = UniformGrid1D(-step_x * (n_x // 2), step_x, n_x)
    return grid_x, grid_mu
