"""Inverse maps: tomogram back to wavefunction, density matrix and Wigner function.

Every inversion goes through one table of the tomographic characteristic
function C(mu, nu) = Int w(X, mu, nu) e^{iX} dX. The table is a stream of
fixed-nu rows, nu = (nu_1, ..., nu_N); each row holds C on the N-fold product
of its mu nodes times their weights (trapezoid rule and raised-cosine taper)
and a nu weight. psi, rho and W are linear read-outs of it:

    rho(x, x') = (1/2pi)^N Sum_mu C(mu, x - x') w_mu Prod_k e^{-i mu_k (x_k + x'_k)/2}
    psi(x)     = rho(x, 0) / sqrt(rho(0, 0))     (pure states, up to a phase)
    W(q, p)    = (1/4pi^2) Sum_nu w_nu Sum_mu C(mu, nu) w_mu e^{-i (mu q + nu p)}

Three builders fill the table. From a plane sweep, each plane is one N = 1
row: its own X grid does the X integral and its own mu span carries the
taper. From a sampled Fresnel map, each column at nu' gives C along the ray
(mu, nu) = mu (1, nu') on the map's own X' grid, and a row at nu takes it at
nu' = nu/mu. From a source callable w(X_1..X_N, mu_1..mu_N, nu_1..nu_N) (a
Fresnel callable becomes one through fresnel_as_symplectic_source), the integrands
decay only through oscillation along mu, so each mu axis is truncated at
`mu_window` with the taper on its outer `taper_fraction`. Column integrals
over X then use abscissas scaled per column (X = s*u with s = r_q*|mu| +
r_p*|nu|): a fixed absolute X grid cannot resolve the near-delta columns at
small |mu|+|nu| while covering the wide ones at the window edge with a fixed
point budget. s depends on |nu| only, so the abscissas and column weights are
computed once per |nu| of each axis and shared by the rows at +-nu. Every
tomogram is homogeneous, w(lX, l mu, l nu) = w/|l|, so w(-X, -mu, -nu) =
w(X, mu, nu) and C(-mu, -nu) = C(mu, nu)*: each mirror pair of rows is
computed from the source once, the row at -nu being the conjugate mirror of
the row at +nu. The source is called on blocks of mu nodes of at most
tomography._BLOCK_BYTES, as the forward kernel's row blocks are, and the
sampled Fresnel map's columns are summed in blocks of the same size, so no
inversion's working memory grows with the quadrature.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainLookupError, MissingAnchorError, NodeAtOriginError, UnsupportedSizeError
from .grid import SampledWavefunction, UniformGrid1D, _frozen_array, trapezoid_weights
from .tomography import _BLOCK_BYTES, FresnelTomogram, TomogramPlane

__all__ = [
    "DensityMatrix",
    "DensityMatrixNd",
    "WignerFunction",
    "PsiReconstruction",
    "InversionConfig",
    "raised_cosine_taper",
    "reconstruct_psi",
    "reconstruct_density_matrix",
    "reconstruct_density_matrix_fresnel",
    "reconstruct_density_matrix_nd",
    "reconstruct_wigner",
    "fresnel_as_symplectic_source",
    "density_matrix_from_planes",
    "wigner_from_planes",
]

HERMITICITY_TOL = 1e-8
ANCHOR_FLOOR = 1e-12
# psi(0) counts as a node when rho(0,0) is at most this fraction of max rho(x,x)
ANCHOR_RATIO = 1e-3
# points of rho(x, x) searched for that maximum
DIAGONAL_SAMPLES = 401
# plane columns with at least this in-window mass must span one X step (std)
RESOLVED_MASS = 1e-3
# a Fresnel map's X' window cuts a column whose edge samples exceed this fraction of its peak
EDGE_FRACTION = 1e-2
# half-width of the source columns' abscissas u: the column at (mu, nu) spans
# |X| <= X_WINDOW*s, ~10 column stds at the default extents (it only rescales them)
X_WINDOW = 2.5


def _check_hermitian(mat: np.ndarray) -> None:
    defect = float(np.max(np.abs(mat - mat.conj().T)))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"hermiticity defect {defect} exceeds {HERMITICITY_TOL}")


def _hermitian_part(raw, n: int) -> tuple[np.ndarray, float]:
    """(raw + raw^H)/2 in raw's shape, raw read as n x n, and the asymmetry it removed."""
    mat = np.asarray(raw, dtype=np.complex128).reshape(n, n)
    adj = mat.conj().T
    return (0.5 * (mat + adj)).reshape(np.shape(raw)), float(np.max(np.abs(mat - adj)))


@dataclass(frozen=True)
class DensityMatrix:
    """Position-representation density matrix on a uniform grid.

    Constructed values must already be Hermitian to 1e-8; use ``from_raw``
    to symmetrize quadrature output and keep the pre-symmetrization
    asymmetry as a diagnostic.
    """

    grid: UniformGrid1D
    values: np.ndarray
    asymmetry: float = 0.0

    def __post_init__(self) -> None:
        n = self.grid.count
        vals = _frozen_array(self.values, (n, n), np.complex128)
        _check_hermitian(vals)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_raw(grid: UniformGrid1D, raw) -> "DensityMatrix":
        return DensityMatrix(grid, *_hermitian_part(raw, grid.count))

    @property
    def trace_times_step(self) -> float:
        return float(np.real(np.trace(self.values)) * self.grid.step)


@dataclass(frozen=True)
class DensityMatrixNd:
    """N-axis density matrix; values[i1..iN, j1..jN] with one index pair per axis."""

    grids: tuple[UniformGrid1D, ...]
    values: np.ndarray
    asymmetry: float = 0.0

    def __post_init__(self) -> None:
        shape = tuple(g.count for g in self.grids) * 2
        object.__setattr__(self, "values", _frozen_array(self.values, shape, np.complex128))
        _check_hermitian(self.as_matrix())

    def as_matrix(self) -> np.ndarray:
        n = int(np.prod([g.count for g in self.grids]))
        return self.values.reshape(n, n)

    @staticmethod
    def from_raw(grids, raw) -> "DensityMatrixNd":
        grids = tuple(grids)
        return DensityMatrixNd(grids, *_hermitian_part(raw, math.prod(g.count for g in grids)))


@dataclass(frozen=True)
class WignerFunction:
    grid_q: UniformGrid1D
    grid_p: UniformGrid1D
    values: np.ndarray
    imag_residue: float = 0.0

    def __post_init__(self) -> None:
        shape = (self.grid_q.count, self.grid_p.count)
        object.__setattr__(self, "values", _frozen_array(self.values, shape, np.float64))

    def normalization(self) -> float:
        col = np.trapezoid(self.values, dx=self.grid_p.step, axis=1)
        return float(np.trapezoid(col, dx=self.grid_q.step))

    def marginal_q(self) -> np.ndarray:
        return np.trapezoid(self.values, dx=self.grid_p.step, axis=1)


@dataclass(frozen=True)
class PsiReconstruction:
    """psi, and the raw column rho(nu, 0) = psi(nu) conj(psi(0)) it is scaled from,
    a complex array on psi.grid."""

    psi: SampledWavefunction
    autocorrelation: np.ndarray
    prenorm_l2: float
    anchor: float
    anchor_imag: float


@dataclass(frozen=True)
class InversionConfig:
    """Quadrature window for the direct inverse maps.

    mu_window: half-width M of the mu integration window [-M, M].
    taper_fraction: outer fraction of the window under a raised-cosine taper.
    samples_per_axis: points per quadrature axis; must be even so the mu
        nodes straddle zero without touching it.
    """

    mu_window: float = 40.0
    taper_fraction: float = 0.2
    samples_per_axis: int = 128

    def __post_init__(self) -> None:
        if not (self.mu_window > 0 and np.isfinite(self.mu_window)):
            raise ValueError(f"mu_window must be positive, got {self.mu_window}")
        if not (0.0 <= self.taper_fraction < 1.0):
            raise ValueError(f"taper_fraction must lie in [0, 1), got {self.taper_fraction}")
        if self.samples_per_axis < 8 or self.samples_per_axis % 2:
            raise ValueError(
                f"samples_per_axis must be even and at least 8, got {self.samples_per_axis}"
            )


def raised_cosine_taper(x, half_width: float, fraction: float) -> np.ndarray:
    """1 on the inner (1-fraction) of [-half_width, half_width], cosine rolloff outside."""
    ax = np.abs(np.asarray(x, dtype=np.float64))
    if fraction <= 0.0:
        return np.where(ax <= half_width, 1.0, 0.0)
    flat = (1.0 - fraction) * half_width
    ramp = np.clip((ax - flat) / (fraction * half_width), 0.0, 1.0)
    out = 0.5 * (1.0 + np.cos(np.pi * ramp))
    return np.where(ax <= half_width, out, 0.0)


# ---------------------------------------------------------------------------
# The characteristic table and its read-outs


@dataclass(frozen=True)
class _Row:
    """One fixed-nu row of the characteristic table, nu = (nu_1, ..., nu_N).

    c holds C(mu, nu) on the N-fold product of the mu nodes times their
    weights (trapezoid rule and taper); w_nu is the row's weight in sums
    over nu. Plane rows are the N = 1 case.
    """

    nu: tuple[float, ...]
    w_nu: float
    mu: np.ndarray
    c: np.ndarray

    def rho(self, x, xp):
        """rho at pairs with x_k - x'_k = nu_k; x and xp hold one entry per axis,
        whose two broadcast to that axis's pair dimensions of the result."""
        out = self.c
        for xk, xpk in reversed(list(zip(x, xp))):  # the last mu axis; its pairs go in front
            b = 0.5 * (np.asarray(xk) + xpk)
            out = np.inner(np.exp(-1j * np.multiply.outer(b, self.mu)), out)
        return out / (2.0 * np.pi) ** len(self.nu)


def _pair_nus(grid: UniformGrid1D) -> np.ndarray:
    """The differences x - x' of the grid's point pairs, ascending."""
    return grid.step * np.arange(-(grid.count - 1), grid.count)


def _on_axis(x: np.ndarray, a: int, n_axes: int) -> np.ndarray:
    """x's dimensions as block a of n_axes, to broadcast one array per axis."""
    return x.reshape((1,) * (x.ndim * a) + x.shape + (1,) * (x.ndim * (n_axes - 1 - a)))


def _rho_on_pairs(rows, grids: Sequence[UniformGrid1D]) -> np.ndarray:
    """Raw rho[i_1..i_N, j_1..j_N] on the product of grids; each row fills the
    pairs with x_k - x'_k = nu_k, so rows at every nu of _pair_nus fill it all."""
    n_axes = len(grids)
    raw = np.zeros(tuple(g.count for g in grids) * 2, dtype=np.complex128)
    points = [g.points for g in grids]
    for row in rows:
        ds = [round(nu / g.step) for g, nu in zip(grids, row.nu)]
        i = [np.arange(max(0, d), g.count + min(0, d)) for g, d in zip(grids, ds)]
        j = [ik - d for ik, d in zip(i, ds)]
        block = row.rho([x[ik] for x, ik in zip(points, i)], [x[jk] for x, jk in zip(points, j)])
        raw[tuple(_on_axis(ix, a % n_axes, n_axes) for a, ix in enumerate(i + j))] = block
    return raw


def _wigner(rows, grid_q: UniformGrid1D, grid_p: UniformGrid1D) -> WignerFunction:
    """W(q, p) = (1/4pi^2) Sum_rows w_nu (Sum_mu c e^{-i mu q}) e^{-i nu p}, one-axis rows."""
    q, p = grid_q.points, grid_p.points
    rows = list(rows)
    cols, mu = [], None
    for r in rows:
        if r.mu is not mu:  # rows built from a source share one mu array
            mu, Eq = r.mu, np.exp(-1j * np.outer(q, r.mu))
        cols.append(Eq @ r.c)
    inner = np.stack(cols, axis=1)
    nu, w_nu = np.array([(r.nu[0], r.w_nu) for r in rows]).T
    W = inner @ (w_nu[:, None] * np.exp(-1j * np.outer(nu, p))) / (4.0 * np.pi**2)
    return WignerFunction(grid_q, grid_p, W.real, float(np.max(np.abs(W.imag))))


def _table_from_planes(ordered: Sequence[TomogramPlane], taper_fraction: float) -> list[_Row]:
    """One row per plane, in the given (ascending nu) order.

    Each plane's own X grid does the X integral by the trapezoid rule and its
    own mu span carries the taper; nu weights are the local plane spacing,
    tapered over the nu range. The same weights give each column's X mean and
    std from the plane's own data; a RuntimeWarning names the narrowest
    column when one with in-window mass >= RESOLVED_MASS is narrower than
    its plane's X step.
    """
    nus = np.array([p.nu for p in ordered])
    nu_half = max(abs(nus[0]), abs(nus[-1]))
    w_nus = raised_cosine_taper(nus, nu_half, taper_fraction) * np.gradient(nus)
    rows, coarse = [], []
    for plane, w_nu in zip(ordered, w_nus):
        gx, gmu = plane.grid_x, plane.grid_mu
        x, wx = gx.points, trapezoid_weights(gx.count, gx.step)
        C = (np.exp(1j * x) * wx) @ plane.values
        mass, m1, m2 = (wx * np.stack([np.ones_like(x), x, x * x])) @ plane.values
        held = mass >= RESOLVED_MASS
        if held.any():
            mean = m1[held] / mass[held]
            ratio = np.sqrt(np.maximum(m2[held] / mass[held] - mean**2, 0.0)) / gx.step
            k = int(np.argmin(ratio))
            # the measured std carries the trapezoid rule's own error (1e-7
            # relative at std = step), so compare at the printed two decimals
            if round(float(ratio[k]), 2) < 1.0:
                coarse.append((float(ratio[k]), plane.nu, float(gmu.points[held][k])))
        center = 0.5 * (gmu.start + gmu.end)
        taper = raised_cosine_taper(gmu.points - center, 0.5 * gmu.width, taper_fraction)
        wmu = trapezoid_weights(gmu.count, gmu.step) * taper
        rows.append(_Row((float(plane.nu),), float(w_nu), gmu.points, C * wmu))
    if coarse:
        ratio, nu, mu = min(coarse)
        warnings.warn(
            f"plane nu={nu:g}: the column at mu={mu:g} has an X std of {ratio:.2f} X steps; "
            f"{len(coarse)} of {len(ordered)} planes hold a column narrower than their X "
            "step, whose e^{iX} sum aliases: refine those X grids",
            RuntimeWarning, stacklevel=3)
    return rows


# w(X_1..X_N, mu_1..mu_N, nu_1..nu_N), N = 1 being w(X, mu, nu), in the X and mu broadcast
# shape. The inversions call it on blocks of mu nodes (at most _BLOCK_BYTES // 8 values a
# call), so it must be elementwise in its broadcast arguments. Like every tomogram it must
# meet w(-X, -mu, -nu) = w(X, mu, nu), which the inversions use to read the rows at -nu
# from those at +nu
Source = Callable[..., np.ndarray]


def _quad_nodes(cfg: InversionConfig):
    """mu nodes with their trapezoid weights, and the scaled X abscissas u;
    both are exact mirror images (x[::-1] == -x), so rows at +-nu share columns."""
    m = cfg.samples_per_axis
    h = np.linspace(-1.0, 1.0, m)[m // 2 :]  # the positive half; even m: no node at 0
    mu, u = (np.concatenate([-w * h[::-1], w * h]) for w in (cfg.mu_window, X_WINDOW))
    return mu, trapezoid_weights(m, mu[1] - mu[0]), u


def _phase_column_weights(s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Weights turning f(s_m * u_k) samples into Int f(Y) e^{iY} dY per column.

    Columns whose Y step resolves the unit-frequency phase (step <= 1.3,
    comfortably under the pi aliasing limit) get the plain end-halved rule,
    which is spectrally accurate for smooth decaying data. Wider columns
    switch to quadratic panels integrated exactly against the phase; a plain
    trapezoid-times-phase rule would alias their oscillation and turn
    negligible integrals into order one.
    """
    m, k = s.size, u.size
    h = np.abs(s) * (u[1] - u[0])  # per-column step in Y units
    filon = h > 1.3
    t = np.where(filon, h, 1.0)  # dummy 1.0 keeps the formulas finite
    sin_t, cos_t = np.sin(t), np.cos(t)
    I0 = 2.0 * sin_t / t
    I1 = 2j * (sin_t - t * cos_t) / t**2
    I2 = 2.0 * ((t**2 - 2.0) * sin_t + 2.0 * t * cos_t) / t**3
    w0 = 0.5 * (I2 - I1)
    w1 = I0 - I2
    w2 = 0.5 * (I2 + I1)
    eL = np.exp(1j * t)
    eR = np.exp(-1j * t)

    two_p = ((k - 1) // 2) * 2  # panel-covered node span: 0 .. two_p
    fw = np.zeros((m, k), dtype=np.complex128)
    fw[:, 0:two_p:2] += (w0 * eL)[:, None]
    fw[:, 2 : two_p + 1 : 2] += (w2 * eR)[:, None]
    fw[:, 1:two_p:2] = w1[:, None]
    if two_p < k - 1:  # odd interval count: close with one exact-phase linear cell
        z = 1j * t
        ez = np.exp(z)
        A = (ez - 1.0 - z) / z**2
        B = (ez * (z - 1.0) + 1.0) / z**2
        fw[:, k - 2] += A
        fw[:, k - 1] += B * eR

    W = np.where(filon[:, None], fw, trapezoid_weights(k, 1.0))
    Y = s[:, None] * u[None, :]
    R = h[:, None] * W * np.exp(1j * Y)
    # average with the right-anchored mirror assembly: keeps the accuracy
    # order and makes conj(weight at -u) = weight at u hold exactly, so
    # rho(i,j) and conj(rho(j,i)) see identical quadrature
    return 0.5 * (R + np.conj(R[:, ::-1]))


def _columns(nus, mu: np.ndarray, u: np.ndarray, extent):
    """Yield (n, Y, E) for every index n of nus, grouped by |nu|: the abscissas
    Y = s*u and the weights E of _phase_column_weights depend on |nu| only,
    so each group computes them once for the rows at +-nu. s is even in mu
    and E's rows depend on s alone, so E comes from the mu > 0 nodes, mirrored."""
    rq, rp = extent
    half = mu.size // 2
    groups: dict[float, list[int]] = {}
    for n, nu in enumerate(nus):
        groups.setdefault(abs(float(nu)), []).append(n)
    for a, ns in groups.items():
        s = rq * np.abs(mu) + rp * a
        E = _phase_column_weights(s[half:], u)
        Y, E = s[:, None] * u[None, :], np.concatenate([E[::-1], E])
        yield from ((n, Y, E) for n in ns)


def _node_blocks(m: int, k: int, n_axes: int) -> list[tuple[slice, ...]]:
    """Blocks of the N-fold product of m mu nodes, one slice of nodes per axis,
    covering each node tuple once. A block's source call takes k abscissas per
    node on every axis and returns at most _BLOCK_BYTES // 8 values (never
    fewer than one node tuple's k^N): axis 0 is split first, and a later axis
    only once one node of each axis before it fills the block."""
    budget = _BLOCK_BYTES // 8
    sizes = [1] * n_axes
    for a in range(n_axes):
        slab = k ** (a + 1) * (m * k) ** (n_axes - 1 - a)  # one node on axes <= a, all after
        if slab <= budget:
            sizes[a:] = [min(m, budget // slab)] + [m] * (n_axes - 1 - a)
            break
    return list(itertools.product(*([slice(s, min(s + b, m)) for s in range(0, m, b)]
                                    for b in sizes)))


def _table_from_source(source: Source, nus, cfg: InversionConfig, extents, radial: bool):
    """Rows over the product of the per-axis nu lists, symmetric about 0; each
    mirror pair of rows is computed from the source once.

    Only rows with nu lexicographically >= 0 call the source; each with
    nu != 0 also yields its mirror at -nu, C(-mu, -nu) = C(mu, nu)* by
    w(-X, -mu, -nu) = w(X, mu, nu). The mirror is exact on these nodes: mu
    and u are mirror images, s is even, conj(E at -u) = E at u, and the
    tapers and nu weights are even. The nu = 0 row is computed, so a source
    that breaks the symmetry still shows in rho's asymmetry.

    The first axis's columns stream one |nu| at a time; the other axes' are
    kept. A row calls the source on the node blocks of _node_blocks, so a
    source must be elementwise in its broadcast arguments. Each block is
    reduced to its tile of the row's c before the next call: the first u sum
    is one real batched GEMM over the block, and each further axis's works on
    its result. A row thus holds one block and its m^N c, whatever k^N is.
    The taper acts on |mu_k|, or on hypot(mu_k, nu_k) when `radial` (a
    window over the whole (mu, nu) plane).
    """
    mu, wmu, u = _quad_nodes(cfg)
    m, k, n_axes = mu.size, u.size, len(nus)
    window = (cfg.mu_window, cfg.taper_fraction)

    def axis(a):  # (nu, w_nu, Y, E, w_mu) per nu of axis a
        w_nus = trapezoid_weights(len(nus[a]), nus[a][1] - nus[a][0])
        for n, Y, E in _columns(nus[a], mu, u, extents[a]):
            nu = float(nus[a][n])
            taper = raised_cosine_taper(np.hypot(mu, nu) if radial else mu, *window)
            yield nu, float(w_nus[n]), Y, E, wmu * taper

    blocks = _node_blocks(m, k, n_axes)
    kept = [list(axis(a)) for a in range(1, n_axes)]
    for first in axis(0):
        E0 = first[3].view(np.float64).reshape(m, k, 2)  # [Re E, Im E] at each u, a view
        for rest in itertools.product(*kept):
            nu, w_nu, Y, E, w_mu = zip(first, *rest)
            if nu < (0.0,) * n_axes:  # the mirror of a row >= 0
                continue
            c = np.empty((m,) * n_axes, dtype=np.complex128)
            for blk in blocks:  # each block's u sums give its tile of c before the next call
                b = [s.stop - s.start for s in blk]
                w = source(*(_on_axis(y[s], a, n_axes) for a, (y, s) in enumerate(zip(Y, blk))),
                           *(_on_axis(mu[s, None], a, n_axes) for a, s in enumerate(blk)), *nu)
                # [Re C, Im C] pairs in a real GEMM, read as complex C[p, r, 1]
                C = np.matmul(w.reshape(b[0], k, -1).transpose(0, 2, 1), E0[blk[0]])
                C = C.view(np.complex128)
                del w  # one block at a time
                for a in range(1, n_axes):  # C[p, b, l, r] -> Sum_l E_a[b, l] C[p, b, l, r]
                    C = np.matmul(E[a][blk[a], None, :], C.reshape(math.prod(b[:a]), b[a], k, -1))
                c[blk] = C.reshape(b)
            c *= functools.reduce(np.multiply.outer, w_mu)
            row = _Row(nu, math.prod(w_nu), mu, c)
            yield row
            if any(nu):
                yield _Row(tuple(-v for v in nu), row.w_nu, mu, np.flip(c).conj())


def _table_from_fresnel(wf: FresnelTomogram, nus: np.ndarray, cfg: InversionConfig) -> list[_Row]:
    """One-axis rows at the offsets nus from a sampled Fresnel map, on its own X' grid.

    w(X, mu, nu) = w_F(X/mu, nu/mu)/|mu| gives C(mu, nu) = F(mu, nu/mu) with
    F(mu, nu') = Int w_F(X', nu') e^{i mu X'} dX', the map's column at nu'
    integrated by the trapezoid rule: a real GEMM at the positive mu nodes,
    mirrored by F(-mu) = F(mu)* (w_F is real), over only the columns that
    bracket some ray nu/mu, copied out of the map in blocks of _BLOCK_BYTES.
    Each row interpolates F linearly in nu' at nu/mu.
    A column whose edge samples exceed EDGE_FRACTION of its peak, or a ray
    nu/mu outside the nu' range, raises DomainLookupError naming that nu'
    (every column is checked). The sum on X' step h equals
    Sum_k F(mu + 2pi k/h), so an X' step of pi/mu_window or more, which
    folds F from inside the mu window onto it, raises ValueError.
    """
    gx, gn, vals = wf.grid_x, wf.grid_nu, wf.values
    cut = np.maximum(vals[0], vals[-1]) > EDGE_FRACTION * vals.max(axis=0)
    if cut.any():
        nup = float(gn.points[np.argmax(cut)])
        raise DomainLookupError(
            f"the X' window [{gx.start:g}, {gx.end:g}] cuts the Fresnel column at nu'={nup:g}: "
            f"its edge holds over {EDGE_FRACTION:g} of its peak; widen the map in X'", (nup,))
    mu, wmu, _ = _quad_nodes(cfg)
    rays = np.divide.outer(nus, mu)  # the nu' = nu/mu each row reads at each mu node
    tol = 1e-9 * gn.step
    outside = (rays < gn.start - tol) | (rays > gn.end + tol)
    if outside.any():
        r, m = np.unravel_index(np.argmax(outside), rays.shape)
        nup = float(rays[r, m])
        raise DomainLookupError(
            f"the row nu={nus[r]:g} needs nu'=nu/mu={nup:g} at mu={mu[m]:g}, outside the "
            f"Fresnel map's nu' range [{gn.start:g}, {gn.end:g}]", (nup,))
    if cfg.mu_window * gx.step >= math.pi:
        raise ValueError(
            f"the Fresnel map's X' step {gx.step:g} aliases the mu window: mu_window="
            f"{cfg.mu_window:g} needs a step below pi/mu_window = {math.pi / cfg.mu_window:g}")
    # the knots bracketing some ray: interpolating over them alone reads the same pairs
    j = np.clip(np.searchsorted(gn.points, rays, side="right") - 1, 0, gn.count - 2)
    cols = np.union1d(j, j + 1)
    half = mu.size // 2
    T = np.empty((2 * half, gx.count))  # [cos; sin](mu X') times the X' weights, mu > 0
    np.multiply.outer(mu[half:], gx.points, out=T[:half])
    np.sin(T[:half], out=T[half:])
    np.cos(T[:half], out=T[:half])
    T *= trapezoid_weights(gx.count, gx.step)
    U = np.empty((2 * half, cols.size))
    step = max(1, _BLOCK_BYTES // (8 * gx.count))  # the columns copied out of the map at a time
    for s in range(0, cols.size, step):
        U[:, s : s + step] = T @ vals[:, cols[s : s + step]]
    F = U[:half] + 1j * U[half:]
    F = np.concatenate([F[::-1].conj(), F])  # F(mu_m, nu'_cols[i]); the nodes are mirrors
    nu_primes = gn.points[cols]
    C = np.stack([np.interp(r, nu_primes, Fm) for r, Fm in zip(rays.T, F)], axis=1)
    c = C * (wmu * raised_cosine_taper(mu, cfg.mu_window, cfg.taper_fraction))
    w_nus = trapezoid_weights(len(nus), nus[1] - nus[0])
    return [_Row((float(nu),), float(w), mu, row) for nu, w, row in zip(nus, w_nus, c)]


# ---------------------------------------------------------------------------
# Plane-set-backed inversion (no off-grid lookups; used by the CLI)


def _sweep(planes: Sequence[TomogramPlane]) -> list[TomogramPlane]:
    """The planes in ascending nu; every plane read-out needs at least 3 of
    them over a nu range symmetric about zero."""
    ordered = sorted(planes, key=lambda p: p.nu)
    if len(ordered) < 3:
        raise ValueError(f"need at least 3 planes for a symmetric nu sweep, got {len(ordered)}")
    if abs(ordered[0].nu + ordered[-1].nu) > 1e-9:
        raise ValueError("plane nu grid must be symmetric about zero")
    return ordered


def _plane_nu_axis(planes: Sequence[TomogramPlane]) -> tuple[list[TomogramPlane], UniformGrid1D, int]:
    """The sweep in ascending nu, its nu grid, which must be uniform, and the
    index of its nu = 0 plane, which psi and rho anchor on."""
    if not any(abs(p.nu) <= ANCHOR_FLOOR for p in planes):
        raise MissingAnchorError(
            "the psi and rho read-outs anchor on the nu=0 plane; include a plane at exactly nu=0"
        )
    ordered = _sweep(planes)
    nus = np.array([p.nu for p in ordered])
    steps = np.diff(nus)
    step = float(np.mean(steps))
    if step <= 0 or np.max(np.abs(steps - step)) > 1e-9 * max(1.0, abs(step)):
        raise ValueError("plane nu values must form a uniform grid")
    return ordered, UniformGrid1D(float(nus[0]), step, int(nus.size)), int(np.argmin(np.abs(nus)))


def reconstruct_psi(
    planes: Sequence[TomogramPlane], cfg: InversionConfig = InversionConfig()
) -> PsiReconstruction:
    """Wavefunction from a symmetric sweep of fixed-nu planes.

    The nu grid must be uniform, symmetric, and contain nu=0 exactly. psi is
    the x' = 0 column of the density matrix, rho(nu, 0) = psi(nu) conj(psi(0)),
    on the plane nu grid, scaled by the anchor rho(0, 0) = |psi(0)|^2.
    Tomograms are blind to one global phase; this pins psi(0) real positive.
    A state with psi(0) = 0 has no usable anchor and raises
    NodeAtOriginError: rho(0, 0) is compared with max rho(x, x), read from
    the nu=0 row over its whole unaliased window |x| <= pi/step_mu, so a
    sweep narrower than the state cannot hide the state's peak. cfg's taper
    masks the mu nodes. The result is renormalized to unit L2 norm (the
    pre-normalization norm is reported).
    """
    ordered, grid_nu, anchor_idx = _plane_nu_axis(planes)
    table = _table_from_planes(ordered, cfg.taper_fraction)
    column = np.array([row.rho(row.nu, (0.0,)) for row in table])
    s0 = column[anchor_idx]
    x = np.linspace(-1.0, 1.0, DIAGONAL_SAMPLES) * np.pi / ordered[anchor_idx].grid_mu.step
    peak = float(np.max(table[anchor_idx].rho((x,), (x,)).real))
    if s0.real <= ANCHOR_RATIO * peak:
        raise NodeAtOriginError(
            f"rho(0,0) = {s0.real:.3e} against max rho(x,x) = {peak:.3e} is consistent "
            "with psi(0)=0; the scale is undefined"
        )
    raw = column / np.sqrt(s0.real)
    prenorm = float(np.sqrt(np.trapezoid(np.abs(raw) ** 2, dx=grid_nu.step)))
    psi = SampledWavefunction(grid_nu, raw / prenorm)
    return PsiReconstruction(
        psi=psi,
        autocorrelation=column,
        prenorm_l2=prenorm,
        anchor=float(s0.real),
        anchor_imag=float(s0.imag),
    )


def density_matrix_from_planes(
    planes: Sequence[TomogramPlane], cfg: InversionConfig = InversionConfig()
) -> DensityMatrix:
    """Density matrix using plane nodes themselves as quadrature nodes.

    The planes' nu grid supplies every X - X' difference, so the output grid
    step equals the plane spacing and no interpolation happens anywhere: the
    odd symmetric sweep of 2h + 1 planes gives h + 1 points. Each plane's own
    (X, mu) grid does the inner integrals; cfg's taper masks the mu nodes.
    """
    ordered, grid_nu, _ = _plane_nu_axis(planes)
    count = (grid_nu.count - 1) // 2 + 1  # _plane_nu_axis holds >= 3 planes, so count >= 2
    grid = UniformGrid1D(-grid_nu.step * (count // 2), grid_nu.step, count)
    rows = _table_from_planes(ordered, cfg.taper_fraction)
    return DensityMatrix.from_raw(grid, _rho_on_pairs(rows, (grid,)))


def wigner_from_planes(
    planes: Sequence[TomogramPlane],
    grid_q: UniformGrid1D,
    grid_p: UniformGrid1D,
    cfg: InversionConfig = InversionConfig(),
) -> WignerFunction:
    """Wigner function from a plane sweep; plane nodes are the quadrature nodes.

    Iterated quadrature: each plane integrates its own (X, mu) grid, the
    plane spacing integrates nu. The taper acts on each plane's mu span and
    on the outer nu range. The nu range must be symmetric about zero (a
    one-sided sweep misses half of the nu integral); a nu = 0 plane is not
    needed.
    """
    return _wigner(_table_from_planes(_sweep(planes), cfg.taper_fraction), grid_q, grid_p)


# ---------------------------------------------------------------------------
# Source-callable inversion


def reconstruct_density_matrix(
    source: Source,
    grid: UniformGrid1D,
    cfg: InversionConfig = InversionConfig(),
    extent: tuple[float, float] = (4.0, 4.0),
) -> DensityMatrix:
    """Density matrix by direct inversion of a symplectic tomogram source.

    rho(X, X') = (1/2pi) Iint w(Y, mu, X - X') exp(i*(Y - mu*(X + X')/2)) dmu dY
    over the windowed, tapered mu domain. `source(X, mu, nu)` must accept
    broadcastable arrays for X and mu and be elementwise in them: it is called
    on blocks of mu nodes. `extent` = (r_q, r_p) approximates the
    state's position/momentum live radius (~4 standard deviations) and sets
    the per-column scale of the X abscissas. The source must meet
    w(-X, -mu, -nu) = w(X, mu, nu), as every tomogram does: it is called
    only at nu >= 0, and the rows at -nu are the conjugate mirrors of those.
    """
    rows = _table_from_source(source, [_pair_nus(grid)], cfg, [extent], radial=False)
    return DensityMatrix.from_raw(grid, _rho_on_pairs(rows, (grid,)))


def fresnel_as_symplectic_source(fresnel) -> Source:
    """Adapt a Fresnel callable (X', nu') -> values to the symplectic source
    signature by the rescaling w(X, mu, nu) = (1/|mu|) w_F(X/mu, nu/mu);
    callers guarantee mu != 0."""

    def source(X, mu, nu):
        return fresnel(X / mu, nu / mu) / np.abs(mu)

    return source


def reconstruct_density_matrix_fresnel(
    fresnel: FresnelTomogram,
    grid: UniformGrid1D,
    cfg: InversionConfig = InversionConfig(),
) -> DensityMatrix:
    """Density matrix from a sampled Fresnel map through the rescaling identity.

    The map is integrated on its own X' grid, with no resampling
    (_table_from_fresnel); it must hold every ray nu/mu the grid's offsets
    make with cfg's mu nodes, columns whose X' window holds their tails, and
    an X' step below pi/cfg.mu_window. The mu nodes never touch zero. A
    Fresnel callable (X', nu') -> values inverts as
    reconstruct_density_matrix(fresnel_as_symplectic_source(f), grid, cfg, extent).
    """
    rows = _table_from_fresnel(fresnel, _pair_nus(grid), cfg)
    return DensityMatrix.from_raw(grid, _rho_on_pairs(rows, (grid,)))


def reconstruct_wigner(
    source: Source,
    grid_q: UniformGrid1D,
    grid_p: UniformGrid1D,
    cfg: InversionConfig = InversionConfig(),
    extent: tuple[float, float] = (4.0, 4.0),
) -> WignerFunction:
    """Wigner function by the triple-integral inversion of a tomogram source.

    W(q, p) = (1/(2pi)^2) Iiint w(X, mu, nu) exp(i*(X - mu*q - nu*p)) dX dmu dnu.
    The X integral per (mu, nu) node is the tomographic characteristic
    function, which decays fast; the (mu, nu) window reuses mu_window on both
    axes with a radial raised-cosine taper. The source must meet
    w(-X, -mu, -nu) = w(X, mu, nu), as every tomogram does: it is called only
    at nu > 0, and the rows at -nu are the conjugate mirrors of those.
    """
    mu = _quad_nodes(cfg)[0]
    return _wigner(_table_from_source(source, [mu], cfg, [extent], radial=True), grid_q, grid_p)


def reconstruct_density_matrix_nd(
    source: Source,
    grids: Sequence[UniformGrid1D],
    cfg: InversionConfig = InversionConfig(),
    extents: Sequence[tuple[float, float]] | None = None,
) -> DensityMatrixNd:
    """Product-kernel density-matrix inversion for tomogram sources of 1 or 2 axes.

    rho(X, X') = (1/2pi)^N Int w(Y_1..Y_N, mu_1..mu_N, nu_1..nu_N)
    * prod_k exp(i*(Y_k - mu_k*(X_k + X_k')/2)) with nu_k = X_k - X_k', on the
    rows and read-out of reconstruct_density_matrix. `source(X1, X2, mu1, mu2,
    nu1, nu2)` must broadcast, be elementwise in its broadcast arguments and
    meet w(-X, -mu, -nu) = w(X, mu, nu), as every tomogram does. Each mirror
    pair of rows at +-(nu1, nu2) is computed at the pair's lexicographically
    nonnegative member, by calls on blocks of (mu1, mu2) nodes that each return
    at most tomography._BLOCK_BYTES // 8 values of the row's (m k)^N: blocks of
    mu1 nodes, and of mu2 nodes too once one mu1 node's m k^2 values exceed
    that. Each block is reduced to its tile of the row before the next call, so
    the memory is one block plus the m^N row, however large m is. N >= 3 is not
    supported (separable states factor).
    """
    grids = tuple(grids)
    if not 1 <= len(grids) <= 2:
        raise UnsupportedSizeError(f"general reconstruction supports N<=2, got {len(grids)}")
    extents = extents or [(4.0, 4.0)] * len(grids)
    rows = _table_from_source(source, list(map(_pair_nus, grids)), cfg, extents, radial=False)
    return DensityMatrixNd.from_raw(grids, _rho_on_pairs(rows, grids))
