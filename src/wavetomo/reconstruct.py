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
nu' = nu/mu. From a source callable w(X_1..X_N, mu_1..mu_N, nu_1..nu_N), each
mu axis is truncated at `mu_window` with the taper on its outer
`taper_fraction`, and the source sizes its own X columns: its X marginals on
the rays (mu, nu) = (1, 0) and (1, +-1) give its moments, and each column is
sampled about its mean on a window of its std, by the plain trapezoid rule at
the one sample count the widest column needs. As w(-X, -mu, -nu) = w(X, mu, nu),
C(-mu, -nu) = C(mu, nu)* and each mirror pair of rows is computed from the
source once, at the mu nodes with nonzero weight only. Sources are called,
and a Fresnel map's [cos; sin](mu X') is built, in blocks of at most
_BLOCK_BYTES (1 MiB), and a map is read in place: no inversion's memory
grows with the quadrature.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainLookupError, MissingAnchorError, NodeAtOriginError, UnsupportedSizeError
from .grid import (DensityMatrix, DensityMatrixNd, SampledWavefunction, UniformGrid1D,
                   WignerFunction, _Record, trapezoid_weights)
from .tomography import (_ALIAS_A, MAX_X_COUNT, FresnelTomogram, Moments,
                         TomogramPlane, _alias_step)

__all__ = [
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

ANCHOR_FLOOR = 1e-12
# psi(0) counts as a node when rho(0,0) is at most this fraction of max rho(x,x)
ANCHOR_RATIO = 1e-3
# points of rho(x, x) searched for that maximum
DIAGONAL_SAMPLES = 401
# plane columns with at least this in-window mass must span one X step (std)
RESOLVED_MASS = 1e-3
# a Fresnel map's X' window cuts a column whose edge samples exceed this fraction of its peak
EDGE_FRACTION = 1e-2
# _probe's X grids: edge samples to PROBE_EDGE of the peak, PROBE_STEPS steps a std, PROBE_GRIDS
PROBE_EDGE = 1e-12
PROBE_STEPS = 4.0
PROBE_GRIDS = 24
# 8 bytes per value of one source call or probe, and the most one Fresnel-map lookup builds:
# a source call costs about 60 us whatever its size, so blocks are large
_BLOCK_BYTES = 1 << 20


class PsiReconstruction(_Record):
    """psi, and the raw column rho(nu, 0) = psi(nu) conj(psi(0)) it is scaled from,
    a complex array on psi.grid."""

    psi: SampledWavefunction
    autocorrelation: np.ndarray
    prenorm_l2: float
    anchor: float
    anchor_imag: float


class InversionConfig(_Record):
    """Quadrature window for the direct inverse maps.

    mu_window: half-width M of the mu integration window [-M, M].
    taper_fraction: outer fraction of the window under a raised-cosine taper.
    samples_per_axis: mu nodes per axis, and only those (a source sets its own
        X samples); even, so they straddle zero without touching it.
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


class _Row(_Record):
    """One fixed-nu row of the characteristic table, nu = (nu_1, ..., nu_N): c
    holds C(mu, nu) on the N-fold product of the mu nodes times their weights
    (trapezoid rule and taper), w_nu is the row's weight in sums over nu.
    """

    nu: tuple[float, ...]
    w_nu: float
    mu: np.ndarray
    c: np.ndarray

    def rho(self, x, xp):
        """rho at pairs with x_k - x'_k = nu_k; x and xp hold one entry per axis,
        whose two broadcast to that axis's pair dimensions of the result."""
        return self.contract(
            [np.exp(-1j * np.multiply.outer(0.5 * (np.asarray(xk) + xpk), self.mu))
             for xk, xpk in zip(x, xp)])

    def contract(self, phases):
        """(1/2pi)^N Sum_mu c Prod_k phases[k][..., mu_k]: rho from e^{-i b mu} on each
        axis's pair midpoints b, whose dimensions go in front in axis order."""
        out = self.c
        for e in reversed(phases):  # the last mu axis; its pairs go in front
            out = np.inner(e, out)
        return out / (2.0 * np.pi) ** len(self.nu)


def _pair_nus(grid: UniformGrid1D) -> np.ndarray:
    """The differences x - x' of the grid's point pairs, ascending."""
    return grid.step * np.arange(-(grid.count - 1), grid.count)


def _on_axis(x: np.ndarray, a: int, n_axes: int) -> np.ndarray:
    """x's dimensions as block a of n_axes, to broadcast one array per axis."""
    return x.reshape((1,) * (x.ndim * a) + x.shape + (1,) * (x.ndim * (n_axes - 1 - a)))


def _midpoints(x: np.ndarray) -> np.ndarray:
    """(x_i + x_j)/2 at i + j = 0, 1, ..., 2n - 2: the points and their neighbours' means."""
    a = np.arange(2 * x.size - 1)
    return 0.5 * (x[a // 2] + x[(a + 1) // 2])


def _rho_on_pairs(rows, grids: Sequence[UniformGrid1D]) -> np.ndarray:
    """Raw rho[i_1..i_N, j_1..j_N] on the product of grids; each row fills the
    pairs with x_k - x'_k = nu_k, so rows at every nu of _pair_nus fill it all.

    Rows that share one mu array (a source's or a Fresnel map's) read their
    phases from one table per axis: e^{-i b mu} at the 2n - 1 midpoints b =
    (x_i + x_j)/2, one per i + j, of which the diagonal i - j = d takes every
    other one. Rows with their own mu (a plane sweep's) take their own phases.
    """
    n_axes = len(grids)
    raw = np.zeros(tuple(g.count for g in grids) * 2, dtype=np.complex128)
    points = [g.points for g in grids]
    mu = tables = None
    for row in rows:
        ds = [round(nu / g.step) for g, nu in zip(grids, row.nu)]
        i = [np.arange(max(0, d), g.count + min(0, d)) for g, d in zip(grids, ds)]
        j = [ik - d for ik, d in zip(i, ds)]
        if row.mu is not mu:
            mu, tables = row.mu, None
        elif tables is None:  # a second row on the same mu: tabulate
            tables = [np.exp(-1j * np.multiply.outer(_midpoints(x), mu)) for x in points]
        if tables is None:
            block = row.rho([x[ik] for x, ik in zip(points, i)],
                            [x[jk] for x, jk in zip(points, j)])
        else:  # i + j runs from |d| to 2n - 2 - |d| in steps of 2
            block = row.contract([t[abs(d) : t.shape[0] - abs(d) : 2] for t, d in zip(tables, ds)])
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


def _table_from_planes(planes: Iterable[TomogramPlane], taper_fraction: float, axis):
    """One row per plane, in ascending nu, and what axis(nus) returns: it
    checks the ascending nus before any warning. Each plane is read once, as
    it arrives, and only its row and its narrowest column are kept, so a
    sweep is held one plane at a time. The nu weights are the local plane
    spacing, tapered over the nu range. The trapezoid weights of each plane's
    X grid also give each column's X mean and std; a RuntimeWarning names the
    narrowest column when one with in-window mass >= RESOLVED_MASS is
    narrower than its plane's X step.
    """
    got, coarse = [], []
    for plane in planes:
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
        got.append((float(plane.nu), gmu.points, C * wmu))
        del plane  # freed before the next plane is read
    got.sort(key=lambda r: r[0])
    nus = np.array([nu for nu, _, _ in got])
    checked = axis(nus)
    nu_half = max(abs(nus[0]), abs(nus[-1]))
    w_nus = raised_cosine_taper(nus, nu_half, taper_fraction) * np.gradient(nus)
    if coarse:
        ratio, nu, mu = min(coarse)
        warnings.warn(
            f"plane nu={nu:g}: the column at mu={mu:g} has an X std of {ratio:.2f} X steps; "
            f"{len(coarse)} of {len(got)} planes hold a column narrower than their X "
            "step, whose e^{iX} sum aliases: refine those X grids",
            RuntimeWarning, stacklevel=3)
    return [_Row((nu,), float(w_nu), mu, c) for (nu, mu, c), w_nu in zip(got, w_nus)], checked


# w(X_1..X_N, mu_1..mu_N, nu_1..nu_N) in the X and mu broadcast shape, elementwise (it is called
# on blocks of at most _BLOCK_BYTES // 8 values), with w(-X, -mu, -nu) = w(X, mu, nu)
Source = Callable[..., np.ndarray]


def _quad_nodes(cfg: InversionConfig):
    """mu nodes, exact mirror images (mu[::-1] == -mu), and their trapezoid weights."""
    m, w = cfg.samples_per_axis, cfg.mu_window
    h = np.linspace(-1.0, 1.0, m)[m // 2 :]  # the positive half; even m: no node at 0
    mu = np.concatenate([-w * h[::-1], w * h])
    return mu, trapezoid_weights(m, mu[1] - mu[0])


def _probe(source: Source, mus, nus) -> list[tuple[float, float]]:
    """Mean and variance of each axis's X marginal of the source on the rays
    (mus[a], nus[a]), by the trapezoid rule on one X grid per axis, from [-8, 8]
    in steps of 1/16 on. A source with no mass on any grid (a zero source) reads
    as the vacuum. The source is called on at most _BLOCK_BYTES // 8 values.
    """
    n_axes, half, count = len(mus), 8.0, 257
    for grid in range(PROBE_GRIDS):
        x = np.linspace(-half, half, count)
        step, wx = x[1] - x[0], trapezoid_weights(count, x[1] - x[0])
        marg = np.zeros((n_axes, count))
        rows = max(1, _BLOCK_BYTES // 8 // count ** (n_axes - 1))
        for s in range(0, count, rows):
            blk = slice(s, s + rows)
            X, W = [x[blk]] + [x] * (n_axes - 1), [wx[blk]] + [wx] * (n_axes - 1)
            w = source(*(_on_axis(X[a], a, n_axes) for a in range(n_axes)), *mus, *nus)
            for a in range(n_axes):  # Sum over the other axes, with their X weights
                others = itertools.chain(*((W[b], [b]) for b in range(n_axes) if b != a))
                marg[a, blk if a == 0 else slice(None)] += np.einsum(w, range(n_axes), *others, [a])
        mass = marg @ wx
        mean = marg @ (wx * x) / np.where(mass, mass, 1.0)
        var = (x - mean[:, None]) ** 2 * marg @ wx / np.where(mass, mass, 1.0)
        edges, peak = abs(marg[:, [0, -1]]).max(axis=1), abs(marg).max(axis=1)
        # a grid without mass widens too (a state far off 0), up to the last grid
        wide = bool(np.any(edges > PROBE_EDGE * peak)) or not mass.any() and grid < PROBE_GRIDS - 1
        sd = math.sqrt(np.min(var, where=mass != 0, initial=np.inf))  # the narrowest marginal's
        coarse = PROBE_STEPS * step * (1 + wide) > sd  # at the next grid's window
        if not (wide or coarse):
            return [(float(c), float(v)) if z else (0.0, 0.5 * (m * m + n * n))
                    for m, n, z, c, v in zip(mus, nus, mass, mean, var)]
        count, half = 2 * count - 1 if coarse else count, half * (1 + wide)
        if count > MAX_X_COUNT:
            break
    raise ValueError(f"the source's X marginals on the rays (mu, nu) = {list(zip(mus, nus))} "
                     f"do not settle on {PROBE_GRIDS} grids of at most {MAX_X_COUNT} points")


def _column_sd(m: Moments, mu, nu):
    """A bound on the column (mu, nu)'s X std that is even in mu and nu: |cov| for cov."""
    return np.sqrt(mu * mu * m.var_q + 2.0 * np.abs(mu * nu * m.cov) + nu * nu * m.var_p)


def _sample_count(sd: float) -> int:
    """The even count of u at which a column of X std sd is sampled at its _alias_step."""
    return 2 * math.ceil(_ALIAS_A * sd / _alias_step(math.sqrt(2.0) * sd) + 0.5)


def _windows(source: Source, nus, cfg: InversionConfig, radial: bool):
    """Each axis's Moments, from its X marginals on the rays (1, 0) and (1, +-1)
    with the other axes at (1, 0) (never at mu = 0, where
    fresnel_as_symplectic_source divides by mu), and the abscissas u of every
    column: u = j/(k - 1) for odd |j| < k, k = _sample_count of the widest
    column with taper weight. A k over MAX_X_COUNT raises UnsupportedSizeError
    naming that column.

    A column's window, Y = centre + _ALIAS_A*sd*u, spans +-6.07 standard
    deviations; _ALIAS_A was derived for the step rule, where it counts 1/e
    half-widths (sqrt(2)*sd). The window cuts a Gaussian column at about 1.3e-9
    of its mass, so its integral is accurate to a few 1e-9, not to 2^-53:
    |C - e^{-sd^2/2}| is 2.6e-9, 2.6e-9 and 1.8e-9 at sd = 0.5, 1 and 3, and
    1.6e-9, 1.6e-9 and 1.3e-9 at twice k, so the window, not the step, sets it.
    """
    n_axes, mu, window = len(nus), _quad_nodes(cfg)[0], (cfg.mu_window, cfg.taper_fraction)
    ones, moments, widest = [1.0] * n_axes, [], (0.0, 0.0, 0.0)
    for a, (mq, vq) in enumerate(_probe(source, ones, [0.0] * n_axes)):
        rays = ([sign if b == a else 0.0 for b in range(n_axes)] for sign in (1.0, -1.0))
        (mp, vp), (mm, vm) = (_probe(source, ones, nus_a)[a] for nus_a in rays)
        moments.append(Moments(mq, (mp - mm) / 2, vq, max((vp + vm) / 2 - vq, 0.0), (vp - vm) / 4))
        MU, NU = np.meshgrid(mu[mu.size // 2 :], np.abs(nus[a]))  # sd and the taper are even
        taper = raised_cosine_taper(np.hypot(MU, NU) if radial else MU, *window)
        sd = np.where(taper > 0, _column_sd(moments[a], MU, NU), 0.0)
        i = np.argmax(sd)
        widest = max(widest, (sd.flat[i], MU.flat[i], NU.flat[i]))
    sd, mu_w, nu_w = widest
    k = _sample_count(sd)
    if k > MAX_X_COUNT:
        raise UnsupportedSizeError(
            f"the column (mu, nu) = ({mu_w:g}, {nu_w:g}) has an X std of {sd:g}: sampling it "
            f"takes {k} X points, over MAX_X_COUNT = {MAX_X_COUNT}; narrow mu_window")
    return moments, np.arange(1 - k, k, 2) / (k - 1)


def _column_weights(sd: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Trapezoid weights turning samples of f at Y = centre + _ALIAS_A*sd*u
    into Int f(Y) e^{i(Y - centre)} dY, one row per column std in sd."""
    s = _ALIAS_A * sd[:, None]
    return s * (u[1] - u[0]) * trapezoid_weights(u.size, 1.0) * np.exp(1j * s * u)


def _columns(nus: np.ndarray, u: np.ndarray, m: Moments, cfg: InversionConfig, radial: bool):
    """Yield (nu, w_nu, Y, E, w_mu) for every nu of one axis, grouped by |nu|:
    the abscissas Y = mu<q> + nu<p> + _ALIAS_A*sd*u, the weights E of
    _column_weights, and the mu weights times the taper and the centring phase
    e^{i(mu<q> + nu<p>)}. sd is even in nu and in mu, so each group computes E
    once for the rows at +-nu, from the mu > 0 nodes, mirrored."""
    (mu, wmu), window = _quad_nodes(cfg), (cfg.mu_window, cfg.taper_fraction)
    half, w_nus = mu.size // 2, trapezoid_weights(len(nus), nus[1] - nus[0])
    groups: dict[float, list[int]] = {}
    for n, nu in enumerate(nus):
        groups.setdefault(abs(float(nu)), []).append(n)
    for a, ns in groups.items():
        sd = _column_sd(m, mu[half:], a)
        E, s = _column_weights(sd, u), _ALIAS_A * np.concatenate([sd[::-1], sd])
        E = np.concatenate([E[::-1], E])
        for nu, w_nu in zip(nus[ns].tolist(), w_nus[ns].tolist()):
            centre = mu * m.mean_q + nu * m.mean_p
            w_mu = wmu * raised_cosine_taper(np.hypot(mu, nu) if radial else mu, *window)
            yield nu, w_nu, centre[:, None] + s[:, None] * u, E, w_mu * np.exp(1j * centre)


def _node_blocks(spans: Sequence[range], k: int) -> list[tuple[slice, ...]]:
    """Blocks of the product of the spans of mu nodes, one slice of nodes per
    axis, covering each node tuple once (none if a span is empty). A block's
    source call takes k abscissas per node on every axis and returns at most
    _BLOCK_BYTES // 8 values (never fewer than one node tuple's k^N): axis 0
    is split first, and a later axis only once one node of each axis before
    it fills the block."""
    if not all(spans):
        return []
    budget, n_axes, sizes = _BLOCK_BYTES // 8, len(spans), [len(r) for r in spans]
    for a in range(n_axes):
        slab = k ** n_axes * math.prod(sizes[a + 1 :])  # one node on axes <= a, all after
        if slab <= budget:
            sizes[a] = min(sizes[a], budget // slab)
            break
        sizes[a] = 1
    return list(itertools.product(*([slice(s, min(s + b, r.stop)) for s in r[::b]]
                                    for r, b in zip(spans, sizes))))


def _table_from_source(source: Source, nus, cfg: InversionConfig, radial: bool):
    """Rows over the product of the per-axis nu lists (symmetric about 0), after
    _windows, so a state the rule cannot sample raises before any row.

    Only rows with nu lexicographically >= 0 call the source; each with
    nu != 0 also yields its conjugate mirror at -nu, exact on these mirror
    nodes and even weights. The nu = 0 row is computed, so a source that
    breaks the symmetry shows in rho's asymmetry. A row reduces each block of
    _node_blocks to its tile of c before the next call, so it holds one block
    and its m^N c, whatever k^N is. The taper acts on |mu_k|, or on
    hypot(mu_k, nu_k) when `radial`; a row calls the source only on the span
    of nodes with nonzero weight on each axis, and its c is 0 outside it.
    """
    moments, u = _windows(source, nus, cfg, radial)
    mu = _quad_nodes(cfg)[0]
    m, k, n_axes = mu.size, u.size, len(nus)
    columns = [_columns(nus_a, u, m_a, cfg, radial) for nus_a, m_a in zip(nus, moments)]
    kept = [list(c) for c in columns[1:]]
    for first in columns[0]:
        E0 = first[3].view(np.float64).reshape(m, k, 2)  # [Re E, Im E] at each u, a view
        for rest in itertools.product(*kept):
            nu, w_nu, Y, E, w_mu = zip(first, *rest)
            if nu < (0.0,) * n_axes:  # the mirror of a row >= 0
                continue
            c = np.zeros((m,) * n_axes, dtype=np.complex128)
            spans = [range(i[0], i[-1] + 1) if i.size else range(0)
                     for i in map(np.flatnonzero, w_mu)]
            for blk in _node_blocks(spans, k):  # each block's u sums give its tile of c
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
    mirrored by F(-mu) = F(mu)* (w_F is real), of the map's views of the runs
    of adjacent columns that bracket some ray nu/mu, for blocks of mu nodes
    whose [cos; sin](mu X') take at most _BLOCK_BYTES.
    Each row interpolates F linearly in nu' at nu/mu. A column whose edge
    samples exceed EDGE_FRACTION of its peak, or a ray nu/mu outside the nu'
    range, raises DomainLookupError naming that nu'. The sum on X' step h is
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
    mu, wmu = _quad_nodes(cfg)
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
    # the knots bracketing some ray: interpolating over them alone reads the same
    # pairs; each run [a, b) of adjacent ones is one GEMM on a view of the map, so
    # no column is copied out of it
    j = np.clip(np.searchsorted(gn.points, rays, side="right") - 1, 0, gn.count - 2)
    cols = np.union1d(j, j + 1)
    cuts = np.flatnonzero(np.diff(cols) > 1) + 1
    runs = list(zip([0, *cuts], [*cuts, cols.size]))
    x, wx, half = gx.points, trapezoid_weights(gx.count, gx.step), mu.size // 2
    F = np.empty((half, cols.size), dtype=np.complex128)
    step = min(half, max(1, _BLOCK_BYTES // (16 * gx.count)))  # mu nodes per block
    T = np.empty((2, step, gx.count))  # [cos; sin](mu X') times the X' weights, mu > 0
    for s in range(0, half, step):
        t = T[:, : min(step, half - s)]
        np.multiply.outer(mu[half + s : half + s + step], x, out=t[0])
        np.sin(t[0], out=t[1])
        np.cos(t[0], out=t[0])
        t *= wx
        for a, b in runs:
            U = t @ vals[:, cols[a] : cols[a] + b - a]
            F[s : s + step, a:b] = U[0] + 1j * U[1]
    F = np.concatenate([F[::-1].conj(), F])  # F(mu_m, nu'_cols[i]); the nodes are mirrors
    nu_primes = gn.points[cols]
    C = np.stack([np.interp(r, nu_primes, Fm) for r, Fm in zip(rays.T, F)], axis=1)
    c = C * (wmu * raised_cosine_taper(mu, cfg.mu_window, cfg.taper_fraction))
    w_nus = trapezoid_weights(len(nus), nus[1] - nus[0])
    return [_Row((float(nu),), float(w), mu, row) for nu, w, row in zip(nus, w_nus, c)]


# ---------------------------------------------------------------------------
# Plane-set-backed inversion (no off-grid lookups; used by the CLI)


def _sweep(nus: np.ndarray) -> None:
    """Every plane read-out needs at least 3 planes over a nu range symmetric
    about zero; nus holds their nu in ascending order."""
    if nus.size < 3:
        raise ValueError(f"need at least 3 planes for a symmetric nu sweep, got {nus.size}")
    if abs(nus[0] + nus[-1]) > 1e-9:
        raise ValueError("plane nu grid must be symmetric about zero")


def _plane_nu_axis(nus: np.ndarray) -> tuple[UniformGrid1D, int]:
    """The sweep's nu grid, which must be uniform, from its ascending nus, and
    the index of its nu = 0 plane, which psi and rho anchor on."""
    if not np.any(np.abs(nus) <= ANCHOR_FLOOR):
        raise MissingAnchorError(
            "the psi and rho read-outs anchor on the nu=0 plane; include a plane at exactly nu=0"
        )
    _sweep(nus)
    steps = np.diff(nus)
    step = float(np.mean(steps))
    if step <= 0 or np.max(np.abs(steps - step)) > 1e-9 * max(1.0, abs(step)):
        raise ValueError("plane nu values must form a uniform grid")
    return UniformGrid1D(float(nus[0]), step, int(nus.size)), int(np.argmin(np.abs(nus)))


def reconstruct_psi(
    planes: Iterable[TomogramPlane], cfg: InversionConfig = InversionConfig()
) -> PsiReconstruction:
    """Wavefunction from a symmetric sweep of fixed-nu planes.

    The nu grid must be uniform, symmetric, and contain nu=0 exactly. psi is
    rho(nu, 0) = psi(nu) conj(psi(0)) on the plane nu grid, scaled by the anchor
    rho(0, 0) = |psi(0)|^2 (psi(0) real positive pins the global phase), then
    to unit L2 norm (prenorm_l2 is the norm before). psi(0) = 0 raises
    NodeAtOriginError: rho(0, 0) is compared with max rho(x, x) over the nu=0
    row's whole unaliased window |x| <= pi/step_mu, which no sweep narrower
    than the state can hide. cfg's taper masks the mu nodes. `planes` may be
    any iterable, in any order; it is read once and one plane is held at a time.
    """
    table, (grid_nu, anchor_idx) = _table_from_planes(planes, cfg.taper_fraction, _plane_nu_axis)
    column = np.array([row.rho(row.nu, (0.0,)) for row in table])
    s0 = column[anchor_idx]
    mu = table[anchor_idx].mu
    x = np.linspace(-1.0, 1.0, DIAGONAL_SAMPLES) * np.pi / (mu[1] - mu[0])
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
    planes: Iterable[TomogramPlane], cfg: InversionConfig = InversionConfig()
) -> DensityMatrix:
    """Density matrix using plane nodes themselves as quadrature nodes.

    The planes' nu grid supplies every X - X' difference, so the output grid
    step is the plane spacing and nothing is interpolated: the odd symmetric
    sweep of 2h + 1 planes gives h + 1 points. Each plane's own (X, mu) grid
    does the inner integrals; cfg's taper masks the mu nodes. `planes` may be
    any iterable, in any order; it is read once and one plane is held at a time.
    """
    rows, (grid_nu, _) = _table_from_planes(planes, cfg.taper_fraction, _plane_nu_axis)
    count = (grid_nu.count - 1) // 2 + 1  # _plane_nu_axis holds >= 3 planes, so count >= 2
    grid = UniformGrid1D(-grid_nu.step * (count // 2), grid_nu.step, count)
    return DensityMatrix.from_raw(grid, _rho_on_pairs(rows, (grid,)))


def wigner_from_planes(
    planes: Iterable[TomogramPlane],
    grid_q: UniformGrid1D,
    grid_p: UniformGrid1D,
    cfg: InversionConfig = InversionConfig(),
) -> WignerFunction:
    """Wigner function from a plane sweep; plane nodes are the quadrature nodes.

    Each plane integrates its own (X, mu) grid and the plane spacing
    integrates nu; the taper acts on each plane's mu span and on the outer nu
    range. The nu range must be symmetric about zero (a one-sided sweep misses
    half of the nu integral); a nu = 0 plane is not needed. `planes` may be
    any iterable, in any order; it is read once and one plane is held at a time.
    """
    rows = _table_from_planes(planes, cfg.taper_fraction, _sweep)[0]
    return _wigner(rows, grid_q, grid_p)


# ---------------------------------------------------------------------------
# Source-callable inversion


def reconstruct_density_matrix(
    source: Source,
    grid: UniformGrid1D,
    cfg: InversionConfig = InversionConfig(),
) -> DensityMatrix:
    """Density matrix by direct inversion of a symplectic tomogram source.

    rho(X, X') = (1/2pi) Iint w(Y, mu, X - X') exp(i*(Y - mu*(X + X')/2)) dmu dY
    over the windowed, tapered mu domain. `source(X, mu, nu)` must accept
    broadcastable arrays for X and mu, be elementwise in them and meet
    w(-X, -mu, -nu) = w(X, mu, nu), as every tomogram does. Its X marginals at
    mu = 1, nu = 0 and +-1 size every column's X samples (_windows): a state
    that would need over MAX_X_COUNT raises UnsupportedSizeError, and one
    whose marginals do not settle ValueError.
    """
    rows = _table_from_source(source, [_pair_nus(grid)], cfg, radial=False)
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
    """Density matrix from a sampled Fresnel map through the rescaling identity,
    on the map's own X' grid, under the conditions of _table_from_fresnel. A
    Fresnel callable f(X', nu') inverts as
    reconstruct_density_matrix(fresnel_as_symplectic_source(f), grid, cfg).
    """
    rows = _table_from_fresnel(fresnel, _pair_nus(grid), cfg)
    return DensityMatrix.from_raw(grid, _rho_on_pairs(rows, (grid,)))


def reconstruct_wigner(
    source: Source,
    grid_q: UniformGrid1D,
    grid_p: UniformGrid1D,
    cfg: InversionConfig = InversionConfig(),
) -> WignerFunction:
    """Wigner function by the triple-integral inversion of a tomogram source.

    W(q, p) = (1/(2pi)^2) Iiint w(X, mu, nu) exp(i*(X - mu*q - nu*p)) dX dmu dnu.
    The X integral per (mu, nu) node is the tomographic characteristic
    function, which decays fast; the (mu, nu) window reuses mu_window on both
    axes with a radial raised-cosine taper. The source is as in
    reconstruct_density_matrix.
    """
    mu = _quad_nodes(cfg)[0]
    return _wigner(_table_from_source(source, [mu], cfg, radial=True), grid_q, grid_p)


def reconstruct_density_matrix_nd(
    source: Source,
    grids: Sequence[UniformGrid1D],
    cfg: InversionConfig = InversionConfig(),
) -> DensityMatrixNd:
    """Product-kernel density-matrix inversion for tomogram sources of 1 or 2 axes.

    rho(X, X') = (1/2pi)^N Int w(Y_1..Y_N, mu_1..mu_N, nu_1..nu_N)
    * prod_k exp(i*(Y_k - mu_k*(X_k + X_k')/2)) with nu_k = X_k - X_k', on the
    rows and read-out of reconstruct_density_matrix, whose conditions
    `source(X1, X2, mu1, mu2, nu1, nu2)` meets; each axis is probed with the
    other at (mu, nu) = (1, 0). The memory is one source call's block plus
    the m^N row, however large m is. N >= 3 is not supported (separable
    states factor).
    """
    grids = tuple(grids)
    if not 1 <= len(grids) <= 2:
        raise UnsupportedSizeError(f"general reconstruction supports N<=2, got {len(grids)}")
    rows = _table_from_source(source, list(map(_pair_nus, grids)), cfg, radial=False)
    return DensityMatrixNd.from_raw(grids, _rho_on_pairs(rows, grids))
