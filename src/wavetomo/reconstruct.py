"""Inverse maps: tomogram back to wavefunction, density matrix and Wigner function.

Every inversion goes through one table of the tomographic characteristic
function C(mu, nu) = Int w(X, mu, nu) e^{iX} dX. The table is a list of
fixed-nu rows; each row holds its mu nodes, C times the mu weight (trapezoid
rule and raised-cosine taper) and a nu weight. psi, rho and W are linear
read-outs of it:

    rho(x, x') = (1/2pi) Sum_mu C(mu, x - x') w_mu e^{-i mu (x + x')/2}
    psi(x)     = rho(x, 0) / sqrt(rho(0, 0))     (pure states, up to a phase)
    W(q, p)    = (1/4pi^2) Sum_nu w_nu Sum_mu C(mu, nu) w_mu e^{-i (mu q + nu p)}

Two builders fill the table. From a plane sweep, each plane is one row: its
own X grid does the X integral and its own mu span carries the taper. From
a source callable w(X, mu, nu), the integrands decay only through
oscillation along mu, so the mu axis is truncated at `mu_window` with the
taper on its outer `taper_fraction`. Column integrals over X then use
abscissas scaled per column (X = s*u with s = r_q*|mu| + r_p*|nu|): a fixed
absolute X grid cannot resolve the near-delta columns at small |mu|+|nu|
while covering the wide ones at the window edge with a fixed point budget.
s depends on |nu| only, so the abscissas and column weights are computed
once per |nu| and shared by the rows at +-nu; each row costs one source call.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import MissingAnchorError, NodeAtOriginError, UnsupportedSizeError
from .grid import (
    SampledWavefunction,
    UniformGrid1D,
    _frozen_array,
    trapezoid_integrate,
    trapezoid_weights,
)
from .tomography import FresnelTomogram, TomogramPlane, _bilinear

__all__ = [
    "DensityMatrix",
    "DensityMatrixNd",
    "WignerFunction",
    "PsiAutocorrelation",
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


def _check_hermitian(mat: np.ndarray) -> None:
    defect = float(np.max(np.abs(mat - mat.conj().T)))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"hermiticity defect {defect} exceeds {HERMITICITY_TOL}")


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
        raw = np.asarray(raw, dtype=np.complex128)
        asym = float(np.max(np.abs(raw - raw.conj().T)))
        return DensityMatrix(grid, 0.5 * (raw + raw.conj().T), asym)

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
        raw = np.asarray(raw, dtype=np.complex128)
        n = int(np.prod([g.count for g in grids]))
        mat = raw.reshape(n, n)
        asym = float(np.max(np.abs(mat - mat.conj().T)))
        sym = (0.5 * (mat + mat.conj().T)).reshape(raw.shape)
        return DensityMatrixNd(grids, sym, asym)


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
class PsiAutocorrelation:
    """Samples of psi(nu) * conj(psi(0)) on a uniform nu grid."""

    grid_nu: UniformGrid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.grid_nu.count,)
        object.__setattr__(self, "values", _frozen_array(self.values, shape, np.complex128))


@dataclass(frozen=True)
class PsiReconstruction:
    psi: SampledWavefunction
    autocorrelation: PsiAutocorrelation
    prenorm_l2: float
    anchor: float
    anchor_imag: float


@dataclass(frozen=True)
class InversionConfig:
    """Quadrature window for the direct inverse maps.

    mu_window: half-width M of the mu integration window [-M, M].
    taper_fraction: outer fraction of the window under a raised-cosine taper.
    X_window: half-width of the column abscissas in scaled units (the column
        at (mu, nu) integrates X over [-X_window*s, X_window*s] with
        s = r_q*|mu| + r_p*|nu|); 2.5 covers ~10 column standard deviations
        at the default extents.
    samples_per_axis: points per quadrature axis; must be even so the mu
        nodes straddle zero without touching it.
    """

    mu_window: float = 40.0
    taper_fraction: float = 0.2
    X_window: float = 2.5
    samples_per_axis: int = 128

    def __post_init__(self) -> None:
        if not (self.mu_window > 0 and np.isfinite(self.mu_window)):
            raise ValueError(f"mu_window must be positive, got {self.mu_window}")
        if not (0.0 <= self.taper_fraction < 1.0):
            raise ValueError(f"taper_fraction must lie in [0, 1), got {self.taper_fraction}")
        if not (self.X_window > 0 and np.isfinite(self.X_window)):
            raise ValueError(f"X_window must be positive, got {self.X_window}")
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
    """One fixed-nu row of the characteristic table.

    c holds C(mu, nu) at the mu nodes times their weight (trapezoid rule and
    taper); w_nu is the row's weight in sums over nu.
    """

    nu: float
    w_nu: float
    mu: np.ndarray
    c: np.ndarray

    def rho(self, x, xp):
        """rho(x, x') at pairs with x - x' = nu; x and xp broadcast."""
        b = 0.5 * (np.asarray(x) + xp)
        return np.exp(-1j * np.multiply.outer(b, self.mu)) @ self.c / (2.0 * np.pi)


def _rho_on_grid(rows: Sequence[_Row], grid: UniformGrid1D) -> DensityMatrix:
    """Density matrix on grid; rows[k] must hold nu = (k - count + 1) * grid.step."""
    x = grid.points
    n = grid.count
    raw = np.zeros((n, n), dtype=np.complex128)
    for d, row in zip(range(-(n - 1), n), rows):
        i = np.arange(max(0, d), n + min(0, d))
        j = i - d
        raw[i, j] = row.rho(x[i], x[j])
    return DensityMatrix.from_raw(grid, raw)


def _wigner(rows: Sequence[_Row], grid_q: UniformGrid1D, grid_p: UniformGrid1D) -> WignerFunction:
    """W(q, p) = (1/4pi^2) Sum_rows w_nu (Sum_mu c e^{-i mu q}) e^{-i nu p}."""
    q, p = grid_q.points, grid_p.points
    cols, mu = [], None
    for r in rows:
        if r.mu is not mu:  # rows built from a source share one mu array
            mu, Eq = r.mu, np.exp(-1j * np.outer(q, r.mu))
        cols.append(Eq @ r.c)
    inner = np.stack(cols, axis=1)
    nu = np.array([r.nu for r in rows])
    w_nu = np.array([r.w_nu for r in rows])
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
        rows.append(_Row(plane.nu, float(w_nu), gmu.points, C * wmu))
    if coarse:
        ratio, nu, mu = min(coarse)
        warnings.warn(
            f"plane nu={nu:g}: the column at mu={mu:g} has an X std of {ratio:.2f} X steps; "
            f"{len(coarse)} of {len(ordered)} planes hold a column narrower than their X "
            "step, whose e^{iX} sum aliases: refine those X grids",
            RuntimeWarning, stacklevel=3)
    return rows


Source = Callable[[np.ndarray, np.ndarray, float], np.ndarray]


def _quad_nodes(cfg: InversionConfig):
    """mu nodes with their trapezoid weights, and the scaled X abscissas u;
    both are exact mirror images (x[::-1] == -x), so rows at +-nu share columns."""
    m = cfg.samples_per_axis
    h = np.linspace(-1.0, 1.0, m)[m // 2 :]  # the positive half; even m: no node at 0
    mu, u = (np.concatenate([-w * h[::-1], w * h]) for w in (cfg.mu_window, cfg.X_window))
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
    """Yield (ns, Y, E) once per distinct |nu|: the indices ns of the nus with
    that |nu|, the abscissas Y = s*u and the weights of _phase_column_weights
    (s depends on |nu| only, so the rows at +-nu share them)."""
    rq, rp = extent
    groups: dict[float, list[int]] = {}
    for n, nu in enumerate(nus):
        groups.setdefault(abs(float(nu)), []).append(n)
    for a, ns in groups.items():
        s = rq * np.abs(mu) + rp * a
        yield ns, s[:, None] * u[None, :], _phase_column_weights(s, u)


def _table_from_source(
    source: Source, nus: np.ndarray, cfg: InversionConfig, extent, radial: bool
) -> list[_Row]:
    """Rows at the uniform nus, from column integrals on cfg's mu nodes.

    The taper acts on |mu|, or on hypot(mu, nu) when `radial` (a window over
    the whole (mu, nu) plane); nu weights are the trapezoid rule over nus.
    """
    mu, wmu, u = _quad_nodes(cfg)
    w_nus = trapezoid_weights(len(nus), nus[1] - nus[0])
    rows = [None] * len(nus)
    for ns, Y, E in _columns(nus, mu, u, extent):
        for n in ns:
            nu = float(nus[n])
            r = np.hypot(mu, nu) if radial else mu
            taper = raised_cosine_taper(r, cfg.mu_window, cfg.taper_fraction)
            C = (source(Y, mu[:, None], nu) * E).sum(axis=1)
            rows[n] = _Row(nu, float(w_nus[n]), mu, C * (wmu * taper))
    return rows


# ---------------------------------------------------------------------------
# Plane-set-backed inversion (no off-grid lookups; used by the CLI)


def _plane_nu_axis(planes: Sequence[TomogramPlane]) -> tuple[list[TomogramPlane], UniformGrid1D, int]:
    ordered = sorted(planes, key=lambda p: p.nu)
    nus = np.array([p.nu for p in ordered])
    if nus.size < 3:
        raise MissingAnchorError("need at least 3 planes for a symmetric nu sweep")
    anchor = int(np.argmin(np.abs(nus)))
    if abs(nus[anchor]) > ANCHOR_FLOOR:
        raise MissingAnchorError(
            "psi reconstruction anchors on the nu=0 plane; include a plane at exactly nu=0"
        )
    steps = np.diff(nus)
    step = float(np.mean(steps))
    if step <= 0 or np.max(np.abs(steps - step)) > 1e-9 * max(1.0, abs(step)):
        raise ValueError("plane nu values must form a uniform grid")
    if abs(nus[0] + nus[-1]) > 1e-9:
        raise ValueError("plane nu grid must be symmetric about zero")
    return ordered, UniformGrid1D(float(nus[0]), step, int(nus.size)), anchor


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
    column = np.array([row.rho(row.nu, 0.0) for row in table])
    s0 = column[anchor_idx]
    x = np.linspace(-1.0, 1.0, DIAGONAL_SAMPLES) * np.pi / ordered[anchor_idx].grid_mu.step
    peak = float(np.max(table[anchor_idx].rho(x, x).real))
    if s0.real <= ANCHOR_RATIO * peak:
        raise NodeAtOriginError(
            f"rho(0,0) = {s0.real:.3e} against max rho(x,x) = {peak:.3e} is consistent "
            "with psi(0)=0; the scale is undefined"
        )
    raw = column / np.sqrt(s0.real)
    prenorm = float(np.sqrt(trapezoid_integrate(np.abs(raw) ** 2, grid_nu.step).real))
    psi = SampledWavefunction(grid_nu, raw / prenorm)
    return PsiReconstruction(
        psi=psi,
        autocorrelation=PsiAutocorrelation(grid_nu, column),
        prenorm_l2=prenorm,
        anchor=float(s0.real),
        anchor_imag=float(s0.imag),
    )


def density_matrix_from_planes(
    planes: Sequence[TomogramPlane],
    cfg: InversionConfig = InversionConfig(),
    grid: UniformGrid1D | None = None,
) -> DensityMatrix:
    """Density matrix using plane nodes themselves as quadrature nodes.

    The planes' nu grid supplies every X - X' difference, so the output grid
    step equals the plane spacing and no interpolation happens anywhere. Each
    plane's own (X, mu) grid does the inner integrals; cfg's taper masks the
    mu nodes.
    """
    ordered, grid_nu, anchor_idx = _plane_nu_axis(planes)
    step = grid_nu.step
    if grid is None:
        half = (grid_nu.count - 1) // 2
        count = half + 1 if half + 1 >= 2 else 2
        start = -step * (count // 2)
        grid = UniformGrid1D(start, step, count)
    elif abs(grid.step - step) > 1e-9 * step:
        raise ValueError("output grid step must equal the plane nu spacing")
    n = grid.count
    lo, hi = anchor_idx - (n - 1), anchor_idx + n
    if lo < 0 or hi > grid_nu.count:
        raise ValueError(
            f"the grid needs planes out to |nu| = {(n - 1) * step:g}; "
            "extend the sweep or shrink the grid"
        )
    return _rho_on_grid(_table_from_planes(ordered[lo:hi], cfg.taper_fraction), grid)


def wigner_from_planes(
    planes: Sequence[TomogramPlane],
    grid_q: UniformGrid1D,
    grid_p: UniformGrid1D,
    cfg: InversionConfig = InversionConfig(),
) -> WignerFunction:
    """Wigner function from a plane sweep; plane nodes are the quadrature nodes.

    Iterated quadrature: each plane integrates its own (X, mu) grid, the
    plane spacing integrates nu. The taper acts on each plane's mu span and
    on the outer nu range.
    """
    ordered = sorted(planes, key=lambda p: p.nu)
    if len(ordered) < 3:
        raise ValueError("need at least 3 planes")
    return _wigner(_table_from_planes(ordered, cfg.taper_fraction), grid_q, grid_p)


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
    broadcastable arrays for X and mu. `extent` = (r_q, r_p) approximates the
    state's position/momentum live radius (~4 standard deviations) and sets
    the per-column scale of the X abscissas.
    """
    nus = grid.step * np.arange(-(grid.count - 1), grid.count)
    return _rho_on_grid(_table_from_source(source, nus, cfg, extent, radial=False), grid)


def fresnel_as_symplectic_source(fresnel) -> Source:
    """Adapt Fresnel data to the symplectic source signature via rescaling.

    w(X, mu, nu) = (1/|mu|) w_F(X/mu, nu/mu); callers guarantee mu != 0.
    `fresnel` is either a callable (X', nu') -> values or a FresnelTomogram
    (bilinear interpolation, domain errors for out-of-grid lookups).
    """
    if isinstance(fresnel, FresnelTomogram):

        def lookup(xp, nup):
            return _bilinear(fresnel.grid_x, fresnel.grid_nu, fresnel.values, xp, nup)

    else:
        lookup = fresnel

    def source(X, mu, nu):
        return lookup(X / mu, nu / mu) / np.abs(mu)

    return source


def reconstruct_density_matrix_fresnel(
    fresnel,
    grid: UniformGrid1D,
    cfg: InversionConfig = InversionConfig(),
    extent: tuple[float, float] = (4.0, 4.0),
) -> DensityMatrix:
    """Density matrix from Fresnel data through the rescaling identity.

    Runs the same quadrature as :func:`reconstruct_density_matrix` (the mu
    nodes never touch zero), only the lookup path differs.
    """
    return reconstruct_density_matrix(fresnel_as_symplectic_source(fresnel), grid, cfg, extent)


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
    axes with a radial raised-cosine taper.
    """
    mu = _quad_nodes(cfg)[0]
    return _wigner(_table_from_source(source, mu, cfg, extent, radial=True), grid_q, grid_p)


SourceNd = Callable[..., np.ndarray]


def reconstruct_density_matrix_nd(
    source: SourceNd,
    grids: Sequence[UniformGrid1D],
    cfg: InversionConfig = InversionConfig(),
    extents: Sequence[tuple[float, float]] | None = None,
) -> DensityMatrixNd:
    """Product-kernel density-matrix inversion for N-axis tomogram sources.

    N=1 delegates to the 1D path; N=2 runs the full 4-fold quadrature
    rho(X1, X2, X1', X2') = (1/2pi)^2 Int w(Y1, Y2, mu1, mu2, nu1, nu2)
    * prod_k exp(i*(Y_k - mu_k*(X_k + X_k')/2)) with nu_k = X_k - X_k'.
    `source(X1, X2, mu1, mu2, nu1, nu2)` must broadcast. The cost is one
    source call per (nu1, nu2) pair on the m^2 k^2 block of (mu, u) nodes;
    column weights are computed once per |nu_k| and shared across +-nu_k.
    N >= 3 is not supported (separable states factor into 1D instead).
    """
    grids = tuple(grids)
    n_axes = len(grids)
    if extents is None:
        extents = [(4.0, 4.0)] * n_axes
    if n_axes == 1:
        dm = reconstruct_density_matrix(source, grids[0], cfg, extents[0])
        return DensityMatrixNd((grids[0],), dm.values, dm.asymmetry)
    if n_axes != 2:
        raise UnsupportedSizeError(f"general reconstruction supports N<=2, got {n_axes}")
    mu, wmu, u = _quad_nodes(cfg)
    wmu = wmu * raised_cosine_taper(mu, cfg.mu_window, cfg.taper_fraction)
    m, k = mu.size, u.size
    axes = []  # per axis, per signed nu = d*step: (nu, Y, E, P, i, j)
    for g, extent in zip(grids, extents):
        ds = range(-(g.count - 1), g.count)
        terms = [None] * len(ds)
        for ns, Y, E in _columns([d * g.step for d in ds], mu, u, extent):
            for n in ns:
                d = ds[n]
                i = np.arange(max(0, d), g.count + min(0, d))  # pairs (i, j): x_i - x_j = nu
                P = np.exp(-1j * np.outer(0.5 * (g.points[i] + g.points[i - d]), mu)) * wmu
                terms[n] = (d * g.step, Y, E, P, i, i - d)
        axes.append(terms)
    raw = np.zeros(tuple(g.count for g in grids) * 2, dtype=np.complex128)
    for nu1, Y1, E1, P1, i1, j1 in axes[0]:
        E1ri = E1.view(np.float64).reshape(m, k, 2).transpose(0, 2, 1)  # [Re E1; Im E1], a view
        for nu2, Y2, E2, P2, i2, j2 in axes[1]:
            w4 = source(Y1[:, :, None, None], Y2[None, None, :, :],
                        mu[:, None, None, None], mu[None, None, :, None], nu1, nu2)
            # C2[a, b] = Sum_kl w4[a, k, b, l] E1[a, k] E2[b, l]: the k sum as one
            # real batched GEMM over the source block, then the l sum on its result
            U = np.matmul(E1ri, w4.reshape(m, k, m * k))
            C2 = np.einsum("abl,bl->ab", (U[:, 0] + 1j * U[:, 1]).reshape(m, m, k), E2)
            block = (P1 @ C2 @ P2.T) / (2.0 * np.pi) ** 2
            raw[i1[:, None], i2[None, :], j1[:, None], j2[None, :]] = block
    return DensityMatrixNd.from_raw(grids, raw)
