"""Inversion pipeline tests: autocorrelation slice, kernel quadratures, plane sweeps.

Oracle values come from the closed-form model state and from the slow
direct-quadrature oracles in the analytic module. Quadrature tolerances were
measured with margin before being frozen; none are aspirational.
"""
import math
import random
import tracemalloc
import warnings
import weakref
from functools import partial

import numpy as np
import pytest

from wavetomo import reconstruct
from wavetomo.analytic import (
    GcfParams,
    analytic_plane_set,
    fock1_tomogram,
    gaussian2_tomogram,
    gcf_fresnel_analytic,
    gcf_psi,
    gcf_sampled,
    gcf_tomogram_analytic,
    gcf_wigner_analytic,
    wigner_direct,
)
from wavetomo.errors import (
    DomainLookupError,
    MissingAnchorError,
    NodeAtOriginError,
    UnsupportedSizeError,
)
from wavetomo.grid import SampledWavefunction, UniformGrid1D, trapezoid_weights
from wavetomo.oracles import _psi_slice
from wavetomo.reconstruct import (
    DensityMatrix,
    DensityMatrixNd,
    InversionConfig,
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
    _BLOCK_BYTES,
    _column_weights,
    _pair_nus,
    _quad_nodes,
    _sample_count,
    _windows,
)
from wavetomo.tomography import (
    _ALIAS_A,
    MAX_X_COUNT,
    FresnelTomogram,
    TomogramPlane,
    plane_grids_for_slice,
    symplectic_tomogram_plane,
    wavefunction_moments,
)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# domain types


def test_density_matrix_rejects_non_hermitian():
    g = UniformGrid1D.symmetric(1.0, 3)
    bad = np.array([[1.0, 0.5j, 0.0], [0.5j, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        DensityMatrix(g, bad)


def test_density_matrix_from_raw_symmetrizes_and_reports():
    g = UniformGrid1D.symmetric(1.0, 2)
    raw = np.array([[1.0, 0.2 + 1e-5j], [0.2 - 3e-5j, 1.0]])
    dm = DensityMatrix.from_raw(g, raw)
    assert dm.asymmetry == pytest.approx(2e-5, rel=1e-9)
    assert np.max(np.abs(dm.values - dm.values.conj().T)) == 0.0
    assert dm.trace_times_step == pytest.approx(2.0 * g.step)


def test_wigner_function_shape_checked():
    g = UniformGrid1D.symmetric(1.0, 3)
    with pytest.raises(ValueError):
        WignerFunction(g, g, np.zeros((3, 4)))


def test_inversion_config_validation():
    with pytest.raises(ValueError):
        InversionConfig(mu_window=0.0)
    with pytest.raises(ValueError):
        InversionConfig(taper_fraction=1.0)
    with pytest.raises(ValueError):
        InversionConfig(taper_fraction=-0.1)
    with pytest.raises(ValueError):
        InversionConfig(samples_per_axis=127)
    with pytest.raises(ValueError):
        InversionConfig(samples_per_axis=6)


def test_raised_cosine_taper_profile():
    x = np.array([0.0, 7.9, 8.01, 9.5, 10.0, 10.5])
    t = raised_cosine_taper(x, 10.0, 0.2)
    assert t[0] == 1.0 and t[1] == 1.0  # flat inner 80%
    assert 0.0 < t[3] < t[2] <= 1.0
    assert t[4] == pytest.approx(0.0, abs=1e-15)
    assert t[5] == 0.0
    assert np.array_equal(
        raised_cosine_taper(x, 10.0, 0.0), np.where(np.abs(x) <= 10.0, 1.0, 0.0)
    )


# ---------------------------------------------------------------------------
# autocorrelation slice: the plane transform at (1, -nu/2) is psi(nu) conj(psi(0));
# the chirped slice is the autocorrelation-slice row of wavetomo.oracles


def test_psi_slice_anchor_plane():
    # the characteristic table's nu = 0 row; narrow near-zero-mu columns need the fine X step
    ac = _psi_slice(GcfParams(1.0, 0.0), 0.5, UniformGrid1D.symmetric(40.0, 4801))
    assert ac[1] == pytest.approx(SQRT_2_OVER_PI, abs=1e-6)


def test_under_resolved_plane_column_warns():
    # the autocorrelation-slice row's planes: at 1601 X points on +-40 the nu = 0
    # plane's mu = +-0.05 columns span 0.46 X steps; at 3201 points, one step
    gx = UniformGrid1D.symmetric(40.0, 1601)
    with pytest.warns(RuntimeWarning, match=r"plane nu=0: the column at mu=-0.05 has "
                                            r"an X std of 0\.46 X steps; 1 of 3 planes"):
        _psi_slice(GcfParams(1.0, 1.0), 0.5, gx)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _psi_slice(GcfParams(1.0, 1.0), 0.5, UniformGrid1D.symmetric(40.0, 3201))


# ---------------------------------------------------------------------------
# reconstruct_psi


def _rel_l2_up_to_phase(got: np.ndarray, want: np.ndarray) -> float:
    inner = np.vdot(want, got)
    aligned = got * np.exp(-1j * np.angle(inner))
    return float(
        np.sqrt(np.sum(np.abs(aligned - want) ** 2) / np.sum(np.abs(want) ** 2))
    )


def test_reconstruct_psi_chirped_end_to_end():
    p = GcfParams(1.0, 2.0)
    planes = analytic_plane_set(p, list(np.linspace(-4.0, 4.0, 257)))
    rec = reconstruct_psi(planes)
    true = gcf_psi(p, rec.psi.grid.points)
    assert _rel_l2_up_to_phase(rec.psi.values, true) <= 1e-3
    assert rec.anchor == pytest.approx(SQRT_2_OVER_PI, abs=1e-3)
    # the nu=0 slice is |psi(0)|^2: real nonnegative
    assert abs(rec.anchor_imag) <= 1e-8
    assert rec.prenorm_l2 == pytest.approx(1.0, abs=1e-2)


def test_reconstruct_psi_error_paths():
    p = GcfParams(1.0, 0.0)
    with pytest.raises(MissingAnchorError):
        reconstruct_psi(analytic_plane_set(p, [-0.5, 0.5]))
    with pytest.raises(MissingAnchorError):
        reconstruct_psi(analytic_plane_set(p, [0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="symmetric about zero"):
        reconstruct_psi(analytic_plane_set(p, [-0.4, 0.0, 0.1]))  # non-uniform and asymmetric
    with pytest.raises(ValueError, match="symmetric about zero"):
        reconstruct_psi(analytic_plane_set(p, [-0.1, 0.0, 0.1, 0.2]))  # asymmetric
    with pytest.raises(ValueError, match="plane nu values must form a uniform grid"):
        reconstruct_psi(analytic_plane_set(p, [-1.0, -0.5, 0.0, 0.25, 1.0]))  # symmetric, non-uniform


def test_plane_readouts_anchor_on_a_plane_within_eps_nu():
    # the forward maps read |nu| <= EPS_NU as the flat plane, and the sweep checks allow
    # 1e-9; psi and rho anchor on such a plane as on nu = 0 itself
    p = GcfParams(1.0, 1.0)
    exact = np.round(np.linspace(-1.0, 1.0, 21), 12)
    near = exact.copy()
    near[10] = 5e-10
    want, got = (reconstruct_psi(analytic_plane_set(p, list(nus))).psi for nus in (exact, near))
    assert got.grid == want.grid
    assert np.max(np.abs(got.values - want.values)) <= 1e-15  # 2.3e-18
    rho = density_matrix_from_planes(analytic_plane_set(p, list(near)))
    psi = gcf_psi(p, rho.grid.points)
    assert np.max(np.abs(rho.values - np.outer(psi, psi.conj()))) <= 3e-5  # 1.1e-5
    near[10] = 2e-8  # past EPS_NU: no anchor
    with pytest.raises(MissingAnchorError, match=r"\|nu\| <= 1e-08"):
        reconstruct_psi(analytic_plane_set(p, list(near)))


def test_reconstruct_psi_vanishing_anchor_raises():
    # any state with psi(0) = 0 lands here; zero planes pin the branch exactly
    g = UniformGrid1D.symmetric(4.0, 33)
    gm = UniformGrid1D.symmetric(4.0, 32)
    planes = [
        TomogramPlane(nu, g, gm, np.zeros((33, 32))) for nu in (-0.25, 0.0, 0.25)
    ]
    with pytest.raises(NodeAtOriginError):
        reconstruct_psi(planes)


def test_reconstruct_psi_excited_state_raises():
    # first oscillator excited state, psi(0) = 0: quadrature noise leaves
    # rho(0,0) at ~3e-4 of the largest diagonal value, which must not pass
    # for an anchor; planes come from the same grid policy the CLI uses
    g = UniformGrid1D.symmetric(8.0, 1025)
    psi = SampledWavefunction.normalized(g, g.points * np.exp(-(g.points**2) / 2.0))
    moments = wavefunction_moments(psi)
    planes = [
        symplectic_tomogram_plane(psi, *plane_grids_for_slice(nu, moments), nu)
        for nu in np.linspace(-3.0, 3.0, 61)
    ]
    with pytest.raises(NodeAtOriginError):
        reconstruct_psi(planes)


def test_psi_autocorrelation_is_rho_column():
    # psi and rho read the same table: the autocorrelation is the raw x' = 0
    # column, which symmetrization moves by at most half the asymmetry
    for a in (0.0, 1.0):
        planes = analytic_plane_set(GcfParams(1.0, a), list(np.linspace(-3.0, 3.0, 61)))
        rec = reconstruct_psi(planes)
        auto, g = rec.autocorrelation, rec.psi.grid
        assert auto.shape == (g.count,)
        dm = density_matrix_from_planes(planes)
        k = np.rint((dm.grid.points - g.start) / g.step).astype(int)
        c = int(np.argmin(np.abs(dm.grid.points)))
        assert dm.grid.points[c] == 0.0
        dev = np.max(np.abs(auto[k] - dm.values[:, c]))
        assert dev <= 0.5 * dm.asymmetry + 1e-12


def test_odd_state_anchor_vanishes():
    # first excited Hermite-Gauss: its tomogram has the same Gaussian width
    # as the ground state but profile (2/sqrt(pi)) X^2/omega^3 exp(-X^2/omega^2),
    # and psi(0) = 0 makes the anchor slice vanish identically
    def omega(mu, nu):
        return np.sqrt((4.0 * nu**2 + (np.asarray(mu, dtype=float)) ** 2) / 2.0)

    gx = UniformGrid1D.symmetric(48.0, 5761)
    gmu = UniformGrid1D(-13.05, 0.1, 262)
    X = gx.points[:, None]
    planes = []
    for nu in (-0.5, 0.0, 0.5):
        om = omega(gmu.points[None, :], nu)
        vals = (2.0 / math.sqrt(math.pi)) * X**2 / om**3 * np.exp(-(X**2) / om**2)
        planes.append(TomogramPlane(nu, gx, gmu, vals))
    # rho(0, 0), read from the characteristic table's nu = 0 row
    dm = density_matrix_from_planes(planes, InversionConfig(taper_fraction=0.0))
    assert dm.grid.point(1) == 0.0
    assert abs(dm.values[1, 1]) <= 1e-6


# ---------------------------------------------------------------------------
# kernel-quadrature density matrix


@pytest.fixture(scope="module")
def rho_gaussian():
    grid = UniformGrid1D.symmetric(2.0, 33)
    rho = reconstruct_density_matrix(partial(gcf_tomogram_analytic, GcfParams(1.0, 0.0)), grid)
    return grid, rho


def test_density_matrix_vs_outer_product(rho_gaussian):
    grid, rho = rho_gaussian
    psi = gcf_psi(GcfParams(1.0, 0.0), grid.points)
    assert np.max(np.abs(rho.values - np.outer(psi, psi.conj()))) <= 5e-3
    assert np.max(np.abs(np.diagonal(rho.values) - np.abs(psi) ** 2)) <= 5e-3
    assert rho.asymmetry <= 1e-3
    assert rho.trace_times_step == pytest.approx(1.0, abs=1e-2)


def test_density_matrix_window_doubling_regression(rho_gaussian):
    grid, rho40 = rho_gaussian
    rho20 = reconstruct_density_matrix(
        partial(gcf_tomogram_analytic, GcfParams(1.0, 0.0)), grid, InversionConfig(mu_window=20.0)
    )
    assert np.max(np.abs(rho40.values - rho20.values)) < 5e-3


def test_density_matrix_zero_source():
    grid = UniformGrid1D.symmetric(1.0, 9)
    rho = reconstruct_density_matrix(
        lambda X, mu, nu: np.zeros(np.broadcast_shapes(np.shape(X), np.shape(mu))),
        grid,
    )
    assert np.max(np.abs(rho.values)) == 0.0
    assert rho.asymmetry == 0.0


def test_fresnel_path_equivalence(rho_gaussian):
    grid, rho = rho_gaussian
    p = GcfParams(1.0, 0.0)
    fresnel = fresnel_as_symplectic_source(lambda X, nu: gcf_tomogram_analytic(p, X, 1.0, nu))
    rho_f = reconstruct_density_matrix(fresnel, grid)
    assert np.max(np.abs(rho_f.values - rho.values)) <= 1e-6
    assert rho_f.trace_times_step == pytest.approx(1.0, abs=1e-2)


def test_fresnel_grid_backed_source_domain_error():
    # sampled Fresnel map too small for the rescaled lookups nu/mu
    g = UniformGrid1D.symmetric(2.0, 33)
    gn = UniformGrid1D.symmetric(0.5, 9)
    X, NU = np.meshgrid(g.points, gn.points, indexing="ij")
    wf = FresnelTomogram(g, gn, gcf_tomogram_analytic(GcfParams(1.0, 0.0), X, 1.0, NU))
    with pytest.raises(DomainLookupError):
        reconstruct_density_matrix_fresnel(wf, UniformGrid1D.symmetric(2.0, 17))


def test_fresnel_map_refuses_a_narrow_x_window():
    # the lib-inversion benchmark's map narrowed to X' +-3 cuts its wide columns (edge/peak
    # 0.74 at nu' = -3.2), and inverted anyway gives rho 9.2e-2 off; +-12 (edge/peak 7e-3) is fine
    p, g9 = GcfParams(1.0, 0.5), UniformGrid1D.symmetric(1.0, 9)
    cfg, gn = InversionConfig(samples_per_axis=64), UniformGrid1D.symmetric(3.2, 281)
    with pytest.raises(DomainLookupError, match="cuts the Fresnel column") as err:
        reconstruct_density_matrix_fresnel(
            gcf_fresnel_analytic(p, UniformGrid1D.symmetric(3.0, 229), gn), g9, cfg)
    assert err.value.point == (-3.2,)  # the first column cut
    rho = reconstruct_density_matrix_fresnel(
        gcf_fresnel_analytic(p, UniformGrid1D.symmetric(12.0, 915), gn), g9, cfg)
    psi = gcf_psi(p, g9.points)
    assert np.max(np.abs(rho.values - np.outer(psi, psi.conj()))) <= 3e-4


def test_fresnel_map_refuses_a_ray_outside_its_nu_range():
    # rho on 9 points over +-1 pairs offsets up to |nu| = 2, whose rays nu/mu reach
    # 2/0.63 = 3.2 at the smallest mu node; a map over nu' +-1.6 lacks the outer ones
    p, g9 = GcfParams(1.0, 0.5), UniformGrid1D.symmetric(1.0, 9)
    cfg = InversionConfig(samples_per_axis=64)
    wf = gcf_fresnel_analytic(
        p, UniformGrid1D.symmetric(12.0, 915), UniformGrid1D.symmetric(1.6, 141))
    with pytest.raises(DomainLookupError, match="outside the Fresnel map's nu' range") as err:
        reconstruct_density_matrix_fresnel(wf, g9, cfg)
    # the first: row nu = -2 at the widest negative mu node whose ray passes 1.6
    mu = _quad_nodes(cfg)[0]
    assert err.value.point == pytest.approx((2.0 / np.max(np.abs(mu[np.abs(mu) < 1.25])),))


def test_fresnel_rows_equal_interpolation_over_every_column():
    # the GEMMs run only over the nu' columns that bracket some ray nu/mu (67 of 281
    # here, in 17 runs of adjacent ones); each row must still read the same two knots
    # as over the whole map, and rho differ from the whole map's by rounding alone
    cfg, gn = InversionConfig(samples_per_axis=64), UniformGrid1D.symmetric(3.2, 281)
    wf = gcf_fresnel_analytic(GcfParams(1.0, 0.5), UniformGrid1D.symmetric(12.0, 915), gn)
    g9 = UniformGrid1D.symmetric(0.5, 9)
    nus = _pair_nus(g9)
    got = np.array([row.c for row in reconstruct._table_from_fresnel(wf, nus, cfg)])
    mu, wmu = _quad_nodes(cfg)
    gx = wf.grid_x
    F = np.exp(1j * np.outer(mu, gx.points)) * trapezoid_weights(gx.count, gx.step) @ wf.values
    C = np.stack([np.interp(nus / m, gn.points, Fm) for m, Fm in zip(mu, F)], axis=1)
    want = C * wmu * raised_cosine_taper(mu, cfg.mu_window, cfg.taper_fraction)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.max(np.abs(want)) > 0.1
    rows = [reconstruct._Row((nu,), w, mu, c)
            for nu, w, c in zip(nus, trapezoid_weights(nus.size, g9.step), want)]
    rho = DensityMatrix.from_raw(g9, reconstruct._rho_on_pairs(rows, (g9,))).values
    got_rho = reconstruct_density_matrix_fresnel(wf, g9, cfg).values
    assert np.max(np.abs(got_rho - rho)) <= 1e-15 * np.max(np.abs(rho))


def test_fresnel_map_refuses_an_aliasing_x_step():
    # on X' step h the trapezoid sum adds F(mu - 2pi/h): step 0.2 against mu_window 40
    # would give rho 1.5 off; step 0.05, under pi/40, gives 1.5e-4
    p, g5 = GcfParams(1.0, 0.0), UniformGrid1D.symmetric(0.5, 5)
    cfg, gn = InversionConfig(samples_per_axis=64), UniformGrid1D.symmetric(1.6, 141)
    with pytest.raises(ValueError, match="aliases the mu window"):
        reconstruct_density_matrix_fresnel(
            gcf_fresnel_analytic(p, UniformGrid1D.symmetric(8.0, 81), gn), g5, cfg)
    rho = reconstruct_density_matrix_fresnel(
        gcf_fresnel_analytic(p, UniformGrid1D.symmetric(8.0, 321), gn), g5, cfg)
    psi = gcf_psi(p, g5.points)
    assert np.max(np.abs(rho.values - np.outer(psi, psi.conj()))) <= 3e-4


# ---------------------------------------------------------------------------
# Wigner inversion


def test_wigner_peak_and_residue():
    g = UniformGrid1D.symmetric(3.0, 25)
    W = reconstruct_wigner(partial(gcf_tomogram_analytic, GcfParams(math.sqrt(2.0), 0.0)), g, g)
    assert W.values[12, 12] == pytest.approx(1.0 / math.pi, abs=5e-3)
    assert W.imag_residue <= 1e-6


def test_wigner_grid_vs_direct_oracle():
    p = GcfParams(1.0, 1.0)
    gq = UniformGrid1D.symmetric(3.0, 25)
    gp = UniformGrid1D.symmetric(5.0, 41)
    W = reconstruct_wigner(partial(gcf_tomogram_analytic, p), gq, gp)
    psi = gcf_sampled(p)
    direct = np.array(
        [[wigner_direct(psi, q, pm) for pm in gp.points] for q in gq.points]
    )
    assert np.max(np.abs(W.values - direct)) <= 1e-2
    marg = W.marginal_q()
    assert np.max(np.abs(marg - np.abs(gcf_psi(p, gq.points)) ** 2)) <= 1e-2


# ---------------------------------------------------------------------------
# N-axis reconstruction


def _product_source(p):
    def source(X1, X2, mu1, mu2, nu1, nu2):
        return gcf_tomogram_analytic(p, X1, mu1, nu1) * gcf_tomogram_analytic(
            p, X2, mu2, nu2
        )

    return source


SMALL_CFG = InversionConfig(mu_window=12.0, taper_fraction=0.2, samples_per_axis=32)


def test_nd_n1_delegates_to_1d():
    p = GcfParams(1.0, 0.0)
    g = UniformGrid1D.symmetric(1.0, 5)
    nd = reconstruct_density_matrix_nd(partial(gcf_tomogram_analytic, p), (g,), SMALL_CFG)
    d1 = reconstruct_density_matrix(partial(gcf_tomogram_analytic, p), g, SMALL_CFG)
    assert np.array_equal(nd.values, d1.values)


def test_nd_separable_equals_tensor_product():
    p = GcfParams(1.0, 0.0)
    g = UniformGrid1D.symmetric(1.0, 5)
    rho2 = reconstruct_density_matrix_nd(_product_source(p), (g, g), SMALL_CFG)
    rho1 = reconstruct_density_matrix(partial(gcf_tomogram_analytic, p), g, SMALL_CFG)
    tensor = np.einsum("ik,jl->ijkl", rho1.values, rho1.values)
    assert np.max(np.abs(rho2.values - tensor)) <= 1e-4
    assert rho2.asymmetry <= 1e-3


def test_nd_zero_source_and_unsupported_size():
    g = UniformGrid1D.symmetric(1.0, 5)

    def zero6(X1, X2, mu1, mu2, nu1, nu2):
        return np.zeros(np.broadcast_shapes(np.shape(X1), np.shape(X2)))

    z = reconstruct_density_matrix_nd(zero6, (g, g), SMALL_CFG)
    assert np.max(np.abs(z.values)) == 0.0
    with pytest.raises(UnsupportedSizeError):
        reconstruct_density_matrix_nd(zero6, (g, g, g), SMALL_CFG)


ENTANGLED_A = np.array([[1.0, 0.6], [0.6, 1.5]])


def _trapezoid_columns(m, u, mu, nu):
    # the abscissas Y = mu<q> + nu<p> + _ALIAS_A sd u of each column (mu, nu), sd^2 =
    # mu^2 var_q + 2|mu nu||cov| + nu^2 var_p, and their trapezoid weights times e^{iY}
    sd = np.sqrt(mu**2 * m.var_q + 2.0 * np.abs(mu * nu * m.cov) + nu**2 * m.var_p)
    Y = (mu * m.mean_q + nu * m.mean_p)[:, None] + _ALIAS_A * np.outer(sd, u)
    steps = _ALIAS_A * sd * (u[1] - u[0])
    return Y, np.array([trapezoid_weights(u.size, h) for h in steps]) * np.exp(1j * Y)


def _four_fold_reference(source, grids, cfg):
    # the per-(nu1, nu2) loop with one 4-index einsum that the batched
    # contraction replaced; kept as the reference it must reproduce
    mu, wmu = _quad_nodes(cfg)
    wmu = wmu * raised_cosine_taper(mu, cfg.mu_window, cfg.taper_fraction)
    (m1, m2), u, _ = _windows(source, [_pair_nus(g) for g in grids], cfg, radial=False)
    g1, g2 = grids
    n1, n2 = g1.count, g2.count
    raw = np.zeros((n1, n2, n1, n2), dtype=np.complex128)
    for d1 in range(-(n1 - 1), n1):
        nu1 = d1 * g1.step
        Y1, E1 = _trapezoid_columns(m1, u, mu, nu1)
        i1 = np.arange(max(0, d1), n1 + min(0, d1))
        j1 = i1 - d1
        P1 = np.exp(-1j * np.outer(0.5 * (g1.points[i1] + g1.points[j1]), mu)) * wmu
        for d2 in range(-(n2 - 1), n2):
            nu2 = d2 * g2.step
            Y2, E2 = _trapezoid_columns(m2, u, mu, nu2)
            w4 = source(Y1[:, :, None, None], Y2[None, None, :, :],
                        mu[:, None, None, None], mu[None, None, :, None], nu1, nu2)
            C2 = np.einsum("akbl,ak,bl->ab", w4, E1, E2, optimize=True)
            i2 = np.arange(max(0, d2), n2 + min(0, d2))
            j2 = i2 - d2
            P2 = np.exp(-1j * np.outer(0.5 * (g2.points[i2] + g2.points[j2]), mu)) * wmu
            raw[i1[:, None], i2[None, :], j1[:, None], j2[None, :]] = (
                P1 @ C2 @ P2.T / (2.0 * np.pi) ** 2)
    return DensityMatrixNd.from_raw(grids, raw).values


@pytest.mark.parametrize("counts", [(3, 3), (3, 4)], ids=["equal", "unequal"])
def test_nd_contraction_matches_four_fold_sum(counts):
    # entangled source, unequal axes: an axis swap anywhere in the contraction
    # changes the result far beyond the tolerance; unequal counts also give
    # the two axes different pair blocks. Displaced, so C(mu, nu) is complex
    # and the mirrored rows must be conjugated
    def source(X1, X2, mu1, mu2, nu1, nu2):
        return gaussian2_tomogram(ENTANGLED_A, X1 - 0.3 * mu1 - 0.2 * nu1,
                                  X2 + 0.25 * mu2 - 0.1 * nu2, mu1, mu2, nu1, nu2)

    grids = (UniformGrid1D.symmetric(1.0, counts[0]), UniformGrid1D.symmetric(0.6, counts[1]))
    cfg = InversionConfig(mu_window=12.0, samples_per_axis=16)
    got = reconstruct_density_matrix_nd(source, grids, cfg).values
    want = _four_fold_reference(source, grids, cfg)
    assert np.max(np.abs(got - want)) <= 1e-13
    assert np.max(np.abs(want)) > 0.05


# ---------------------------------------------------------------------------
# work counts of the source-callable builders


@pytest.mark.parametrize("cfg", [InversionConfig(), SMALL_CFG], ids=["default", "small"])
def test_quad_nodes_are_mirror_images(cfg):
    # rows at +-nu then see bitwise equal column scales and share their weights,
    # and the row at -nu is the conjugate mirror of the row at +nu
    mu, _ = _quad_nodes(cfg)
    u = _windows(partial(gcf_tomogram_analytic, GcfParams(1.0, 0.5)), [mu], cfg, radial=True)[1]
    assert np.array_equal(mu[::-1], -mu)
    assert np.array_equal(u[::-1], -u)
    for g in (UniformGrid1D.symmetric(1.0, 7), UniformGrid1D.symmetric(0.6, 4),
              UniformGrid1D(-0.3, 0.1, 33)):
        nus = _pair_nus(g)
        assert np.array_equal(nus[::-1], -nus)


def _counted(source):
    calls, probes = [], []  # (nu, values returned) per row call and per probe call

    def counted(*args):
        out = source(*args)
        n = len(args) // 3
        # a probe passes scalar mu = 1; a row passes arrays of mu nodes
        probe = all(np.ndim(mu) == 0 for mu in args[n : 2 * n])
        (probes if probe else calls).append((tuple(float(v) for v in args[2 * n :]), out.size))
        return out

    return counted, calls, probes


def _values_per_row(calls):
    rows = {}
    for nu, size in calls:
        rows[nu] = rows.get(nu, 0) + size
    return rows


def _x_count(source, grids, cfg):
    return _windows(source, [_pair_nus(g) for g in grids], cfg, radial=False)[1].size


def test_source_called_once_per_mirror_pair_of_rows():
    # only rows with nu lexicographically >= 0 call the source, and the calls
    # of one row cover its nodes of nonzero taper weight once: not the
    # +-mu_window end nodes, nor (radial taper) those with hypot(mu, nu) >= mu_window
    # (the probes, at mu = 1 and nu = 0, +-1, are counted apart: every axis on the
    # ray at nu = 0, +1 or -1 at once, one call or more each as their X grids grow)
    src, calls, probes = _counted(partial(gcf_tomogram_analytic, GcfParams(1.0, 0.5)))
    g7 = UniformGrid1D.symmetric(1.0, 7)
    reconstruct_density_matrix(src, g7, SMALL_CFG)
    assert len(calls) == 7  # n of the 2n - 1 rows
    m, k = SMALL_CFG.samples_per_axis, _x_count(src, [g7], SMALL_CFG)
    assert set(_values_per_row(calls).values()) == {(m - 2) * k}
    assert set(_values_per_row(probes)) == {(-1.0,), (0.0,), (1.0,)}
    g = UniformGrid1D.symmetric(1.0, 5)
    calls.clear()
    reconstruct_wigner(src, g, g, SMALL_CFG)
    mu = _quad_nodes(SMALL_CFG)[0]  # the nu rows are the mu nodes
    k = _windows(src, [mu], SMALL_CFG, radial=True)[1].size
    inside = {(nu,): k * int(np.sum(np.hypot(mu, nu) < SMALL_CFG.mu_window))
              for nu in mu[mu.size // 2 : -1].tolist()}  # the last node has no weight
    assert _values_per_row(calls) == inside and len(calls) == m // 2 - 1
    src, calls, probes = _counted(_product_source(GcfParams(1.0, 0.5)))
    grids = (UniformGrid1D.symmetric(1.0, 3), UniformGrid1D.symmetric(1.0, 4))
    reconstruct_density_matrix_nd(src, grids, SMALL_CFG)
    rows = _values_per_row(calls)
    assert len(rows) == (5 * 7 + 1) // 2 and min(rows) == (0.0, 0.0)
    k = _x_count(src, grids, SMALL_CFG)
    assert set(rows.values()) == {((m - 2) * k) ** 2}  # ((m - 2) k)^2 nodes
    assert set(_values_per_row(probes)) == {(0.0, 0.0), (1.0, 1.0), (-1.0, -1.0)}


@pytest.mark.parametrize("n_axes", [1, 2])
def test_windows_probe_three_ray_sets_for_any_n(monkeypatch, n_axes):
    calls, probe = [], reconstruct._probe

    def counted(source, n, nu):
        calls.append((n, nu))
        return probe(source, n, nu)

    monkeypatch.setattr(reconstruct, "_probe", counted)
    src = (partial(gcf_tomogram_analytic, GcfParams(1.0, 0.5)) if n_axes == 1
           else _product_source(GcfParams(1.0, 0.5)))
    _x_count(src, (UniformGrid1D.symmetric(1.0, 3),) * n_axes, SMALL_CFG)
    assert calls == [(n_axes, 0.0), (n_axes, 1.0), (n_axes, -1.0)]


@pytest.mark.parametrize("n_axes", [1, 2])
def test_probe_calls_its_source_on_node_blocks(monkeypatch, n_axes):
    # a narrow state grows the probe's X grid to 2049 points, where a 2-axis grid takes
    # several calls; each call is one block of _node_blocks over the grid's X nodes, and
    # for N <= 2 a block is whole rows of axis 0, _BLOCK_BYTES // 8 // count^(N - 1) of them
    base = (partial(gcf_tomogram_analytic, GcfParams(0.1, 0.0)) if n_axes == 1
            else _product_source(GcfParams(0.1, 0.0)))
    blocks, calls, node_blocks = [], [], reconstruct._node_blocks

    def recorded(spans, k):
        blocks.append((spans, k, node_blocks(spans, k)))
        return blocks[-1][2]

    def source(*args):
        calls.append([np.ravel(X) for X in args[:n_axes]])
        return base(*args)

    monkeypatch.setattr(reconstruct, "_node_blocks", recorded)
    reconstruct._probe(source, n_axes, 0.0)
    want = []
    for spans, k, out in blocks:
        count = len(spans[0])
        assert spans == [range(count)] * n_axes and k == 1
        rows = max(1, _BLOCK_BYTES // 8 // count ** (n_axes - 1))
        assert out == [(slice(s, min(s + rows, count)),) + (slice(0, count),) * (n_axes - 1)
                       for s in range(0, count, rows)]
        half = -calls[len(want)][0][0]  # a grid's first block starts at its left end
        x = np.linspace(-half, half, count)
        want += [[x[s] for s in blk] for blk in out]
    assert len(calls) == len(want)
    assert all(np.array_equal(X, w) for c, b in zip(calls, want) for X, w in zip(c, b))
    assert max(len(spans[0]) for spans, _, _ in blocks) == 2049
    assert (len(calls) > len(blocks)) == (n_axes == 2)


def test_fresnel_lookup_builds_its_mu_blocks_on_node_blocks(monkeypatch):
    # lib-inversion's map, 3201 X' by 281 nu': the lookup's [cos; sin](mu X') takes
    # 2 * 3201 values a mu > 0 node, so _node_blocks cuts the 64 nodes into blocks of
    # 20; one block over all of them reads the same rho
    wf = gcf_fresnel_analytic(GcfParams(1.0, 0.5), UniformGrid1D.symmetric(42.0, 3201),
                              UniformGrid1D.symmetric(3.2, 281))
    g, cfg = UniformGrid1D.symmetric(0.5, 3), InversionConfig()
    blocks, node_blocks = [], reconstruct._node_blocks

    def recorded(spans, k):
        blocks.append((spans, k, node_blocks(spans, k)))
        return blocks[-1][2]

    monkeypatch.setattr(reconstruct, "_node_blocks", recorded)
    got = reconstruct_density_matrix_fresnel(wf, g, cfg)
    half, m = cfg.samples_per_axis // 2, cfg.samples_per_axis
    assert [(spans, k) for spans, k, _ in blocks] == [([range(half, m)], 2 * 3201)]
    out = blocks[0][2]
    assert [s.stop - s.start for (s,) in out] == [20, 20, 20, 4]
    assert [i for (s,) in out for i in range(s.start, s.stop)] == list(range(half, m))
    assert max((s.stop - s.start) * 2 * 3201 for (s,) in out) <= _BLOCK_BYTES // 8
    monkeypatch.setattr(reconstruct, "_BLOCK_BYTES", 1 << 30)
    whole = reconstruct_density_matrix_fresnel(wf, g, cfg)
    assert len(blocks[-1][2]) == 1
    assert np.max(np.abs(got.values - whole.values)) <= 1e-15


@pytest.mark.parametrize("shift", [(0.0, 0.0, 0.0, 0.0), (0.3, 0.2, -0.25, 0.1)],
                         ids=["centred", "displaced"])
def test_windows_moments_equal_the_per_axis_ray_probes(shift):
    # an axis's X marginal is its reduced state's, whatever the other axis's ray: the
    # moments from both axes on one ray equal those of each axis on its own rays with
    # the other held at (mu, nu) = (1, 0), and the reduced states' closed forms
    # (covariances A^-1/2 and A/2, means the shift). The probes on one ray widen their
    # X grid for either axis's marginal, so where they differ from the per-axis probes
    # by more than 1e-12 (the centred var_p of axis 0, 6.9e-12) they are the nearer
    # to the closed form
    q1, p1, q2, p2 = shift
    inv = np.linalg.inv(ENTANGLED_A)

    def source(X1, X2, mu1, mu2, nu1, nu2):
        return gaussian2_tomogram(ENTANGLED_A, X1 - q1 * mu1 - p1 * nu1,
                                  X2 - q2 * mu2 - p2 * nu2, mu1, mu2, nu1, nu2)

    grids = (UniformGrid1D.symmetric(1.0, 3), UniformGrid1D.symmetric(1.0, 4))
    got = _windows(source, [_pair_nus(g) for g in grids], SMALL_CFG, radial=False)[0]
    for a, m in enumerate(got):
        def held(X1, X2, mu1, mu2, nu1, nu2, a=a):
            return source(X1, X2, mu1 if a == 0 else 1.0, mu2 if a == 1 else 1.0,
                          nu1 if a == 0 else 0.0, nu2 if a == 1 else 0.0)

        (mq, vq), (mp, vp), (mm, vm) = (reconstruct._probe(held, 2, nu)[a]
                                        for nu in (0.0, 1.0, -1.0))
        want = (mq, (mp - mm) / 2, vq, (vp + vm) / 2 - vq, (vp - vm) / 4)
        have = (m.mean_q, m.mean_p, m.var_q, m.var_p, m.cov)
        exact = (shift[2 * a], shift[2 * a + 1], inv[a, a] / 2, ENTANGLED_A[a, a] / 2, 0.0)
        assert max(abs(h - e) for h, e in zip(have, exact)) <= 1e-12
        assert all(abs(h - w) <= 1e-12 or abs(h - e) < abs(w - e)
                   for h, w, e in zip(have, want, exact))


@pytest.mark.parametrize("n_axes, m", [(1, 128), (2, 32), (2, 64)])
def test_source_calls_stay_within_one_block(n_axes, m):
    # whatever the quadrature size, no call returns more than the forward
    # kernel's block, the probes' calls included; at m = 64 (and the k = 56 the
    # default mu window takes) one mu_1 node's (m - 2) k^2 values exceed it, so
    # the calls split the mu_2 nodes as well; the m - 2 nodes inside the window
    # ends are the ones with taper weight
    cfg = InversionConfig(samples_per_axis=m)
    grids = (UniformGrid1D.symmetric(1.0, 2),) * n_axes
    if n_axes == 1:
        src, calls, probes = _counted(partial(gcf_tomogram_analytic, GcfParams(1.0, 0.5)))
        reconstruct_density_matrix(src, grids[0], cfg)
    else:
        src, calls, probes = _counted(_product_source(GcfParams(1.0, 0.5)))
        reconstruct_density_matrix_nd(src, grids, cfg)
    assert probes and max(size for _, size in calls + probes) <= _BLOCK_BYTES // 8
    k = _x_count(src, grids, cfg)
    assert n_axes == 1 or ((m - 2) * k * k > _BLOCK_BYTES // 8) == (m == 64)
    assert set(_values_per_row(calls).values()) == {((m - 2) * k) ** n_axes}


def _traced_peak(call) -> int:
    call()  # a first call's lazy numpy imports stay resident; they are not working memory
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_two_mode_inversion_peak_memory_is_one_block():
    # one row at m = 64, k = 32 spans (m k)^2 = 4.2M values (34 MB); a row holds
    # one block and its m^2 c instead
    g = UniformGrid1D.symmetric(1.0, 2)
    cfg = InversionConfig(mu_window=12.0, samples_per_axis=64)
    source = _product_source(GcfParams(1.0, 0.5))
    assert _traced_peak(lambda: reconstruct_density_matrix_nd(source, (g, g), cfg)) < 4 * 2**20


def test_fresnel_inversion_peak_memory_is_two_blocks():
    # lib-inversion's map, 3201 X' by 281 nu': 7.2 MB, read through one view; the
    # [cos; sin](mu X') matrix is built for blocks of mu nodes of at most _BLOCK_BYTES
    # (whole, it is 1.6 MB at these 64 samples and 3.3 MB at the default 128)
    wf = gcf_fresnel_analytic(GcfParams(1.0, 0.5), UniformGrid1D.symmetric(42.0, 3201),
                              UniformGrid1D.symmetric(3.2, 281))
    for g, cfg in ((UniformGrid1D.symmetric(1.0, 9), InversionConfig(samples_per_axis=64)),
                   (UniformGrid1D.symmetric(0.5, 3), InversionConfig())):
        peak = _traced_peak(lambda: reconstruct_density_matrix_fresnel(wf, g, cfg))
        assert peak < 2 * _BLOCK_BYTES


def test_plane_table_holds_no_complex_copy_of_a_plane():
    # the reference sweep (sigma = 1, alpha = 1, 61 planes over nu = +-3): one real
    # matmul per plane gives C and its column moments; a complex copy of the largest
    # plane, 445 x 46, would take 328 KB on its own
    psi = gcf_sampled(GcfParams(1.0, 1.0))
    m = wavefunction_moments(psi)
    planes = [symplectic_tomogram_plane(psi, *plane_grids_for_slice(nu, m), nu)
              for nu in np.linspace(-3.0, 3.0, 61).tolist()]
    assert max(pl.values.size for pl in planes) == 445 * 46
    table = partial(reconstruct._table_from_planes, planes, 0.2, reconstruct._sweep)
    assert _traced_peak(table) <= 150_000


def _full_rows(source, nus, cfg, radial):
    # every row of the one-axis table from the source, with column weights
    # computed at every mu node: the reference the mirrored half table must reproduce
    mu, wmu = _quad_nodes(cfg)
    (m,), u, _ = _windows(source, [nus], cfg, radial)
    rows = []
    for nu in nus:
        Y, E = _trapezoid_columns(m, u, mu, nu)
        taper = raised_cosine_taper(np.hypot(mu, nu) if radial else mu, cfg.mu_window,
                                    cfg.taper_fraction)
        rows.append(np.sum(E * source(Y, mu[:, None], nu), axis=1) * wmu * taper)
    return mu, np.array(rows)


def test_half_table_matches_every_row_from_the_source():
    # the state displaced to (q, p) = (0.4, -0.3): a centred one has real C(mu, nu),
    # which would hide a mirror row that is not conjugated
    p, cfg = GcfParams(0.9, 0.7), SMALL_CFG

    def src(X, mu, nu):
        return gcf_tomogram_analytic(p, X - 0.4 * mu + 0.3 * nu, mu, nu)

    g = UniformGrid1D.symmetric(1.0, 7)
    x, n = g.points, g.count
    mu, rows = _full_rows(src, _pair_nus(g), cfg, radial=False)
    raw = np.zeros((n, n), dtype=np.complex128)
    for d, c in zip(range(-(n - 1), n), rows):
        i = np.arange(max(0, d), n + min(0, d))
        raw[i, i - d] = np.exp(-1j * np.outer(0.5 * (x[i] + x[i - d]), mu)) @ c / (2.0 * np.pi)
    want = DensityMatrix.from_raw(g, raw)
    got = reconstruct_density_matrix(src, g, cfg)
    assert np.max(np.abs(got.values - want.values)) <= 1e-13
    assert got.asymmetry == pytest.approx(want.asymmetry, abs=1e-13)
    gq, gp = UniformGrid1D.symmetric(2.0, 9), UniformGrid1D.symmetric(3.0, 11)
    mu, rows = _full_rows(src, mu, cfg, radial=True)  # the nu rows are the mu nodes
    w_nu = trapezoid_weights(mu.size, mu[1] - mu[0])
    W = (np.exp(-1j * np.outer(gq.points, mu)) @ rows.T
         @ (w_nu[:, None] * np.exp(-1j * np.outer(mu, gp.points))) / (4.0 * np.pi**2))
    got = reconstruct_wigner(src, gq, gp, cfg)
    assert np.max(np.abs(got.values - W.real)) <= 1e-13
    assert np.max(np.abs(W)) > 0.1


def test_asymmetry_reports_a_source_without_point_symmetry():
    # w(-X, -mu, -nu) != w(X, mu, nu): the nu = 0 row, computed from the source,
    # puts an imaginary part on rho's diagonal that the mirrored rows cannot hide
    p, g = GcfParams(1.0, 0.0), UniformGrid1D.symmetric(1.0, 7)

    def skewed(X, mu, nu):
        return gcf_tomogram_analytic(p, X, mu, nu) * (1.0 + 0.1 * np.tanh(mu))

    assert reconstruct_density_matrix(skewed, g, SMALL_CFG).asymmetry > 1e-6
    rho = reconstruct_density_matrix(partial(gcf_tomogram_analytic, p), g, SMALL_CFG)
    assert rho.asymmetry <= 1e-14


@pytest.mark.parametrize("sd", [0.5, 1.0, 3.0])
def test_a_gaussian_column_integrates_within_its_window_cut(sd):
    # one column of X std sd on its window of +-_ALIAS_A = 6.07 std at its _sample_count:
    # the window cuts about 1.3e-9 of the Gaussian's mass, and C is off by 1.8e-9 to 2.6e-9
    k = _sample_count(sd)
    u = np.arange(1 - k, k, 2) / (k - 1)
    Y = _ALIAS_A * sd * u
    column = np.exp(-0.5 * (Y / sd) ** 2) / (math.sqrt(2.0 * math.pi) * sd)
    C = column @ _column_weights(np.array([sd]), u)[0]
    assert abs(C - math.exp(-0.5 * sd * sd)) < 5e-9


def test_column_weights_computed_once_per_abs_nu(monkeypatch):
    calls = []

    def counted(sd, u):
        calls.append(sd.size)
        return _column_weights(sd, u)

    monkeypatch.setattr(reconstruct, "_column_weights", counted)
    src = partial(gcf_tomogram_analytic, GcfParams(1.0, 0.5))
    reconstruct_density_matrix(src, UniformGrid1D.symmetric(1.0, 7), SMALL_CFG)
    assert len(calls) == 7  # n points: |nu| = 0 .. 6 steps
    calls.clear()
    g = UniformGrid1D.symmetric(1.0, 5)
    reconstruct_wigner(src, g, g, SMALL_CFG)
    assert len(calls) == SMALL_CFG.samples_per_axis // 2  # the nu rows are the mu nodes
    calls.clear()

    def zero6(X1, X2, mu1, mu2, nu1, nu2):
        return np.zeros(np.broadcast_shapes(np.shape(X1), np.shape(X2)))

    grids = (UniformGrid1D.symmetric(1.0, 3), UniformGrid1D.symmetric(1.0, 4))
    reconstruct_density_matrix_nd(zero6, grids, SMALL_CFG)
    assert len(calls) == 3 + 4


def test_taper_evaluated_once_per_axis(monkeypatch):
    # _windows tabulates each axis's taper over (|nu|, mu > 0) in one call, and the
    # columns read that table: 14, 33 and 12 calls when each signed nu took its own
    calls = []

    def counted(x, half_width, fraction):
        calls.append(np.shape(x))
        return raised_cosine_taper(x, half_width, fraction)

    monkeypatch.setattr(reconstruct, "raised_cosine_taper", counted)
    src = partial(gcf_tomogram_analytic, GcfParams(1.0, 0.5))
    half = SMALL_CFG.samples_per_axis // 2
    reconstruct_density_matrix(src, UniformGrid1D.symmetric(1.0, 7), SMALL_CFG)
    assert calls == [(7, half)]  # |nu| = 0 .. 6 steps
    calls.clear()
    g = UniformGrid1D.symmetric(1.0, 5)
    reconstruct_wigner(src, g, g, SMALL_CFG)
    assert calls == [(half, half)]  # the nu rows are the mu nodes
    calls.clear()
    g3 = UniformGrid1D.symmetric(1.0, 3)
    reconstruct_density_matrix_nd(_product_source(GcfParams(1.0, 0.5)), (g3, g3), SMALL_CFG)
    assert calls == [(3, half)] * 2


# ---------------------------------------------------------------------------
# X windows sized from the source's own moments


def test_default_wigner_of_fock1_at_the_origin():
    # 128 X samples per column at the default mu window of 40 read W(0, 0) 4.7e-3 off
    gq = UniformGrid1D.symmetric(3.0, 25)
    assert reconstruct_wigner(fock1_tomogram, gq, gq).values[12, 12] == pytest.approx(
        -1.0 / math.pi, abs=1e-5)


def test_default_wigner_of_a_narrow_ground_state():
    # sigma = 0.5: its widest weighted column has an X std of 40; at a fixed k of 128 X
    # samples that column aliases and W is 1.64 off, so k must follow the state
    p, g = GcfParams(0.5, 0.0), UniformGrid1D.symmetric(3.0, 41)
    W = reconstruct_wigner(partial(gcf_tomogram_analytic, p), g, g)
    want = gcf_wigner_analytic(p, g.points[:, None], g.points[None, :])
    assert np.max(np.abs(W.values - want)) <= 2e-3


@pytest.mark.parametrize("q0", [2.0, 30.0])
def test_displaced_state_needs_no_caller_input(q0):
    # the chirped Gaussian displaced to (q, p) = (q0, -1.5): the probes find its centre,
    # at q0 = 30 after widening past grids that hold none of its mass
    p, g = GcfParams(0.9, 0.7), UniformGrid1D(q0 - 2.0, 0.25, 17)

    def src(X, mu, nu):
        return gcf_tomogram_analytic(p, X - q0 * mu + 1.5 * nu, mu, nu)

    psi = np.exp(-1.5j * g.points) * gcf_psi(p, g.points - q0)
    rho = reconstruct_density_matrix(src, g)
    assert np.max(np.abs(rho.values - np.outer(psi, psi.conj()))) <= 1e-8


def test_zero_mass_probes_invert_to_exactly_zero():
    g = UniformGrid1D.symmetric(1.0, 5)
    src, calls, probes = _counted(lambda X, mu, nu: np.zeros(np.broadcast_shapes(
        np.shape(X), np.shape(mu))))
    assert np.max(np.abs(reconstruct_wigner(src, g, g, SMALL_CFG).values)) == 0.0
    assert probes and calls


def test_a_state_too_wide_to_sample_raises_before_any_row():
    # sd_q = 150: the column at |mu| ~ 40 has an X std of 6e3, which needs ~1.2e4 X samples
    src, calls, probes = _counted(partial(gcf_tomogram_analytic, GcfParams(300.0, 0.0)))
    with pytest.raises(UnsupportedSizeError, match=r"column \(mu, nu\) = \(-?39.\d*, \S+\) has "
                       rf"an X std of \d+.*over MAX_X_COUNT = {MAX_X_COUNT}"):
        reconstruct_density_matrix(src, UniformGrid1D.symmetric(1.0, 5))
    assert probes and not calls


def test_a_probe_that_does_not_settle_raises_before_any_row():
    # a Cauchy marginal's tails never fall to PROBE_EDGE of its peak on a grid that fits
    def cauchy(X, mu, nu):
        s = np.hypot(mu, nu)
        return s / (np.pi * (s * s + np.asarray(X) ** 2))

    src, calls, probes = _counted(cauchy)
    with pytest.raises(ValueError, match="do not settle"):
        reconstruct_density_matrix(src, UniformGrid1D.symmetric(1.0, 5))
    assert probes and not calls
    assert max(size for _, size in probes) <= MAX_X_COUNT


# ---------------------------------------------------------------------------
# plane-set-backed inversion


def test_density_matrix_from_planes():
    p = GcfParams(1.0, 0.0)
    planes = analytic_plane_set(p, list(np.linspace(-2.0, 2.0, 65)))
    dm = density_matrix_from_planes(planes)
    assert dm.grid.step == pytest.approx(0.0625)
    psi = gcf_psi(p, dm.grid.points)
    assert np.max(np.abs(dm.values - np.outer(psi, psi.conj()))) <= 1e-3


def test_wigner_from_planes():
    p = GcfParams(1.0, 0.0)
    planes = analytic_plane_set(p, list(np.linspace(-3.0, 3.0, 97)))
    gq = UniformGrid1D.symmetric(3.0, 33)
    gp = UniformGrid1D.symmetric(4.0, 33)
    W = wigner_from_planes(planes, gq, gp)
    assert W.values[16, 16] == pytest.approx(1.0 / math.pi, abs=5e-3)
    assert W.normalization() == pytest.approx(1.0, abs=1e-2)
    assert np.max(np.abs(W.marginal_q() - np.abs(gcf_psi(p, gq.points)) ** 2)) <= 1e-2
    assert W.imag_residue <= 1e-6
    with pytest.raises(ValueError):
        wigner_from_planes(planes[:2], gq, gp)


def test_wigner_from_planes_needs_a_symmetric_sweep():
    # a one-sided sweep misses half of the nu integral: W would be 0.154 off
    p = GcfParams(1.0, 0.0)
    gq = gp = UniformGrid1D.symmetric(3.0, 33)
    one_sided = analytic_plane_set(p, list(np.linspace(0.0, 3.0, 31)))
    with pytest.raises(ValueError, match="symmetric about zero"):
        wigner_from_planes(one_sided, gq, gp)
    # no nu = 0 plane is needed
    W = wigner_from_planes(analytic_plane_set(p, list(np.linspace(-3.0, 3.0, 96))), gq, gp)
    assert W.values[16, 16] == pytest.approx(1.0 / math.pi, abs=5e-3)


@pytest.fixture(scope="module")
def reference_sweep():
    # the CLI's reference sweep: sigma = 1, alpha = 1, 61 planes over nu = +-3
    psi = gcf_sampled(GcfParams(1.0, 1.0))
    m = wavefunction_moments(psi)
    return [symplectic_tomogram_plane(psi, *plane_grids_for_slice(nu, m), nu)
            for nu in np.linspace(-3.0, 3.0, 61).tolist()]


def test_rho_reads_plane_rows_from_the_point_phase_table(reference_sweep):
    # a pair's phase e^{-i mu (x + x')/2} is e^{-i mu x/2} e^{-i mu x'/2}: each row
    # multiplies the two from its mu array's table at the n grid points, on its
    # n - |d| pairs, and reads its own phases at those pairs (_Row.at)
    rows = reconstruct._table_from_planes(reference_sweep, 0.2, reconstruct._plane_nu_axis)[0]
    dm = density_matrix_from_planes(reference_sweep)
    x, n = dm.grid.points, dm.grid.count
    want = np.zeros((n, n), dtype=np.complex128)
    for row in rows:
        d = round(row.nu[0] / dm.grid.step)
        i = np.arange(max(0, d), n + min(0, d))
        want[i, i - d] = row.at((0.5 * (x[i] + x[i - d]),))
    got = reconstruct._rho_on_pairs(rows, (dm.grid,))
    assert np.max(np.abs(got - want)) <= 1e-15
    assert np.max(np.abs(want)) > 0.1
    assert np.array_equal(DensityMatrix.from_raw(dm.grid, got).values, dm.values)


def test_rho_tabulates_each_plane_row_at_the_grid_points(reference_sweep, monkeypatch):
    # each plane brings its own mu array, so each row builds one table, of
    # e^{-i mu x/2} at the n points of each axis, not at the 2n - 1 pair midpoints
    shapes, tabled = [], reconstruct._tabled

    def recorded(rows, b):
        last = None
        for row, tables in tabled(rows, b):
            if tables is not last:
                shapes.append(([t.shape for t in tables], row.mu.size))
                last = tables
            yield row, tables

    monkeypatch.setattr(reconstruct, "_tabled", recorded)
    dm = density_matrix_from_planes(reference_sweep)
    n = dm.grid.count
    assert len(shapes) == len(reference_sweep) == 61
    assert all(got == [(n, m)] for got, m in shapes)


@pytest.mark.parametrize("kind", ["planes", "source"])
def test_wigner_reads_every_row_through_contract(reference_sweep, kind):
    # W = (1/2pi) Sum_rows w_nu e^{-i nu p} rho_row(q), rho_row at the midpoints q: the
    # plane rows each bring their own mu array, the source rows share one
    gq, gp = UniformGrid1D.symmetric(3.0, 25), UniformGrid1D.symmetric(4.0, 33)
    if kind == "planes":
        rows = reconstruct._table_from_planes(reference_sweep, 0.2, reconstruct._sweep)[0]
    else:
        src, mu = partial(gcf_tomogram_analytic, GcfParams(1.0, 0.5)), _quad_nodes(SMALL_CFG)[0]
        rows = list(reconstruct._table_from_source(src, [mu], SMALL_CFG, radial=True))
    want = sum(r.w_nu * np.multiply.outer(r.at((gq.points,)), np.exp(-1j * r.nu[0] * gp.points))
               for r in rows) / (2.0 * np.pi)
    got = reconstruct._wigner(iter(rows), gq, gp)
    assert np.max(np.abs(got.values - want.real)) <= 1e-15
    assert got.imag_residue == pytest.approx(np.max(np.abs(want.imag)), abs=1e-15)
    assert np.max(want.real) > 0.1


def _readout_bytes(planes):
    """Every output field of the three plane read-outs, as bytes or floats."""
    gq, gp = UniformGrid1D.symmetric(3.0, 17), UniformGrid1D.symmetric(4.0, 19)
    rec = reconstruct_psi(planes[0])
    dm = density_matrix_from_planes(planes[1])
    W = wigner_from_planes(planes[2], gq, gp)
    return (rec.psi.grid, rec.psi.values.tobytes(), rec.autocorrelation.tobytes(),
            rec.prenorm_l2, rec.anchor, rec.anchor_imag, dm.grid, dm.values.tobytes(),
            dm.asymmetry, W.values.tobytes(), W.imag_residue)


def test_plane_readouts_take_any_iterable_bit_for_bit():
    # a list, a generator in ascending nu and one in shuffled order read out the same bytes
    p, nus = GcfParams(1.0, 0.5), list(np.linspace(-2.0, 2.0, 33))
    planes = analytic_plane_set(p, nus)
    shuffled = random.Random(0).sample(planes, len(planes))
    want = _readout_bytes([planes] * 3)
    assert _readout_bytes([(pl for pl in planes) for _ in range(3)]) == want
    assert _readout_bytes([iter(shuffled) for _ in range(3)]) == want


def _released_one_by_one(p, nus):
    """Each nu's closed-form plane, built only once the consumer has freed the last."""
    ref = None
    for nu in nus:
        assert ref is None or ref() is None, "the previous plane is still held"
        plane = analytic_plane_set(p, [nu])[0]
        ref = weakref.ref(plane)
        yield plane
        del plane
    assert ref is None or ref() is None, "the last plane is still held"


def test_plane_readouts_hold_one_plane_at_a_time():
    p, nus = GcfParams(1.0, 0.5), list(np.linspace(-2.0, 2.0, 9))
    g = UniformGrid1D.symmetric(2.0, 9)
    reconstruct_psi(_released_one_by_one(p, nus))
    density_matrix_from_planes(_released_one_by_one(p, nus))
    wigner_from_planes(_released_one_by_one(p, nus), g, g)
