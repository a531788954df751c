"""Forward transform tests: symplectic, Fresnel, optical, and N-axis maps.

Expected constants marked "pinned" were fixed by brute-force quadrature at
4x resolution before the closed forms were trusted; see RESOLUTIONS.md.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetomo.analytic import (
    GcfParams,
    gaussian2_psi,
    gaussian2_tomogram,
    gcf_moments,
    gcf_psi,
    gcf_sampled,
    gcf_width,
)
from wavetomo.errors import (
    DegeneratePointError,
    DomainLookupError,
    UnsupportedSizeError,
)
from wavetomo.grid import SampledWavefunction, UniformGrid1D
from wavetomo.reconstruct import fresnel_as_symplectic_source
from wavetomo.tomography import (
    NdWavefunction,
    fresnel_tomogram,
    fresnel_tomogram_nd,
    optical_tomogram,
    optical_tomogram_map,
    plane_grids_for_slice,
    symplectic_tomogram,
    symplectic_tomogram_nd,
    symplectic_tomogram_plane,
    wavefunction_moments,
)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)  # 0.7978845608028654
# pinned: 1/sqrt(2.5*pi), via quadrature of the plain transform at 4x resolution
W_0_1_1 = 0.3568248232305542


@pytest.fixture(scope="module")
def psi_plain():
    return gcf_sampled(GcfParams(1.0, 0.0), count=2049)


@pytest.fixture(scope="module")
def psi_chirped():
    return gcf_sampled(GcfParams(1.0, 1.0), count=2049)


def test_delta_limit_value(psi_plain):
    assert symplectic_tomogram(psi_plain, 0.0, 1.0, 0.0) == pytest.approx(
        SQRT_2_OVER_PI, abs=1e-9
    )


def test_momentum_direction_value(psi_plain):
    assert symplectic_tomogram(psi_plain, 0.0, 0.0, 1.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), abs=1e-9
    )


def test_pinned_oblique_value(psi_plain):
    assert symplectic_tomogram(psi_plain, 0.0, 1.0, 1.0) == pytest.approx(W_0_1_1, abs=1e-6)


def test_degenerate_point_raises(psi_plain):
    with pytest.raises(DegeneratePointError):
        symplectic_tomogram(psi_plain, 0.3, 0.0, 0.0)
    with pytest.raises(DegeneratePointError):  # the nu = 0 plane's mu grid holds mu = 0
        symplectic_tomogram_plane(
            psi_plain, UniformGrid1D.symmetric(1.0, 5), UniformGrid1D.symmetric(1.0, 5), 0.0
        )


def test_homogeneity_loop(psi_chirped):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        X, mu = rng.uniform(-1.5, 1.5, size=2)
        nu = rng.uniform(0.2, 1.5)
        base = symplectic_tomogram(psi_chirped, X, mu, nu)
        for lam in (-2.0, 0.5, 3.0):
            scaled = symplectic_tomogram(psi_chirped, lam * X, lam * mu, lam * nu)
            worst = max(worst, abs(scaled - base / abs(lam)) / max(1.0, base))
    assert worst <= 1e-8


def test_plane_matches_pointwise(psi_chirped):
    gx = UniformGrid1D.symmetric(3.0, 11)
    gmu = UniformGrid1D.symmetric(2.0, 7)
    plane = symplectic_tomogram_plane(psi_chirped, gx, gmu, 0.7)
    for i in (0, 5, 10):
        for j in (0, 3, 6):
            point = symplectic_tomogram(psi_chirped, gx.point(i), gmu.point(j), 0.7)
            assert abs(plane.values[i, j] - point) <= 1e-12


def test_plane_rows_normalized(psi_chirped):
    gx = UniformGrid1D.symmetric(12.0, 401)
    gmu = UniformGrid1D.symmetric(2.0, 5)
    plane = symplectic_tomogram_plane(psi_chirped, gx, gmu, 0.8)
    for j in range(gmu.count):
        total = np.trapezoid(plane.values[:, j], dx=gx.step)
        assert total == pytest.approx(1.0, abs=1e-4)


def test_plane_nonnegative(psi_chirped):
    gx = UniformGrid1D.symmetric(6.0, 101)
    gmu = UniformGrid1D.symmetric(2.0, 21)
    plane = symplectic_tomogram_plane(psi_chirped, gx, gmu, 0.5)
    assert plane.values.min() >= -1e-10


def test_fresnel_is_mu_one_line(psi_plain):
    gx = UniformGrid1D.symmetric(4.0, 17)
    gnu = UniformGrid1D.symmetric(1.5, 7)
    wf = fresnel_tomogram(psi_plain, gx, gnu)
    for i in (0, 8, 16):
        for j in range(gnu.count):
            direct = symplectic_tomogram(psi_plain, gx.point(i), 1.0, gnu.point(j))
            assert abs(wf.values[i, j] - direct) <= 1e-10


def test_fresnel_delta_row(psi_plain):
    gx = UniformGrid1D.symmetric(4.0, 33)
    gnu = UniformGrid1D(0.0, 0.5, 3)  # includes nu = 0
    wf = fresnel_tomogram(psi_plain, gx, gnu)
    dens = psi_plain.abs2_at(gx.points)
    assert np.max(np.abs(wf.values[:, 0] - dens)) <= 1e-10
    assert wf.values[16, 0] == pytest.approx(SQRT_2_OVER_PI, abs=1e-9)


def test_fresnel_rows_normalized(psi_chirped):
    gx = UniformGrid1D.symmetric(12.0, 401)
    gnu = UniformGrid1D(0.3, 0.4, 3)
    wf = fresnel_tomogram(psi_chirped, gx, gnu)
    for j in range(gnu.count):
        assert np.trapezoid(wf.values[:, j], dx=gx.step) == pytest.approx(1.0, abs=1e-4)


def test_optical_limits_and_consistency(psi_plain):
    assert optical_tomogram(psi_plain, 0.4, 0.0) == pytest.approx(
        float(psi_plain.abs2_at(0.4)), abs=1e-10
    )
    for theta in (0.3, 1.0, 2.5):
        got = optical_tomogram(psi_plain, 0.4, theta)
        want = symplectic_tomogram(psi_plain, 0.4, math.cos(theta), math.sin(theta))
        assert abs(got - want) <= 1e-10


def test_optical_momentum_direction_against_fft(psi_plain):
    # theta = pi/2 is the Fourier direction; oracle: dense quadrature FT of psi
    g = psi_plain.grid
    k = 0.7
    ft = np.trapezoid(
        psi_plain.values * np.exp(-1j * k * g.points), dx=g.step
    ) / math.sqrt(2.0 * math.pi)
    want = abs(ft) ** 2
    got = optical_tomogram(psi_plain, k, math.pi / 2.0)
    assert got == pytest.approx(want, abs=1e-9)


# Chirp-z (FFT) maps against the scalar quadrature oracle


@pytest.mark.parametrize("nu", [0.1, -0.1, 3.0])
def test_plane_chirp_z_matches_scalar_oracle(nu):
    # +-0.1 are the sweep's narrowest chirp planes (n_x = 599, n_mu = 46 for the
    # 1025-sample state of a 61-plane +-3 sweep); nu = 3 is its widest plane
    psi = gcf_sampled(GcfParams(1.0, 1.0), count=1025)
    gx, gmu = plane_grids_for_slice(nu, wavefunction_moments(psi))
    if abs(nu) == 0.1:
        assert (gx.count, gmu.count) == (599, 46)
    plane = symplectic_tomogram_plane(psi, gx, gmu, nu)
    worst = 0.0
    for i in range(0, gx.count, 7):
        for j in range(gmu.count):
            point = symplectic_tomogram(psi, gx.point(i), gmu.point(j), nu)
            worst = max(worst, abs(plane.values[i, j] - point))
    assert worst <= 1e-12


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(sigma=st.floats(0.5, 2.0), alpha=st.floats(-3.0, 3.0),
       nu=st.floats(-3.0, 3.0) | st.just(0.0))
def test_plane_grids_straddle_the_narrowest_column(sigma, alpha, nu):
    # the mu nodes sit at mu_c +- (k + 1/2) step_mu, so none is on the narrowest
    # column (the mu = 0 delta at nu = 0), and the X step resolves every column
    # on the grid in three steps unless the 0.7 cap or the count cap binds
    p = GcfParams(sigma, alpha)
    m = gcf_moments(p)
    gx, gmu = plane_grids_for_slice(nu, m)
    mu_c = -nu * m.cov / m.var_q
    mu = gmu.points
    assert gmu.count % 2 == 0
    scale = abs(mu_c) + gmu.width
    assert np.max(np.abs(mu - mu_c + (mu - mu_c)[::-1])) <= 1e-12 * scale
    assert np.min(np.abs(mu - mu_c)) >= 0.49 * gmu.step
    if nu == 0.0:
        assert 0.0 not in mu
    narrowest = min(gcf_width(p, float(v), nu) for v in mu)
    assert 3.0 * gx.step <= narrowest * (1.0 + 1e-12) or gx.step == 0.7 or gx.count == 8193


def test_fresnel_chirp_z_rows_match_scalar_oracle():
    psi = gcf_sampled(GcfParams(1.0, 2.0), count=1025)
    gx = UniformGrid1D.symmetric(8.0, 481)
    gnu = UniformGrid1D.symmetric(2.0, 161)  # nu = -2 .. 2 in steps of 0.025
    wf = fresnel_tomogram(psi, gx, gnu)
    # most negative nu, smallest |nu| on both sides, and the nu = 0 row
    for j in (0, 79, 80, 81):
        nu = gnu.point(j)
        want = [symplectic_tomogram(psi, gx.point(i), 1.0, nu) for i in range(gx.count)]
        assert np.max(np.abs(wf.values[:, j] - want)) <= 1e-12


def test_optical_map_matches_scalar_oracle(psi_chirped):
    gx = UniformGrid1D.symmetric(6.0, 121)
    gt = UniformGrid1D(0.0, math.pi / 8.0, 9)  # holds 0, pi/2 and pi exactly
    assert {gt.point(0), gt.point(4), gt.point(8)} == {0.0, math.pi / 2.0, math.pi}
    ot = optical_tomogram_map(psi_chirped, gx, gt)
    for j in range(gt.count):
        want = [optical_tomogram(psi_chirped, gx.point(i), gt.point(j)) for i in range(gx.count)]
        assert np.max(np.abs(ot.values[:, j] - want)) <= 1e-12


def _fresnel_map(psi, half_x=8.0, nx=481, half_nu=2.0, nnu=161):
    gx = UniformGrid1D.symmetric(half_x, nx)
    gnu = UniformGrid1D.symmetric(half_nu, nnu)
    return fresnel_tomogram(psi, gx, gnu)


def test_from_fresnel_identity_and_interpolation(psi_plain):
    wf = _fresnel_map(psi_plain)
    gx, gnu = wf.grid_x, wf.grid_nu
    source = fresnel_as_symplectic_source(wf)
    # mu = 1 hits grid nodes exactly
    assert float(source(gx.point(60), 1.0, gnu.point(10))) == pytest.approx(
        wf.values[60, 10], abs=1e-12
    )
    direct = symplectic_tomogram(psi_plain, 1.0, 2.0, 0.5)
    assert float(source(1.0, 2.0, 0.5)) == pytest.approx(direct, abs=1e-4)


def test_from_fresnel_scaling(psi_plain):
    source = fresnel_as_symplectic_source(_fresnel_map(psi_plain))
    base = float(source(0.6, 1.1, 0.4))
    for lam in (0.5, 1.5):
        scaled = float(source(lam * 0.6, lam * 1.1, lam * 0.4))
        assert abs(scaled - base / abs(lam)) <= 1e-4  # interpolation-limited


def test_from_fresnel_domain_error(psi_plain):
    source = fresnel_as_symplectic_source(_fresnel_map(psi_plain))
    with pytest.raises(DomainLookupError):
        source(0.5, 0.1, 1.9)  # nu/mu = 19, far outside


def test_optical_from_fresnel(psi_plain):
    source = fresnel_as_symplectic_source(_fresnel_map(psi_plain))
    theta = math.pi / 4.0
    direct = optical_tomogram(psi_plain, 0.3, theta)
    assert float(source(0.3, math.cos(theta), math.sin(theta))) == pytest.approx(
        direct, abs=1e-4
    )
    assert float(source(0.4, 1.0, 0.0)) == pytest.approx(
        float(psi_plain.abs2_at(0.4)), abs=1e-10
    )


# N-axis transforms


def _nd_product(p1, p2, count=257, half=6.0):
    g = UniformGrid1D.symmetric(half, count)
    f1 = gcf_psi(p1, g.points)
    f2 = gcf_psi(p2, g.points)
    return NdWavefunction((g, g), np.outer(f1, f2)), g, f1, f2


def test_nd_separable_equals_product(psi_plain, psi_chirped):
    p1, p2 = GcfParams(1.0, 0.0), GcfParams(1.0, 1.0)
    psi2, g, _, _ = _nd_product(p1, p2)
    point = ((0.3, -0.2), (0.8, 1.1), (0.6, 0.9))
    got = symplectic_tomogram_nd(psi2, *point)
    w1 = symplectic_tomogram(gcf_sampled(p1, g), 0.3, 0.8, 0.6)
    w2 = symplectic_tomogram(gcf_sampled(p2, g), -0.2, 1.1, 0.9)
    assert got == pytest.approx(w1 * w2, abs=1e-10)


def test_nd_homogeneity():
    p1, p2 = GcfParams(1.0, 0.5), GcfParams(0.5, 0.0)
    psi2, _, _, _ = _nd_product(p1, p2)
    args = ((0.2, 0.4), (0.9, 1.2), (0.5, 0.8))
    base = symplectic_tomogram_nd(psi2, *args)
    lam = 1.7
    scaled = symplectic_tomogram_nd(
        psi2, *[tuple(lam * v for v in axis) for axis in args]
    )
    assert scaled == pytest.approx(base / lam**2, rel=1e-8)


def test_nd_fresnel_relation():
    p1, p2 = GcfParams(1.0, 1.0), GcfParams(1.0, 0.0)
    psi2, _, _, _ = _nd_product(p1, p2)
    mus = (1.4, 0.8)
    nus = (0.9, 0.5)
    Xs = (0.4, -0.3)
    sym = symplectic_tomogram_nd(psi2, Xs, mus, nus)
    fres = fresnel_tomogram_nd(
        psi2,
        tuple(x / m for x, m in zip(Xs, mus)),
        tuple(n / m for n, m in zip(nus, mus)),
    )
    assert sym == pytest.approx(fres / abs(mus[0] * mus[1]), rel=1e-8)


def test_nd_fresnel_product_point():
    p = GcfParams(1.0, 0.0)
    psi2, g, _, _ = _nd_product(p, p)
    got = fresnel_tomogram_nd(psi2, (0.0, 0.0), (1.0, 1.0))
    one_d = fresnel_tomogram(
        gcf_sampled(p, g), UniformGrid1D(0.0, 1.0, 2), UniformGrid1D(1.0, 1.0, 2)
    ).values[0, 0]
    assert got == pytest.approx(one_d**2, abs=1e-10)


def test_nd_zero_state_and_sizes():
    g = UniformGrid1D.symmetric(4.0, 33)
    zero2 = NdWavefunction((g, g), np.zeros((33, 33), dtype=complex))
    assert symplectic_tomogram_nd(zero2, (0.1, 0.1), (1.0, 1.0), (0.5, 0.5)) == 0.0
    zero3 = NdWavefunction((g, g, g), np.zeros((33, 33, 33), dtype=complex))
    assert symplectic_tomogram_nd(zero3, (0.0,) * 3, (1.0,) * 3, (1.0,) * 3) == 0.0
    with pytest.raises(UnsupportedSizeError):
        NdWavefunction((g,) * 4, np.zeros((33,) * 4, dtype=complex))


def test_nd_three_axis_separable():
    p = GcfParams(1.0, 0.0)
    g = UniformGrid1D.symmetric(6.0, 129)
    f = gcf_psi(p, g.points)
    psi3 = NdWavefunction((g, g, g), np.einsum("i,j,k->ijk", f, f, f))
    got = symplectic_tomogram_nd(psi3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    assert got == pytest.approx(W_0_1_1**3, abs=1e-6)


@pytest.mark.parametrize("count, tol", [(201, 1e-12), (301, 1e-3)])
def test_nd_zero_nu_axis_interpolates_psi(count, tol):
    # an axis at nu = 0 reads psi at X/mu by linear interpolation: exact on a
    # node (X/mu = 0.4 is one on 201 points over +-8), O(step^2) between
    # nodes (on 301 points it sits half a step off; measured 6.6e-4)
    A = np.array([[1.0, 0.6], [0.6, 1.5]])
    g = UniformGrid1D.symmetric(8.0, count)
    psi = NdWavefunction((g, g), gaussian2_psi(A, g.points[:, None], g.points[None, :]))
    point = ((0.0, 0.4), (0.0, 1.0), (1.0, 0.0))
    want = float(gaussian2_tomogram(A, *point[0], *point[1], *point[2]))
    assert abs(symplectic_tomogram_nd(psi, *point) - want) <= tol * want


def test_moments_match_closed_forms():
    p = GcfParams(1.0, 1.0)
    m = wavefunction_moments(gcf_sampled(p, count=4097))
    assert m.mean_q == pytest.approx(0.0, abs=1e-10)
    assert m.var_q == pytest.approx(0.25, abs=1e-6)
    assert m.var_p == pytest.approx(2.0, abs=1e-4)
    assert m.cov == pytest.approx(0.5, abs=1e-5)
