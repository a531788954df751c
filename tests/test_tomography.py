"""Forward transform tests: symplectic, Fresnel, optical, and N-axis maps.

Expected constants marked "pinned" were fixed by brute-force quadrature at
4x resolution before the closed forms were trusted; see RESOLUTIONS.md.
"""

import math
import tracemalloc

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
    gcf_tomogram_analytic,
    gcf_width,
)
from wavetomo.errors import DegeneratePointError, UnsupportedSizeError
from wavetomo import tomography
from wavetomo.grid import SampledWavefunction, UniformGrid1D
from wavetomo.tomography import (
    EPS_NU,
    NdWavefunction,
    _block_rows,
    _fft_size,
    _tomogram_columns,
    fresnel_tomogram,
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
    dens = np.abs(gcf_psi(GcfParams(1.0, 0.0), gx.points)) ** 2
    assert np.max(np.abs(wf.values[:, 0] - dens)) <= 1e-12
    assert wf.values[16, 0] == pytest.approx(SQRT_2_OVER_PI, abs=1e-9)


def test_fresnel_rows_normalized(psi_chirped):
    gx = UniformGrid1D.symmetric(12.0, 401)
    gnu = UniformGrid1D(0.3, 0.4, 3)
    wf = fresnel_tomogram(psi_chirped, gx, gnu)
    for j in range(gnu.count):
        assert np.trapezoid(wf.values[:, j], dx=gx.step) == pytest.approx(1.0, abs=1e-4)


def test_optical_limits_and_consistency(psi_plain):
    for theta in (0.0, math.pi):  # |psi(X/cos t)|^2 / |cos t|, X/cos t off a node
        want = gcf_tomogram_analytic(GcfParams(1.0, 0.0), 0.4, math.cos(theta), 0.0)
        assert optical_tomogram(psi_plain, 0.4, theta) == pytest.approx(want, abs=1e-12)
    for theta in (0.3, 1.0, 2.5):
        got = optical_tomogram(psi_plain, 0.4, theta)
        want = symplectic_tomogram(psi_plain, 0.4, math.cos(theta), math.sin(theta))
        assert abs(got - want) <= 1e-10


def test_zero_nu_map_columns_equal_points_off_a_node():
    # a map's nu = 0 columns and a point's nu = 0 axis read one interpolant; on
    # 257 points X/mu falls between nodes, and the Fresnel map mixes nu = 0 and
    # live columns
    psi = gcf_sampled(GcfParams(1.0, 1.0), count=257)
    gx = UniformGrid1D.symmetric(6.0, 61)
    plane = symplectic_tomogram_plane(psi, gx, UniformGrid1D(0.35, 0.3, 5), 0.0)
    fr = fresnel_tomogram(psi, gx, UniformGrid1D(-0.5, 0.25, 5))
    worst = 0.0
    for i, X in enumerate(gx.points):
        for j, mu in enumerate(plane.grid_mu.points):
            worst = max(worst, abs(plane.values[i, j] - symplectic_tomogram(psi, X, mu, 0.0)))
        worst = max(worst, abs(fr.values[i, 2] - symplectic_tomogram(psi, X, 1.0, 0.0)))
    assert worst <= 1e-13


def test_zero_nu_plane_reads_zero_past_psis_grid():
    # psi's interpolant has period 257 steps = 11.4 here, so an X window 16 times
    # mu = 0.5 wide would wrap back onto the state's peak; past psi's grid the
    # plane reads exactly 0, and the closed form everywhere
    p = GcfParams(1.0, 1.0)
    psi = gcf_sampled(p, count=257)
    gx, gmu = UniformGrid1D.symmetric(8.0, 161), UniformGrid1D(0.5, 0.25, 4)
    plane = symplectic_tomogram_plane(psi, gx, gmu, 0.0)
    x = gx.points[:, None] / gmu.points[None, :]
    off = (x < psi.grid.start) | (x > psi.grid.end)
    assert off.sum() > 100 and np.all(plane.values[off] == 0.0)
    want = gcf_tomogram_analytic(p, gx.points[:, None], gmu.points[None, :], 0.0)
    assert np.max(np.abs(plane.values - want)) <= 1e-12


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
    # +-0.1 are the sweep's narrowest chirp planes (n_x = 395, n_mu = 46 for the
    # 1025-sample state of a 61-plane +-3 sweep); nu = 3 is its widest plane
    psi = gcf_sampled(GcfParams(1.0, 1.0), count=1025)
    gx, gmu = plane_grids_for_slice(nu, wavefunction_moments(psi))
    if abs(nu) == 0.1:
        assert (gx.count, gmu.count) == (395, 46)
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
    # column (the mu = 0 delta at nu = 0), and the trapezoid sum of e^{iX} over
    # the narrowest column on the grid aliases by at most exp(-((2*pi/step - 1)
    # * width/2)^2) <= 2^-53 (Trefethen & Weideman) unless the count cap binds
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
    alias_exponent = ((2.0 * np.pi / gx.step - 1.0) * narrowest / 2.0) ** 2
    assert alias_exponent >= 53.0 * np.log(2.0)


def test_plane_grids_refuse_past_the_x_count_cap():
    # sigma = 0.01 at nu = 0: the narrowest column takes 12,587 X points at the alias step
    with pytest.raises(UnsupportedSizeError, match=r"nu = 0 takes 12587 X points.*MAX_X_COUNT"):
        plane_grids_for_slice(0.0, gcf_moments(GcfParams(0.01, 0.0)))


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


# cli-forward's Fresnel map: its 1025-point state onto 481 X by 161 nu points
FORWARD_FRESNEL = (UniformGrid1D.symmetric(8.0, 481), UniformGrid1D.symmetric(2.0, 161))


def _block_edges(n_x, n_y, nu, shared_chirp=False):
    """Per row block of _chirp_z_columns: the map columns of its first and last row."""
    live = np.flatnonzero(np.abs(nu) > EPS_NU)
    block = _block_rows(_fft_size(n_x + n_y - 1), shared_chirp)
    return [(live[s], live[min(s + block, live.size) - 1]) for s in range(0, live.size, block)]


@pytest.fixture(scope="module")
def psi_forward():
    return gcf_sampled(GcfParams(1.0, 2.0), count=1025)


def test_fresnel_block_seams_match_scalar_oracle(psi_forward):
    gx, gnu = FORWARD_FRESNEL
    wf = fresnel_tomogram(psi_forward, gx, gnu)
    # 160 rows off nu = 0 in 40 blocks of 4: the first two and the last two blocks' edges
    edges = _block_edges(gx.count, psi_forward.grid.count, gnu.points)
    assert len(edges) >= 3
    for j in sorted({j for edge in edges[:2] + edges[-2:] for j in edge}):
        nu = gnu.point(j)
        want = [symplectic_tomogram(psi_forward, gx.point(i), 1.0, nu) for i in range(gx.count)]
        assert np.max(np.abs(wf.values[:, j] - want)) <= 1e-12, j


def test_optical_last_partial_block_matches_scalar_oracle(psi_forward):
    ot = _cli_forward_optical(psi_forward)
    gx, gt = ot.grid_x, ot.grid_theta
    edges = _block_edges(gx.count, psi_forward.grid.count, np.sin(gt.points))
    first, last = edges[-1]
    assert len(edges) >= 2 and last - first < edges[0][1] - edges[0][0]
    for j in range(first, last + 1):
        want = [optical_tomogram(psi_forward, gx.point(i), gt.point(j)) for i in range(gx.count)]
        assert np.max(np.abs(ot.values[:, j] - want)) <= 1e-12, j


# Plane rows as a running product of one step row, against the one-exp-per-row path and the oracle


@pytest.fixture(scope="module")
def psi_sweep():
    # the reference sweep's state: sigma = 1, alpha = 1 on 1025 points
    return gcf_sampled(GcfParams(1.0, 1.0), count=1025)


def test_sweep_planes_equal_their_one_nu_per_column_maps(psi_sweep):
    # every non-flat plane of the 61-plane +-3 sweep against the same columns with nu given
    # per column, which builds each row from its own exp (no running product)
    moments = wavefunction_moments(psi_sweep)
    nus = [nu for nu in np.linspace(-3.0, 3.0, 61).tolist() if abs(nu) > EPS_NU]
    assert len(nus) == 60
    for nu in nus:
        gx, gmu = plane_grids_for_slice(nu, moments)
        plane = symplectic_tomogram_plane(psi_sweep, gx, gmu, nu).values
        per_row = _tomogram_columns(psi_sweep, gx, gmu.points, np.full(gmu.count, nu))
        assert np.max(np.abs(plane - per_row)) <= 1e-13 * np.max(per_row), nu


@pytest.mark.parametrize("nu", [0.1, -0.1, 3.0])
@pytest.mark.parametrize("n_mu", [2, 3, 5, 50])
def test_explicit_grid_planes_match_scalar_oracle(psi_sweep, n_mu, nu):
    # one mu grid crosses 0 (and holds mu = 0 at odd counts), one lies off it; every count
    # runs as one block, rows 1 .. n - 1 from row 0 by the running product of the step row
    gx = UniformGrid1D.symmetric(6.0, 41)
    for gmu in (UniformGrid1D.symmetric(2.0, n_mu), UniformGrid1D(0.4, 1.7 / n_mu, n_mu)):
        plane = symplectic_tomogram_plane(psi_sweep, gx, gmu, nu)
        want = [[symplectic_tomogram(psi_sweep, gx.point(i), gmu.point(j), nu)
                 for j in range(n_mu)] for i in range(gx.count)]
        assert np.max(np.abs(plane.values - want)) <= 1e-12, gmu


def test_plane_block_seam_matches_scalar_oracle(psi_sweep):
    # the nu = 0.1 reference plane: 395 X by 46 mu at FFT length 1440 runs as row blocks
    # of 6, the last of 4, each running on the product carried from the block before
    nu = 0.1
    gx, gmu = plane_grids_for_slice(nu, wavefunction_moments(psi_sweep))
    assert _fft_size(gx.count + psi_sweep.grid.count - 1) == 1440
    edges = _block_edges(gx.count, psi_sweep.grid.count, np.full(gmu.count, nu), True)
    assert edges[:2] == [(0, 5), (6, 11)] and edges[-1] == (42, 45)
    plane = symplectic_tomogram_plane(psi_sweep, gx, gmu, nu)
    for j in (5, 6, 41, 42, 45):
        want = [symplectic_tomogram(psi_sweep, gx.point(i), gmu.point(j), nu)
                for i in range(gx.count)]
        assert np.max(np.abs(plane.values[:, j] - want)) <= 1e-12, j


@pytest.mark.parametrize("nu", [0.1, -0.4, 3.0])
def test_plane_bits_do_not_depend_on_the_block_size(psi_sweep, monkeypatch, nu):
    # blocks of one row (each cumprod a lone product past the carried row), the default
    # and one block for the whole plane give the same bits
    gx, gmu = plane_grids_for_slice(nu, wavefunction_moments(psi_sweep))
    planes = []
    for budget in (1, tomography._KERNEL_BYTES, 1 << 40):
        monkeypatch.setattr(tomography, "_KERNEL_BYTES", budget)
        planes.append(symplectic_tomogram_plane(psi_sweep, gx, gmu, nu).values)
    assert all(np.array_equal(p, planes[-1]) for p in planes[:-1])


class _CountingNumpy:
    """numpy, with the values that np.exp returns counted."""

    def __init__(self):
        self.exps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        out = np.exp(*args, **kwargs)
        self.exps += np.size(out)
        return out


@pytest.mark.parametrize("n_x", [41, 15])
def test_long_plane_blocks_match_scalar_oracle(n_x):
    # a 129-point psi at FFT lengths 180 and 144 runs blocks of 86 and 109 rows, and the
    # running product over 400 mu columns carries across them, 399 steps from its row 0
    psi = gcf_sampled(GcfParams(1.0, 1.0), count=129)
    gx, gmu, nu = UniformGrid1D.symmetric(6.0, n_x), UniformGrid1D.symmetric(4.0, 400), 0.5
    size = _fft_size(n_x + psi.grid.count - 1)
    assert _block_rows(size, True) == {41: 86, 15: 109}[n_x]
    plane = symplectic_tomogram_plane(psi, gx, gmu, nu)
    want = [[symplectic_tomogram(psi, gx.point(i), gmu.point(j), nu) for j in range(gmu.count)]
            for i in range(gx.count)]
    assert np.max(np.abs(plane.values - want)) <= 1e-12


@pytest.mark.parametrize("budget", [tomography._KERNEL_BYTES, 1])
def test_plane_rows_take_two_rows_of_exps_per_plane(psi_sweep, monkeypatch, budget):
    # the nu = 0.1 reference plane's 46 rows, in blocks of 6 or of 1: its row 0 and its
    # step row of exps, plus the one chirp every block shares; one exp per row would be
    # 46 * n_y
    nu = 0.1
    gx, gmu = plane_grids_for_slice(nu, wavefunction_moments(psi_sweep))
    n_y, size = psi_sweep.grid.count, _fft_size(gx.count + psi_sweep.grid.count - 1)
    counting = _CountingNumpy()
    monkeypatch.setattr(tomography, "np", counting)
    monkeypatch.setattr(tomography, "_KERNEL_BYTES", budget)
    symplectic_tomogram_plane(psi_sweep, gx, gmu, nu)
    assert gmu.count == 46 and counting.exps == 2 * n_y + size == 3490
    counting.exps = 0
    _tomogram_columns(psi_sweep, gx, gmu.points, np.full(gmu.count, nu))
    assert counting.exps == 46 * (n_y + size)  # a row and a chirp per column


def test_fft_size_is_the_smallest_5_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    want, m = [], 1
    for n in range(1, 4097):
        m = max(m, n)
        while not smooth(m):
            m += 1
        want.append(m)
    assert [_fft_size(n) for n in range(1, 4097)] == want
    assert [_fft_size(n) for n in (1175, 1265, 1505)] == [1200, 1280, 1536]


def _cli_forward_optical(psi):
    # cli-forward's optical map: 241 X by 129 theta over [0, pi]
    return optical_tomogram_map(
        psi, UniformGrid1D.symmetric(6.0, 241), UniformGrid1D(0.0, math.pi / 128.0, 129))


def _peak_bytes(make):
    tracemalloc.start()
    try:
        make()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# A row block holds at most 256 KiB of FFT rows, chirps and phases, and a map is written
# once into its output before the dataset's frozen copy: peaks of about 1.3, 0.9 and 0.6 MB
# (2.2, 1.7 and 1.5 MB with 1 MiB blocks)


def test_fresnel_peak_memory_does_not_grow_with_the_map(psi_forward):
    # the map itself is 0.62 MB
    assert _peak_bytes(lambda: fresnel_tomogram(psi_forward, *FORWARD_FRESNEL)) < 1.6e6


def test_optical_peak_memory_does_not_grow_with_the_map(psi_forward):
    # the map itself is 0.25 MB
    assert _peak_bytes(lambda: _cli_forward_optical(psi_forward)) < 1.3e6


def test_plane_peak_memory_does_not_grow_with_the_plane(psi_sweep):
    # the nu = 0.1 reference plane, 395 X by 46 mu, is itself 0.15 MB
    nu = 0.1
    gx, gmu = plane_grids_for_slice(nu, wavefunction_moments(psi_sweep))
    assert _peak_bytes(lambda: symplectic_tomogram_plane(psi_sweep, gx, gmu, nu)) < 1e6


def test_optical_map_matches_scalar_oracle(psi_chirped):
    gx = UniformGrid1D.symmetric(6.0, 121)
    gt = UniformGrid1D(0.0, math.pi / 8.0, 9)  # holds 0, pi/2 and pi exactly
    assert {gt.point(0), gt.point(4), gt.point(8)} == {0.0, math.pi / 2.0, math.pi}
    ot = optical_tomogram_map(psi_chirped, gx, gt)
    for j in range(gt.count):
        want = [optical_tomogram(psi_chirped, gx.point(i), gt.point(j)) for i in range(gx.count)]
        assert np.max(np.abs(ot.values[:, j] - want)) <= 1e-12


# N-axis transforms


def _nd_product(p1, p2, count=257, half=6.0):
    g = UniformGrid1D.symmetric(half, count)
    f1 = gcf_psi(p1, g.points)
    f2 = gcf_psi(p2, g.points)
    return NdWavefunction((g, g), np.outer(f1, f2)), g, f1, f2


def _normalized_factors(params, count):
    g = UniformGrid1D.symmetric(6.0, count)
    return [gcf_sampled(GcfParams(*p), g) for p in params]


def _assert_tensor_is_product(factors, Xs, mus, nus):
    tensor = factors[0].values
    for f in factors[1:]:
        tensor = np.multiply.outer(tensor, f.values)
    psi = NdWavefunction(tuple(f.grid for f in factors), tensor)
    want = math.prod(map(symplectic_tomogram, factors, Xs, mus, nus))
    assert symplectic_tomogram_nd(psi, Xs, mus, nus) == pytest.approx(want, rel=1e-12)


def test_nd_separable_equals_product(psi_plain, psi_chirped):
    p1, p2 = GcfParams(1.0, 0.0), GcfParams(1.0, 1.0)
    psi2, g, _, _ = _nd_product(p1, p2)
    point = ((0.3, -0.2), (0.8, 1.1), (0.6, 0.9))
    got = symplectic_tomogram_nd(psi2, *point)
    w1 = symplectic_tomogram(gcf_sampled(p1, g), 0.3, 0.8, 0.6)
    w2 = symplectic_tomogram(gcf_sampled(p2, g), -0.2, 1.1, 0.9)
    assert got == pytest.approx(w1 * w2, abs=1e-10)
    # a nu = 0 axis reads |psi|^2 between the nodes bracketing X/mu, in 1D and
    # N-axis alike, so a product tensor equals the product of its factors off
    # a node too
    factors = _normalized_factors([(1.0, 0.0), (0.7, 1.3)], 257)
    for nus in ((0.6, 0.0), (0.0, 0.0)):
        _assert_tensor_is_product(factors, (0.35, -0.2), (0.8, 1.1), nus)


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
    # the N-axis Fresnel tomogram is the symplectic one at mu = (1, 1)
    fres = symplectic_tomogram_nd(
        psi2,
        tuple(x / m for x, m in zip(Xs, mus)),
        (1.0, 1.0),
        tuple(n / m for n, m in zip(nus, mus)),
    )
    assert sym == pytest.approx(fres / abs(mus[0] * mus[1]), rel=1e-8)


def test_nd_fresnel_product_point():
    p = GcfParams(1.0, 0.0)
    psi2, g, _, _ = _nd_product(p, p)
    got = symplectic_tomogram_nd(psi2, (0.0, 0.0), (1.0, 1.0), (1.0, 1.0))
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
    # two nu = 0 axes off a node
    factors = _normalized_factors([(1.0, 0.0), (0.7, 1.3), (1.3, -0.5)], 129)
    _assert_tensor_is_product(factors, (0.35, -0.2, 0.5), (0.8, 1.1, -0.6), (0.0, 0.0, 0.9))


@pytest.mark.parametrize("count", [201, 301])
def test_nd_zero_nu_axis_interpolates_psi(count):
    # an axis at nu = 0 reads psi at X/mu from its band-limited interpolant, as
    # accurate on a node (X/mu = 0.4 is one on 201 points over +-8) as half a
    # step off (on 301 points): measured at most 1.0e-14 relative at each point,
    # where linear interpolation of |psi|^2 read 3.7e-4 to 2.6e-3 off a node
    A = np.array([[1.0, 0.6], [0.6, 1.5]])
    g = UniformGrid1D.symmetric(8.0, count)
    psi = NdWavefunction((g, g), gaussian2_psi(A, g.points[:, None], g.points[None, :]))
    for point in (((0.0, 0.4), (0.0, 1.0), (1.0, 0.0)),
                  ((0.3, -0.5), (0.8, 1.3), (0.0, 0.0)),
                  ((0.35, 0.2), (0.7, -1.1), (0.0, 0.9))):
        want = float(gaussian2_tomogram(A, *point[0], *point[1], *point[2]))
        assert abs(symplectic_tomogram_nd(psi, *point) - want) <= 1e-12 * want


@pytest.mark.parametrize("degenerate", [0, 1, 2], ids=["axis0", "axis1", "axis2"])
def test_nd_degenerate_axis_raises_past_a_zero_collapse(degenerate):
    # the nu = 0 collapse of every other axis reads psi at X/mu = 50, off the
    # grid, which zeroes the amplitude; the degenerate axis must still raise
    g = UniformGrid1D.symmetric(4.0, 33)
    psi = NdWavefunction((g, g, g), np.ones((33, 33, 33), dtype=complex))
    mus = [0.0 if k == degenerate else 0.1 for k in range(3)]
    with pytest.raises(DegeneratePointError, match=f"axis {degenerate}"):
        symplectic_tomogram_nd(psi, (5.0,) * 3, mus, (0.0,) * 3)


def test_moments_match_closed_forms():
    p = GcfParams(1.0, 1.0)
    m = wavefunction_moments(gcf_sampled(p, count=4097))
    assert m.mean_q == pytest.approx(0.0, abs=1e-10)
    assert m.var_q == pytest.approx(0.25, abs=1e-6)
    assert m.var_p == pytest.approx(2.0, abs=1e-4)
    assert m.cov == pytest.approx(0.5, abs=1e-5)
