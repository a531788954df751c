"""Closed-form model state: pinned values, oracle cross-checks, error paths.

Pinned decimals were computed by brute-force quadrature at 4x resolution
before the closed forms were frozen (see RESOLUTIONS.md for the evidence
behind the width-formula reading).
"""
import cmath
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from wavetomo.analytic import (
    GcfParams,
    analytic_plane_set,
    fock1_psi,
    fock1_tomogram,
    fock1_wigner,
    gcf_fresnel_analytic,
    gcf_moments,
    gcf_plane_analytic,
    gcf_psi,
    gcf_sampled,
    gcf_tomogram_analytic,
    gcf_tomogram_ft_analytic,
    gcf_width,
    gcf_wigner_analytic,
    wigner_direct,
)
from wavetomo.errors import DegeneratePointError, SingularFrequencyError
from wavetomo.grid import SampledWavefunction, UniformGrid1D
from wavetomo.tomography import NdWavefunction, symplectic_tomogram_nd

PSI_0 = 0.8932438417380023  # (2/pi)^(1/4)
SQRT_2_OVER_PI = 0.7978845608028654
INV_SQRT_2PI = 0.3989422804014327
# psi(0.5) * conj(psi(0)) for sigma=1, alpha=1
SLICE_HALF = 0.6020755134639533 + 0.15373511832802772j


def _point(psi, X, mu, nu):
    """w(X, mu, nu) of psi, by symplectic_tomogram_nd on the one-axis state."""
    return symplectic_tomogram_nd(NdWavefunction((psi.grid,), psi.values), (X,), (mu,), (nu,))


def test_params_validation():
    with pytest.raises(ValueError):
        GcfParams(0.0)
    with pytest.raises(ValueError):
        GcfParams(-1.0)
    with pytest.raises(ValueError):
        GcfParams(1.0, math.nan)
    with pytest.raises(ValueError):
        GcfParams(math.inf)


def test_psi_pinned_values():
    assert gcf_psi(GcfParams(1.0, 0.0), 0.0) == pytest.approx(PSI_0, rel=1e-12)
    got = gcf_psi(GcfParams(1.0, 1.0), 1.0)
    want = PSI_0 * math.exp(-1.0) * cmath.exp(1j)
    assert got == pytest.approx(want, rel=1e-12)


def test_psi_array_input():
    x = np.array([-0.5, 0.0, 0.5])
    vals = gcf_psi(GcfParams(2.0, 0.3), x)
    assert vals.shape == (3,)
    assert vals[1] == pytest.approx(gcf_psi(GcfParams(2.0, 0.3), 0.0))
    # even state: chirp phase is even in x as well
    assert vals[0] == pytest.approx(vals[2], rel=1e-15)


@pytest.mark.parametrize("sigma,alpha", [(1.0, 0.0), (0.5, 3.0), (2.0, 1.0)])
def test_psi_normalization_default_grid(sigma, alpha):
    psi = gcf_sampled(GcfParams(sigma, alpha))
    assert abs(np.trapezoid(np.abs(psi.values) ** 2, dx=psi.grid.step) - 1.0) <= 1e-10


def test_tomogram_pinned_position_and_momentum():
    p = GcfParams(1.0, 0.0)
    assert gcf_tomogram_analytic(p, 0.0, 1.0, 0.0) == pytest.approx(
        SQRT_2_OVER_PI, rel=1e-12
    )
    assert gcf_tomogram_analytic(p, 0.0, 0.0, 1.0) == pytest.approx(
        INV_SQRT_2PI, rel=1e-12
    )


def test_tomogram_chirp_shift_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(10):
        X, mu, nu = rng.uniform(-2, 2, size=3)
        alpha = rng.uniform(-2, 2)
        chirped = gcf_tomogram_analytic(GcfParams(1.3, alpha), X, mu, nu)
        plain = gcf_tomogram_analytic(GcfParams(1.3, 0.0), X, mu + 2 * alpha * nu, nu)
        assert chirped == pytest.approx(plain, rel=1e-14)


def test_tomogram_degenerate_point_raises():
    with pytest.raises(DegeneratePointError):
        gcf_tomogram_analytic(GcfParams(1.0, 1.0), 0.3, 0.0, 0.0)
    with pytest.raises(DegeneratePointError):
        gcf_width(GcfParams(1.0, 0.0), 0.0, 0.0) or gcf_tomogram_analytic(
            GcfParams(1.0, 0.0), 0.0, 0.0, 0.0
        )


def test_width_pinned_values():
    p = GcfParams(1.0, 0.0)
    assert gcf_width(p, 1.0, 0.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert gcf_width(p, 0.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_width_matches_gaussian_fit_of_profile():
    p = GcfParams(1.0, 1.0)
    mu, nu = 0.8, 0.7
    omega = gcf_width(p, mu, nu)
    X = np.linspace(0.2 * omega, 1.2 * omega, 11)
    prof = gcf_tomogram_analytic(p, X, mu, nu)
    slope = np.polyfit(X**2, np.log(prof), 1)[0]
    fitted = 1.0 / math.sqrt(-slope)
    assert fitted == pytest.approx(omega, abs=1e-8)
    peak = gcf_tomogram_analytic(p, 0.0, mu, nu)
    assert peak == pytest.approx(1.0 / (math.sqrt(math.pi) * omega), rel=1e-12)


def test_peak_shrinks_with_chirp():
    # the peak strictly falls with chirp at width 1; the drop softens at width 0.5
    peaks, narrow = ([gcf_tomogram_analytic(GcfParams(s, a), 0.0, 1.0, 0.5)
                      for a in (0.0, 0.5, 1.0, 2.0, 3.0)] for s in (1.0, 0.5))
    assert all(b < a for a, b in zip(peaks, peaks[1:]))
    drop, drop_narrow = ((h[1] - h[-1]) / h[1] for h in (peaks, narrow))  # chirp 0.5 -> 3
    assert drop_narrow < drop


def test_profile_normalization():
    gx = UniformGrid1D.symmetric(12.0, 1201)
    for s, a in ((1.0, 1.0), (0.5, 0.5)):
        for mu, nu in ((1.0, 0.5), (0.2, 1.5)):
            prof = gcf_tomogram_analytic(GcfParams(s, a), gx.points, mu, nu)
            assert float(np.trapezoid(prof, dx=gx.step)) == pytest.approx(1.0, abs=1e-4)


def test_lattice_analytic_vs_numerical_tomogram():
    p = GcfParams(1.0, 1.0)
    psi = gcf_sampled(p)
    worst = 0.0
    for X in np.linspace(-3.0, 3.0, 9):
        for mu in np.linspace(-2.0, 2.0, 9):
            for nu in np.linspace(0.1, 2.0, 9):
                a = gcf_tomogram_analytic(p, X, mu, nu)
                n = _point(psi, X, mu, nu)
                worst = max(worst, abs(a - n))
    assert worst <= 1e-6


def test_ft_slice_is_autocorrelation():
    p = GcfParams(1.0, 1.0)
    for nu in (0.25, 0.5, 1.0):
        got = gcf_tomogram_ft_analytic(p, 1.0, -0.5 * nu, nu)
        assert got == pytest.approx(gcf_psi(p, nu) * np.conj(gcf_psi(p, 0.0)), rel=1e-12)
    assert gcf_tomogram_ft_analytic(p, 1.0, -0.25, 0.5) == pytest.approx(
        SLICE_HALF, rel=1e-12
    )
    # chirp phase survives in the slice: arg = alpha * nu^2
    phase = cmath.phase(gcf_tomogram_ft_analytic(p, 1.0, -0.25, 0.5))
    assert phase == pytest.approx(1.0 * 0.5**2, abs=1e-12)


def test_ft_alpha_zero_is_real():
    got = gcf_tomogram_ft_analytic(GcfParams(1.0, 0.0), 0.7, 0.4, 0.9)
    assert got.imag == 0.0


def test_ft_singular_frequency_raises():
    with pytest.raises(SingularFrequencyError):
        gcf_tomogram_ft_analytic(GcfParams(1.0, 0.0), 0.0, 0.5, 0.5)


def test_wigner_direct_peak():
    psi = gcf_sampled(GcfParams(math.sqrt(2.0), 0.0))
    assert wigner_direct(psi, 0.0, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-12)


@pytest.mark.parametrize("count", [256, 257, 1024, 1025])
def test_wigner_direct_is_the_exact_w_of_psis_interpolant(count):
    # measured 2.5e-16 at most, at the centre and off it
    p, g = GcfParams(1.0, 1.0), UniformGrid1D.symmetric(8.0, count)
    psi, fock = gcf_sampled(p, count=count), SampledWavefunction.normalized(g, fock1_psi(g.points))
    points = ((0.0, 0.0), (0.7, -0.4), (-1.1, 1.3), (1.9, 0.6), (-2.5, -1.7))
    for q, pm in points:
        assert wigner_direct(psi, q, pm) == pytest.approx(gcf_wigner_analytic(p, q, pm), abs=1e-12)
        assert wigner_direct(fock, q, pm) == pytest.approx(fock1_wigner(q, pm), abs=1e-12)
    # psi is zero off its grid, so W is too, at any p
    assert wigner_direct(psi, psi.grid.end + 0.01, 0.3) == 0.0
    assert wigner_direct(fock, -100.0, 0.0) == 0.0


def test_wigner_direct_momentum_marginal():
    p = GcfParams(math.sqrt(2.0), 0.0)
    psi = gcf_sampled(p)
    q = 0.6
    ps = np.linspace(-6.0, 6.0, 241)
    vals = np.array([wigner_direct(psi, q, pm) for pm in ps])
    marg = np.trapezoid(vals, ps)
    assert marg == pytest.approx(abs(gcf_psi(p, q)) ** 2, abs=1e-12)  # measured 3.3e-16


def test_wigner_direct_normalization():
    psi = gcf_sampled(GcfParams(math.sqrt(2.0), 0.0))
    qs = np.linspace(-6.0, 6.0, 61)
    W = np.array([[wigner_direct(psi, q, pm) for pm in qs] for q in qs])
    total = np.trapezoid(np.trapezoid(W, qs, axis=1), qs)
    assert total == pytest.approx(1.0, abs=1e-12)  # measured 2.2e-16
    assert W.min() >= -1e-10


def test_wigner_direct_nonnegative_for_chirped_state():
    psi = gcf_sampled(GcfParams(1.0, 2.0))
    rng = np.random.default_rng(11)
    for _ in range(25):
        q = rng.uniform(-2.0, 2.0)
        pm = rng.uniform(-4.0, 4.0)
        assert wigner_direct(psi, q, pm) >= -1e-10


def test_plane_and_fresnel_wrappers_match_pointwise():
    p = GcfParams(0.8, 0.5)
    gx = UniformGrid1D.symmetric(3.0, 7)
    gmu = UniformGrid1D.symmetric(2.0, 5)
    plane = gcf_plane_analytic(p, gx, gmu, 0.6)
    for i in (0, 3, 6):
        for j in (0, 2, 4):
            assert plane.values[i, j] == pytest.approx(
                gcf_tomogram_analytic(p, gx.point(i), gmu.point(j), 0.6), rel=1e-14
            )
    gnu = UniformGrid1D.symmetric(1.5, 5)
    fres = gcf_fresnel_analytic(p, gx, gnu)
    assert fres.values[3, 2] == pytest.approx(
        gcf_tomogram_analytic(p, 0.0, 1.0, 0.0), rel=1e-14
    )


def test_tomogram_takes_the_closed_forms_operations_bit_for_bit():
    # the result is built in one array, by the operations of
    # exp(-X^2/omega^2) / sqrt(pi omega^2) in that order, over broadcast shapes and scalars
    p, rng = GcfParams(0.7, 0.5), np.random.default_rng(5)
    for shapes in [((), (), ()), ((4, 1), (1, 3), ()), ((5,), (), (5,)), ((), (2, 3), (1, 3)),
                   ((2, 1, 3), (4, 1), ()), ((3,), (3,), (3,))]:
        X, mu, nu = (rng.normal(size=s) if s else float(rng.normal()) for s in shapes)
        x, m, n = (np.asarray(v, dtype=np.float64) for v in (X, mu, nu))
        w2 = (4.0 * n**2 + p.sigma**4 * (m + 2.0 * p.alpha * n) ** 2) / (2.0 * p.sigma**2)
        want = np.exp(-(x**2) / w2) / np.sqrt(np.pi * w2)
        got = gcf_tomogram_analytic(p, X, mu, nu)
        assert type(got) is (np.ndarray if want.ndim else float)
        assert np.shape(got) == want.shape and np.asarray(got).tobytes() == want.tobytes()


def test_fresnel_map_is_built_in_the_array_it_keeps():
    # lib-inversion's map, 3201 X' by 281 nu' (7.2 MB): the payload keeps the one
    # array the closed form fills; two map-sized temporaries and a copy into the
    # payload traced 2.1 maps
    p = GcfParams(1.0, 0.5)
    gx, gnu = UniformGrid1D.symmetric(42.0, 3201), UniformGrid1D.symmetric(3.2, 281)
    gcf_fresnel_analytic(p, gx, gnu)  # a first call's lazy imports are not working memory
    tracemalloc.start()
    try:
        wf = gcf_fresnel_analytic(p, gx, gnu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * wf.values.nbytes
    assert not wf.values.flags.writeable
    want = gcf_tomogram_analytic(p, gx.points[:, None], 1.0, gnu.points[None, :])
    assert wf.values.tobytes() == want.tobytes()


def test_analytic_plane_set_grids_and_values():
    p = GcfParams(1.0, 0.0)
    planes = analytic_plane_set(p, [-0.5, 0.0, 0.5])
    assert [pl.nu for pl in planes] == [-0.5, 0.0, 0.5]
    zero = planes[1]
    # the nu=0 plane's mu axis dodges the degenerate mu=0 node
    assert np.min(np.abs(zero.grid_mu.points)) > 1e-6
    i = zero.grid_x.count // 2
    j = zero.grid_mu.count // 2
    assert zero.values[i, j] == pytest.approx(
        gcf_tomogram_analytic(p, zero.grid_x.point(i), zero.grid_mu.point(j), 0.0),
        rel=1e-12,
    )


def test_moments_closed_forms_and_purity():
    m = gcf_moments(GcfParams(1.0, 1.0))
    assert (m.var_q, m.var_p, m.cov) == (0.25, 2.0, 0.5)
    assert m.det == pytest.approx(0.25, rel=1e-14)
    m2 = gcf_moments(GcfParams(0.5, 3.0))
    assert m2.det == pytest.approx(0.25, rel=1e-14)


def test_source_callables_vectorize():
    # the closed form bound to its parameters is a source for the inversions
    p = GcfParams(1.0, 0.5)
    src = partial(gcf_tomogram_analytic, p)
    got = src(np.array([0.0, 0.5]), 1.0, np.array([[0.7], [-0.2]]))
    assert got.shape == (2, 2)
    assert got[0, 1] == pytest.approx(gcf_tomogram_analytic(p, 0.5, 1.0, 0.7), rel=1e-14)
    assert got[1, 0] == pytest.approx(gcf_tomogram_analytic(p, 0.0, 1.0, -0.2), rel=1e-14)


def test_fock1_closed_forms_match_the_forward_map_and_direct_wigner():
    g = UniformGrid1D.symmetric(8.0, 2049)
    psi = SampledWavefunction(g, fock1_psi(g.points).astype(np.complex128))
    assert np.trapezoid(np.abs(psi.values) ** 2, dx=g.step) == pytest.approx(1.0, abs=1e-12)
    worst = max(abs(fock1_tomogram(X, mu, nu) - _point(psi, X, mu, nu))
                for X in (-1.3, 0.0, 0.4, 2.1) for mu in (-0.8, 0.0, 1.5) for nu in (0.3, -1.2))
    assert worst <= 1e-12  # measured 4.0e-14
    assert fock1_wigner(0.0, 0.0) == pytest.approx(-1.0 / math.pi, rel=1e-15)
    # wigner_direct is the exact W of psi's interpolant: measured 1.7e-16 at most
    for q, pm in ((0.0, 0.0), (0.7, -0.4), (-1.1, 1.3)):
        assert wigner_direct(psi, q, pm) == pytest.approx(fock1_wigner(q, pm), abs=1e-12)
    with pytest.raises(DegeneratePointError):
        fock1_tomogram(0.5, 0.0, 0.0)
