"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Each criterion is checked at its stated tolerance against an independent
oracle (direct quadrature, closed forms, or the tensor-product construction);
the printed line records the measured number next to the tolerance so a
failure is diagnosable from the log alone. The checks `wavetomo validate`
runs are rows of `wavetomo.oracles.ORACLES`; `test_oracle` runs every row,
fast and full, so they are not repeated here. `test_oracle` also runs
`TIER1_ROWS`, checks of the program that `validate` leaves to the tests.
"""

import itertools
import math
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from wavetomo.analytic import (
    GcfParams,
    analytic_plane_set,
    fock1_psi,
    gaussian2_psi,
    gcf_fresnel_analytic,
    gcf_psi,
    gcf_sampled,
    gcf_tomogram_analytic,
)
from wavetomo.cli import main as cli_main
from wavetomo.fileio import read_file, write_file
from wavetomo.grid import SampledWavefunction, UniformGrid1D
from wavetomo.oracles import (
    GOLDEN_COMBOS,
    GOLDEN_GRID_NU,
    GOLDEN_GRID_X,
    GOLDEN_PROVENANCE,
    ORACLES,
    golden_dir,
    golden_name,
)
from wavetomo.reconstruct import (
    InversionConfig,
    fresnel_as_symplectic_source,
    reconstruct_density_matrix,
    reconstruct_density_matrix_nd,
    reconstruct_psi,
    reconstruct_wigner,
)
from wavetomo.tomography import (
    NdWavefunction,
    fresnel_tomogram,
    optical_tomogram,
    symplectic_tomogram_nd,
    symplectic_tomogram_plane,
)


def _point(psi, X, mu, nu):
    """w(X, mu, nu) of psi, by symplectic_tomogram_nd on the one-axis state."""
    return symplectic_tomogram_nd(NdWavefunction((psi.grid,), psi.values), (X,), (mu,), (nu,))


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _rel_l2_up_to_phase(got, want, step):
    phase = np.vdot(want, got)
    phase = phase / abs(phase) if abs(phase) > 0 else 1.0
    num = np.sqrt(np.trapezoid(np.abs(got / phase - want) ** 2, dx=step))
    den = np.sqrt(np.trapezoid(np.abs(want) ** 2, dx=step))
    return float(num / den)


def test_criterion_1_closed_form_vs_quadrature_lattice():
    t0 = time.monotonic()
    Xs = np.linspace(-3.0, 3.0, 9)
    mus = np.linspace(-2.0, 2.0, 9)
    nus = np.linspace(0.1, 2.0, 9)
    worst = 0.0
    for s in (0.5, 1.0):
        for a in (0.0, 1.0, 3.0):
            p = GcfParams(s, a)
            psi = gcf_sampled(p, count=4096)
            for X in Xs:
                for mu in mus:
                    for nu in nus:
                        got = _point(psi, float(X), float(mu), float(nu))
                        want = gcf_tomogram_analytic(p, float(X), float(mu), float(nu))
                        worst = max(worst, abs(got - want))
    dt = time.monotonic() - t0
    _report(
        "criterion-1 closed-form-vs-quadrature",
        worst <= 1e-6 and dt <= 30.0,
        f"max abs dev {worst:.2e} (tol 1e-6) over 6 states x 9x9x9, {dt:.1f}s (budget 30s)",
    )


def test_criterion_2_end_to_end_wavefunction_recovery():
    t0 = time.monotonic()
    nus = [float(v) for v in np.linspace(-3.0, 3.0, 61)]
    worst = 0.0
    worst_combo = None
    for s in (0.5, 1.0):
        for a in (0.0, 0.5, 1.0, 2.0, 3.0):
            p = GcfParams(s, a)
            rec = reconstruct_psi(analytic_plane_set(p, nus))
            g = rec.psi.grid
            assert g.count <= 512
            err = _rel_l2_up_to_phase(rec.psi.values, gcf_psi(p, g.points), g.step)
            if err > worst:
                worst, worst_combo = err, (s, a)
    dt = time.monotonic() - t0
    _report(
        "criterion-2 wavefunction-recovery",
        worst <= 1e-3 and dt <= 120.0,
        f"worst rel L2 {worst:.2e} (tol 1e-3) at width/chirp {worst_combo}, "
        f"10 combos on 61-point grids, {dt:.1f}s (budget 120s)",
    )


def test_criterion_3_density_matrix_inversion_and_window_convergence():
    grid = UniformGrid1D.symmetric(2.0, 33)
    worst_outer = worst_delta = 0.0
    for a in (0.0, 1.0):
        p = GcfParams(1.0, a)
        rho40 = reconstruct_density_matrix(partial(gcf_tomogram_analytic, p), grid)
        rho20 = reconstruct_density_matrix(
            partial(gcf_tomogram_analytic, p), grid, InversionConfig(mu_window=20.0)
        )
        psi = gcf_psi(p, grid.points)
        worst_outer = max(
            worst_outer, float(np.max(np.abs(rho40.values - np.outer(psi, psi.conj()))))
        )
        worst_delta = max(
            worst_delta, float(np.max(np.abs(rho40.values - rho20.values)))
        )
    _report(
        "criterion-3 density-matrix-inversion",
        worst_outer <= 5e-3 and worst_delta < 5e-3,
        f"outer-product dev {worst_outer:.2e} (tol 5e-3) at window 40; "
        f"window 20->40 change {worst_delta:.2e} (tol 5e-3)",
    )


def test_criterion_4_propagation_path_and_separable_product():
    p = GcfParams(1.0, 0.0)
    grid = UniformGrid1D.symmetric(2.0, 33)
    rho_s = reconstruct_density_matrix(partial(gcf_tomogram_analytic, p), grid)
    fresnel = fresnel_as_symplectic_source(lambda X, nu: gcf_tomogram_analytic(p, X, 1.0, nu))
    rho_f = reconstruct_density_matrix(fresnel, grid)
    path_dev = float(np.max(np.abs(rho_f.values - rho_s.values)))

    small = InversionConfig(mu_window=12.0, taper_fraction=0.2, samples_per_axis=32)
    g2 = UniformGrid1D.symmetric(1.0, 5)

    def product_source(X1, X2, mu1, mu2, nu1, nu2):
        return gcf_tomogram_analytic(p, X1, mu1, nu1) * gcf_tomogram_analytic(
            p, X2, mu2, nu2
        )

    rho2 = reconstruct_density_matrix_nd(product_source, (g2, g2), small)
    rho1 = reconstruct_density_matrix(partial(gcf_tomogram_analytic, p), g2, small)
    tensor = np.einsum("ik,jl->ijkl", rho1.values, rho1.values)
    sep_dev = float(np.max(np.abs(rho2.values - tensor)))
    _report(
        "criterion-4 propagation-path-equivalence",
        path_dev <= 1e-6 and sep_dev <= 1e-4,
        f"two-source dev {path_dev:.2e} (tol 1e-6); "
        f"two-axis product vs tensor {sep_dev:.2e} (tol 1e-4)",
    )


def test_criterion_5_wigner_reconstruction():
    p = GcfParams(math.sqrt(2.0), 0.0)
    g = UniformGrid1D.symmetric(3.0, 25)
    W = reconstruct_wigner(partial(gcf_tomogram_analytic, p), g, g)
    peak_dev = abs(W.values[12, 12] - 1.0 / math.pi)
    marg_dev = float(np.max(np.abs(W.marginal_q() - np.abs(gcf_psi(p, g.points)) ** 2)))
    norm_dev = abs(W.normalization() - 1.0)
    _report(
        "criterion-5 wigner-reconstruction",
        peak_dev <= 5e-3 and marg_dev <= 1e-2 and norm_dev <= 1e-2,
        f"center dev {peak_dev:.2e} (tol 5e-3), marginal dev {marg_dev:.2e} (tol 1e-2), "
        f"normalization dev {norm_dev:.2e} (tol 1e-2)",
    )


def test_criterion_8_validate_fast_budget(monkeypatch, capsys):
    monkeypatch.setenv("NO_COLOR", "1")
    t0 = time.monotonic()
    rc = cli_main(["validate", "--level", "fast"])
    dt = time.monotonic() - t0
    out = capsys.readouterr().out
    resolved = "width-form-resolution" in out and "optical-fresnel-bridge" in out
    _report(
        "criterion-8 validate-fast",
        rc == 0 and dt < 60.0 and resolved,
        f"exit {rc}, {dt:.1f}s (budget 60s), formula-ambiguity resolutions printed",
    )


# Rows `validate` does not run, under the names they had in its table: each measures
# the program itself, where `forward-identities`, `golden-files` and the closed-form
# tests of tests/test_analytic.py measure the same identity another way.


def _states():
    g = UniformGrid1D.symmetric(8.0, 4097)
    return (gcf_sampled(GcfParams(1.0, 1.0), count=4097),
            gcf_sampled(GcfParams(0.5, 2.0), count=4097),
            SampledWavefunction.normalized(g, fock1_psi(g.points)))


def _golden_regeneration():
    # the ten closed-form maps, written, then read back through write_file's parse-cache
    # entry and, from a copy of their bytes that has none, through the text parser
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        out, text = Path(tmp, "out"), Path(tmp, "text")
        out.mkdir()
        text.mkdir()
        for s, a in GOLDEN_COMBOS:
            want = gcf_fresnel_analytic(GcfParams(s, a), GOLDEN_GRID_X, GOLDEN_GRID_NU)
            name = golden_name(s, a)
            write_file(out / name, want, {"sigma": s, "alpha": a}, GOLDEN_PROVENANCE)
            (text / name).write_bytes((out / name).read_bytes())
            for path in (out / name, text / name):
                got = read_file(path)[1]
                if (got.grid_x, got.grid_nu) != (want.grid_x, want.grid_nu) or not np.array_equal(
                        got.values, want.values):
                    differ.append(f"{path.parent.name}/{name}")
    return not differ, (f"read back unequal: {', '.join(differ)}" if differ else
                        f"{len(GOLDEN_COMBOS)} maps written and read back, through their cache "
                        f"entries and through the text, equal the closed form bit for bit")


def _golden_round_trip():
    # every shipped golden, parsed in place (the reader writes nothing), is its closed form
    gdir = golden_dir()
    listing = sorted(p.name for p in gdir.iterdir())
    differ = []
    for s, a in GOLDEN_COMBOS:
        wf = read_file(gdir / golden_name(s, a))[1]
        want = gcf_fresnel_analytic(GcfParams(s, a), GOLDEN_GRID_X, GOLDEN_GRID_NU)
        if (wf.grid_x, wf.grid_nu) != (want.grid_x, want.grid_nu) or not np.array_equal(
                wf.values, want.values):
            differ.append(golden_name(s, a))
    kept = sorted(p.name for p in gdir.iterdir()) == listing
    return not differ and kept, (
        f"{len(GOLDEN_COMBOS) - len(differ)} of {len(GOLDEN_COMBOS)} read-backs equal the "
        f"generator bit for bit; directory listing {'unchanged' if kept else 'changed'}")


def _homogeneity():
    # w(lX, lmu, lnu) = w / |l|^N on the N = 2 path, its chirped and its flat (nu = 0) axes
    A, g = np.array([[1.0, 0.6], [0.6, 1.5]]), UniformGrid1D.symmetric(8.0, 301)
    psi = NdWavefunction((g, g), gaussian2_psi(A, g.points[:, None], g.points[None, :]))
    worst = 0.0
    for X, mu, nu in (((0.3, -0.5), (0.8, -0.4), (0.6, 1.2)),
                      ((0.0, 0.4), (0.0, 1.0), (1.0, 0.0)),
                      ((0.3, -0.5), (0.8, 1.3), (0.0, 0.0))):
        base = symplectic_tomogram_nd(psi, X, mu, nu)
        for lam in (-2.0, 0.5, 3.0):
            scaled = symplectic_tomogram_nd(psi, *([lam * v for v in t] for t in (X, mu, nu)))
            worst = max(worst, abs(scaled - base / lam**2) / base)
    return worst <= 1e-8, (
        f"entangled state on 301^2 points, three points (two with nu = 0 axes): "
        f"max rel dev {worst:.2e} (tol 1e-8) over scale factors -2, 0.5, 3")


def _nonnegativity():
    gx, gn, gt = (UniformGrid1D.symmetric(6.0, 121), UniformGrid1D.symmetric(2.0, 41),
                  UniformGrid1D(0.0, math.pi / 40, 40))
    low = min(float(min(fresnel_tomogram(psi, gx, gn).values.min(),
                        optical_tomogram(psi, gx, gt).values.min()))
              for psi in _states())
    return low >= -1e-10, (f"min Fresnel and optical map value over three states {low:.2e} "
                           f"(floor -1e-10)")


def _fresnel_is_mu1_line():
    # the Fresnel map's columns are the mu = 1 rows of the planes at the same nu'
    gx, gn = UniformGrid1D.symmetric(4.0, 17), UniformGrid1D.symmetric(1.5, 7)
    gmu = UniformGrid1D(0.5, 0.5, 3)  # its middle node is mu = 1 exactly
    dev = 0.0
    for psi in _states():
        wf = fresnel_tomogram(psi, gx, gn)
        for j, nu in enumerate(gn.points.tolist()):
            row = symplectic_tomogram_plane(psi, gx, gmu, nu).values[:, 1]
            dev = max(dev, float(np.max(np.abs(row - wf.values[:, j]))))
    return dev <= 1e-10, f"max dev from the planes' mu = 1 rows {dev:.2e} (tol 1e-10)"


def _chirp_shift():
    # a lens e^{iax^2/2} moves mu to mu + a*nu: the sampled alpha state's points equal the
    # alpha = 0 state's at mu + 2*alpha*nu, and on the map path a lensed state's plane at nu
    # equals the state's own on the mu grid shifted by a*nu (chirped Gaussian, Fock n = 1)
    pa, p0 = (gcf_sampled(GcfParams(1.0, a), count=4097) for a in (2.0, 0.0))
    dev = max(abs(_point(pa, X, mu, nu) - _point(p0, X, mu + 4.0 * nu, nu))
              for X, mu, nu in itertools.product((-1.0, 0.5), (0.3, 1.2), (0.4, 1.5)))
    g, gx, gmu = (UniformGrid1D.symmetric(*a) for a in ((8.0, 4097), (6.0, 121), (2.0, 41)))
    plane = 0.0
    for psi in (gcf_sampled(GcfParams(1.0, 1.0), count=4097),
                SampledWavefunction.normalized(g, fock1_psi(g.points))):
        y = psi.grid.points
        for a, nu in itertools.product((1.5, 4.0), (0.4, 1.5, -0.7)):
            lensed = SampledWavefunction(psi.grid, psi.values * np.exp(0.5j * a * y * y))
            shifted = UniformGrid1D(gmu.start + a * nu, gmu.step, gmu.count)
            diff = (symplectic_tomogram_plane(lensed, gx, gmu, nu).values
                    - symplectic_tomogram_plane(psi, gx, shifted, nu).values)
            plane = max(plane, float(np.max(np.abs(diff))))
    return dev <= 1e-12 and plane <= 1e-12, (
        f"points at mu + 2*alpha*nu: max dev {dev:.2e} (tol 1e-12); lensed planes (a = 1.5, 4; "
        f"nu = 0.4, 1.5, -0.7; 121 X x 41 mu) on the shifted mu grid: max dev {plane:.2e} "
        f"(tol 1e-12)")


def _chirp_peak_shrink():
    # the sampled states' peak strictly falls with chirp at width 1; the drop softens
    # at width 0.5
    h1, h05 = ([_point(gcf_sampled(GcfParams(s, a), count=4097), 0.0, 1.0, 0.5)
                for a in (0.0, 0.5, 1.0, 2.0, 3.0)] for s in (1.0, 0.5))
    mono = all(b < a for a, b in zip(h1, h1[1:]))
    rel_1, rel_05 = ((h[1] - h[-1]) / h[1] for h in (h1, h05))  # chirp 0.5 -> 3
    return mono and rel_05 < rel_1, (
        f"strictly decreasing over chirps 0..3 at width 1; relative drop {rel_1:.4f} "
        f"at width 1 vs {rel_05:.4f} at width 0.5 (must be smaller)")


TIER1_ROWS = (
    ("golden-regeneration", "tier-1", _golden_regeneration),
    ("golden-round-trip", "tier-1", _golden_round_trip),
    ("homogeneity", "tier-1", _homogeneity),
    ("nonnegativity", "tier-1", _nonnegativity),
    ("fresnel-is-mu1-line", "tier-1", _fresnel_is_mu1_line),
    ("chirp-shift", "tier-1", _chirp_shift),
    ("chirp-peak-shrink", "tier-1", _chirp_peak_shrink),
)


@pytest.mark.parametrize("name,level,check", (*ORACLES, *TIER1_ROWS),
                         ids=[row[0] for row in (*ORACLES, *TIER1_ROWS)])
def test_oracle(name, level, check):
    ok, detail = check()  # no row writes to the golden directory
    _report(f"oracle {name} ({level})", ok, detail)
