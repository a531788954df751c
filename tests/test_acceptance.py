"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Each criterion is checked at its stated tolerance against an independent
oracle (direct quadrature, closed forms, or the tensor-product construction);
the printed line records the measured number next to the tolerance so a
failure is diagnosable from the log alone. The checks `wavetomo validate`
runs are rows of `wavetomo.oracles.ORACLES`; `test_oracle` runs every row,
fast and full, so they are not repeated here.
"""

import math
import shutil
import time
from functools import partial

import numpy as np
import pytest

from wavetomo.analytic import (
    GcfParams,
    analytic_plane_set,
    gcf_psi,
    gcf_sampled,
    gcf_tomogram_analytic,
)
from wavetomo.cli import main as cli_main
from wavetomo.grid import UniformGrid1D
from wavetomo.oracles import ORACLES, golden_dir
from wavetomo.reconstruct import (
    InversionConfig,
    fresnel_as_symplectic_source,
    reconstruct_density_matrix,
    reconstruct_density_matrix_nd,
    reconstruct_psi,
    reconstruct_wigner,
)
from wavetomo.tomography import symplectic_tomogram


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
                        got = symplectic_tomogram(psi, float(X), float(mu), float(nu))
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


@pytest.mark.parametrize("name,level,check", ORACLES, ids=[row[0] for row in ORACLES])
def test_oracle(name, level, check, tmp_path):
    # a copy, so the full rows regenerate goldens outside the package tree
    gdir = tmp_path / "golden"
    shutil.copytree(golden_dir(), gdir)
    ok, detail = check(gdir)
    _report(f"oracle {name} ({level})", ok, detail)
