"""End-to-end command-line checks.

Every test drives main() with an argv list and then inspects exit codes,
written files, and captured streams; nothing reaches into command internals.
The expensive plane sweeps are built once per module in shared fixtures.
"""

import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from wavetomo import fileio
from wavetomo.analytic import (
    GcfParams,
    gcf_plane_analytic,
    gcf_psi,
    gcf_tomogram_analytic,
    gcf_width,
)
from wavetomo.cli import main
from wavetomo.grid import SampledWavefunction, UniformGrid1D
from wavetomo.oracles import golden_dir
from wavetomo.reconstruct import reconstruct_psi
from wavetomo.tomography import symplectic_tomogram

SQRT_2_OVER_PI = 0.7978845608028654


def run(*argv):
    return main(list(argv))


def _rel_l2_up_to_phase(got, want, step):
    phase = np.vdot(want, got)
    phase = phase / abs(phase) if abs(phase) > 0 else 1.0
    num = np.sqrt(np.trapezoid(np.abs(got / phase - want) ** 2, dx=step))
    den = np.sqrt(np.trapezoid(np.abs(want) ** 2, dx=step))
    return float(num / den)


@pytest.fixture(scope="module")
def chirped_planes(tmp_path_factory):
    """Sampled chirped state (width 1, chirp 1) plus a 61-plane sweep."""
    d = tmp_path_factory.mktemp("chirped")
    old = os.getcwd()
    os.chdir(d)
    try:
        assert run("gcf", "--sigma", "1", "--alpha", "1", "--output", "g") == 0
        assert run("tomogram", "--input", "g_psi.txt",
                   "--nu-min", "-3", "--nu-max", "3", "--nu-count", "61",
                   "--output", "pl_{index}.txt") == 0
    finally:
        os.chdir(old)
    return d


@pytest.fixture(scope="module")
def wide_gaussian_planes(tmp_path_factory):
    """Width-sqrt(2) Gaussian sweep sized for phase-space inversion.

    The frequency-axis window must reach +-5 here: the transform mass of
    this state decays like exp(-nu^2/4), so a +-3 window loses about a
    percent of it.  The finer 2049-point sample keeps the small-|nu|
    planes below the oscillation floor of the quadrature.
    """
    d = tmp_path_factory.mktemp("wide")
    old = os.getcwd()
    os.chdir(d)
    try:
        assert run("gcf", "--sigma", "1.4142135623730951", "--alpha", "0",
                   "--x-count", "2049", "--output", "g") == 0
        assert run("tomogram", "--input", "g_psi.txt",
                   "--nu-min", "-5", "--nu-max", "5", "--nu-count", "81",
                   "--output", "pl_{index}.txt") == 0
    finally:
        os.chdir(old)
    return d


# ---------------------------------------------------------------------------
# top level


def test_no_arguments_is_usage_error(capsys):
    assert run() == 2
    assert "error" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "gcf" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# gcf


def test_gcf_writes_dataset(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--width-map",
               "--output", "g") == 0
    names = capsys.readouterr().out.split()
    assert names == ["g_psi.txt", "g_fresnel.txt", "g_width.txt"]
    man, psi = fileio.read_file(tmp_path / "g_psi.txt")
    assert man.kind == "wavefunction"
    assert man.params["sigma"] == 1.0 and man.params["alpha"] == 0.0
    assert psi.grid.count == 1025
    _, fr = fileio.read_file(tmp_path / "g_fresnel.txt")
    # default map grids: X' on [-6, 6] x 121, nu' on [-3, 3] x 61
    assert (fr.grid_x.count, fr.grid_nu.count) == (121, 61)
    assert fr.values[60, 30] == pytest.approx(SQRT_2_OVER_PI, rel=1e-12)


def test_gcf_default_prefix(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "0.5", "--alpha", "3") == 0
    assert (tmp_path / "gcf_s0p5_a3_psi.txt").exists()
    assert (tmp_path / "gcf_s0p5_a3_fresnel.txt").exists()


def test_gcf_requires_positive_width():
    assert run("gcf") == 2
    assert run("gcf", "--sigma", "-1") == 2
    assert run("gcf", "--sigma", "0") == 2


def test_gcf_width_map_matches_closed_form(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "2", "--width-map",
               "--output", "g") == 0
    _, wm = fileio.read_file(tmp_path / "g_width.txt")
    assert wm.values[30] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    p = GcfParams(1.0, 2.0)
    want = np.array([gcf_width(p, 1.0, float(nu)) for nu in wm.grid.points])
    assert np.allclose(wm.values, want, rtol=1e-12, atol=0.0)


def test_gcf_peak_shrinks_with_chirp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    peaks = []
    for alpha in ("0.5", "1", "2", "3"):
        prefix = "a" + alpha.replace(".", "p")
        assert run("gcf", "--sigma", "1", "--alpha", alpha,
                   "--output", prefix) == 0
        _, fr = fileio.read_file(tmp_path / f"{prefix}_fresnel.txt")
        # X' = 0 row, nu' = 0.5 column
        peaks.append(float(fr.values[60, 35]))
    assert all(b < a for a, b in zip(peaks, peaks[1:]))
    assert peaks[0] == pytest.approx(0.4425867224424302, rel=1e-12)
    assert peaks[-1] == pytest.approx(0.19351543066116297, rel=1e-12)


# ---------------------------------------------------------------------------
# tomogram


def test_tomogram_symplectic_matches_bundled_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    assert run("tomogram", "--input", "g_psi.txt", "--nu", "1",
               "--x-min", "-4", "--x-max", "4", "--x-count", "41",
               "--mu-min", "-10", "--mu-max", "10", "--mu-count", "41",
               "--output", "plane.txt") == 0
    _, plane = fileio.read_file(tmp_path / "plane.txt")
    _, gold = fileio.read_file(golden_dir() / "golden_s1_a0.txt")
    # the mu=1 column of the nu=1 plane is the nu'=1 column of the mu=1 map
    assert plane.grid_mu.point(22) == pytest.approx(1.0, abs=0.0)
    assert gold.grid_nu.point(15) == pytest.approx(1.0, abs=0.0)
    assert np.max(np.abs(plane.values[:, 22] - gold.values[:, 15])) <= 1e-12
    want = gcf_plane_analytic(GcfParams(1.0, 0.0), plane.grid_x,
                              plane.grid_mu, 1.0)
    assert np.max(np.abs(plane.values - want.values)) <= 1e-9


def test_tomogram_symplectic_adaptive_grids(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    assert run("tomogram", "--input", "g_psi.txt", "--nu", "1",
               "--output", "plane.txt") == 0
    man, plane = fileio.read_file(tmp_path / "plane.txt")
    assert man.params["nu"] == 1.0
    want = gcf_plane_analytic(GcfParams(1.0, 0.0), plane.grid_x,
                              plane.grid_mu, 1.0)
    assert np.max(np.abs(plane.values - want.values)) <= 1e-9


def test_tomogram_multi_plane_sweep(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    assert run("tomogram", "--input", "g_psi.txt",
               "--nu-min", "-0.2", "--nu-max", "0.2", "--nu-count", "3",
               "--output", "s_{nu}.txt") == 0
    seen = []
    for name in ("s_-0.2.txt", "s_0.txt", "s_0.2.txt"):
        man, plane = fileio.read_file(tmp_path / name)
        seen.append(man.params["nu"])
        assert np.isfinite(plane.values).all()
        assert float(plane.values.min()) >= -1e-10
    assert seen == [-0.2, 0.0, 0.2]
    # a multi-plane sweep cannot write through a single fixed name
    assert run("tomogram", "--input", "g_psi.txt",
               "--nu-min", "-0.2", "--nu-max", "0.2", "--nu-count", "3",
               "--output", "fixed.txt") == 2


def test_tomogram_colliding_output_names(tmp_path, monkeypatch, capsys):
    # {nu} formats with %g: 1, 1.0000005 and 1.000001 all name p_1.txt
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    capsys.readouterr()
    assert run("tomogram", "--input", "g_psi.txt",
               "--nu-min", "1", "--nu-max", "1.000001", "--nu-count", "3",
               "--output", "p_{nu}.txt") == 2
    captured = capsys.readouterr()
    assert "nu=1.0 and nu=1.0000005 both write p_1.txt" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "p_1.txt").exists()


@pytest.mark.parametrize("flags, config, flag", [
    (("--nu", "inf"), None, "--nu"),
    (("--nu", "nan"), None, "--nu"),
    (("--nu-min", "nan", "--nu-max", "1", "--nu-count", "3"), None, "--nu-min"),
    (("--nu-min", "-1", "--nu-max", "inf", "--nu-count", "3"), None, "--nu-max"),
    ((), {"nu": -math.inf}, "--nu"),
    (("--nu-max", "1", "--nu-count", "3"), {"nu_min": math.nan}, "--nu-min"),
    (("--kind", "fresnel", "--nu-max", "inf"), None, "--nu-max"),
    (("--kind", "optical", "--theta", "nan"), None, "--theta"),
], ids=["nu-inf", "nu-nan", "nu-min-nan", "nu-max-inf", "config-nu", "config-nu-min",
        "fresnel-nu-max", "optical-theta"])
def test_tomogram_non_finite_flag_is_usage_error(tmp_path, monkeypatch, capsys,
                                               flags, config, flag):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))  # Infinity / NaN literals
        flags += ("--config", "cfg.json")
    capsys.readouterr()
    assert run("tomogram", "--input", "g_psi.txt", *flags, "--output", "p_{index}.txt") == 2
    captured = capsys.readouterr()
    assert f"error: {flag} must be finite" in captured.err
    assert captured.out == ""
    assert list(tmp_path.glob("p_*")) == []


def test_tomogram_fresnel_zero_frequency_row(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    assert run("tomogram", "--input", "g_psi.txt", "--kind", "fresnel",
               "--output", "fr.txt") == 0
    _, fr = fileio.read_file(tmp_path / "fr.txt")
    _, psi = fileio.read_file(tmp_path / "g_psi.txt")
    assert (fr.grid_x.count, fr.grid_nu.count) == (161, 41)
    row = fr.values[:, 20]
    assert np.max(np.abs(row - psi.abs2_at(fr.grid_x.points))) <= 1e-15
    # X = 0 lies on both grids, so the position density carries over exactly
    assert row[80] == np.abs(psi.values[512]) ** 2
    closed = np.abs(gcf_psi(GcfParams(1.0, 0.0), fr.grid_x.points)) ** 2
    assert np.max(np.abs(row - closed)) <= 1e-4


def test_tomogram_optical_axis_angles(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    assert run("tomogram", "--input", "g_psi.txt", "--kind", "optical",
               "--theta", "0", "--output", "op.txt") == 0
    _, op = fileio.read_file(tmp_path / "op.txt")
    _, psi = fileio.read_file(tmp_path / "g_psi.txt")
    assert np.allclose(op.grid_theta.points, [0.0, math.pi / 2.0])
    col = op.values[:, 0]
    assert np.max(np.abs(col - psi.abs2_at(op.grid_x.points))) <= 1e-15
    # the quarter-turn column is the momentum density; its center value for
    # the unchirped unit-width state is sqrt(2/pi)/2
    assert op.values[60, 1] == pytest.approx(0.5 * SQRT_2_OVER_PI, abs=1e-12)


def test_tomogram_usage_and_parse_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("tomogram", "--input", "absent.txt", "--nu", "1",
               "--output", "o.txt") == 3
    junk = tmp_path / "junk.txt"
    junk.write_text("hello\n1 2 3\n")
    assert run("tomogram", "--input", str(junk), "--nu", "1",
               "--output", "o.txt") == 3
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    capsys.readouterr()
    # a map file is not a wavefunction
    assert run("tomogram", "--input", "g_fresnel.txt", "--nu", "1",
               "--output", "o.txt") == 2
    assert "expected a wavefunction" in capsys.readouterr().err
    assert run("tomogram", "--input", "g_psi.txt", "--output", "o.txt") == 2
    assert run("tomogram", "--input", "g_psi.txt", "--nu", "1") == 2


def test_tomogram_degenerate_plane_request(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    capsys.readouterr()
    rc = run("tomogram", "--input", "g_psi.txt", "--nu", "0",
             "--mu-min", "-1", "--mu-max", "1", "--mu-count", "3",
             "--output", "bad.txt")
    assert rc == 4
    assert "degenerate" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tomogram-nd


def test_tomogram_nd_product_point(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    capsys.readouterr()
    assert run("tomogram-nd", "--input", "g_psi.txt", "--input", "g_psi.txt",
               "--point", "0,0;1,1;1,1") == 0
    got = float(capsys.readouterr().out.strip())
    want = gcf_tomogram_analytic(GcfParams(1.0, 0.0), 0.0, 1.0, 1.0) ** 2
    assert got == pytest.approx(want, abs=1e-12)


def test_tomogram_nd_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    capsys.readouterr()
    rc = run("tomogram-nd", "--input", "g_psi.txt", "--input", "g_psi.txt",
             "--point", "0,0;1,0;1,0")
    assert rc == 4
    assert "degenerate" in capsys.readouterr().err
    assert run("tomogram-nd", "--point", "0;1;1") == 2
    assert run("tomogram-nd", "--input", "g_psi.txt", "--point", "0;1") == 2
    assert run("tomogram-nd", "--input", "g_psi.txt", "--point", "0,0;1;1") == 2
    assert run("tomogram-nd", "--input", "g_psi.txt", "--point", "x;1;1") == 2


@pytest.mark.parametrize("point", ["nan;1;1", "0;inf;1", "0,0;1,1;1,-inf"])
def test_tomogram_nd_non_finite_point(tmp_path, monkeypatch, capsys, point):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    capsys.readouterr()
    n = point.split(";")[0].count(",") + 1
    assert run("tomogram-nd", *["--input", "g_psi.txt"] * n, "--point", point) == 2
    captured = capsys.readouterr()
    assert "--point" in captured.err and "non-finite" in captured.err
    assert captured.out == ""


def _three_factor_files(count="1025"):
    names = []
    for name, sigma, alpha in (("a", "1", "0"), ("b", "0.7", "1.3"), ("c", "1.3", "-0.5")):
        assert run("gcf", "--sigma", sigma, "--alpha", alpha, "--x-count", count,
                   "--output", name) == 0
        names += ["--input", f"{name}_psi.txt"]
    return names


def test_tomogram_nd_multiplies_factor_tomograms(tmp_path, monkeypatch, capsys):
    # one axis at nu = 0 takes the 1D limit |psi(X/mu)|^2 / |mu| of its factor
    monkeypatch.chdir(tmp_path)
    inputs = _three_factor_files()
    capsys.readouterr()
    Xs, mus, nus = (0.3, -0.2, 0.5), (0.8, 1.1, -0.6), (0.6, 0.0, 0.9)
    point = ";".join(",".join(map(str, v)) for v in (Xs, mus, nus))
    assert run("tomogram-nd", *inputs, "--point", point) == 0
    got = float(capsys.readouterr().out)
    w = [symplectic_tomogram(fileio.read_file(f"{name}_psi.txt")[1], X, mu, nu)
         for name, X, mu, nu in zip("abc", Xs, mus, nus)]
    assert got == w[0] * w[1] * w[2]


def test_tomogram_nd_three_inputs_peak_memory(tmp_path, monkeypatch, capsys):
    # the factors are never multiplied out: a 129^3 tensor alone is 34 MB
    monkeypatch.chdir(tmp_path)
    inputs = _three_factor_files("129")
    tracemalloc.start()
    try:
        rc = run("tomogram-nd", *inputs, "--point", "0,0,0;1,1,1;1,1,1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 2_000_000


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_psi_round_trip(chirped_planes, monkeypatch, capsys):
    monkeypatch.chdir(chirped_planes)
    assert run("reconstruct", "--input", "pl_*.txt", "--target", "psi",
               "--output", "rec.txt") == 0
    err = capsys.readouterr().err
    assert "prenorm_l2=" in err and "anchor=" in err
    _, rec = fileio.read_file(chirped_planes / "rec.txt")
    assert (rec.grid.start, rec.grid.count) == (-3.0, 61)
    _, src = fileio.read_file(chirped_planes / "g_psi.txt")
    dev_file = _rel_l2_up_to_phase(rec.values, src.interp_at(rec.grid.points),
                                   rec.grid.step)
    assert dev_file <= 1e-3
    dev_closed = _rel_l2_up_to_phase(
        rec.values, gcf_psi(GcfParams(1.0, 1.0), rec.grid.points),
        rec.grid.step)
    assert dev_closed <= 1e-3


def test_reference_sweep_grids(chirped_planes):
    # every column the sweep holds spans at least 2 X steps (std from the
    # plane's own data), so reading it back gives no under-resolution warning
    planes = [fileio.read_file(chirped_planes / f"pl_{i}.txt")[1] for i in range(61)]
    assert sum(pl.values.size for pl in planes) == 536590
    assert max(pl.grid_x.count for pl in planes) == 677
    p = GcfParams(1.0, 1.0)
    for pl in planes:
        want = gcf_plane_analytic(p, pl.grid_x, pl.grid_mu, pl.nu).values
        assert np.max(np.abs(pl.values - want)) <= 4e-4
        x = pl.grid_x.points
        mass, m1, m2 = np.stack([np.ones_like(x), x, x * x]) @ pl.values * pl.grid_x.step
        held = mass >= 1e-3
        std = np.sqrt(m2[held] / mass[held] - (m1[held] / mass[held]) ** 2)
        assert np.min(std) >= 2.0 * pl.grid_x.step
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        reconstruct_psi(planes)


def test_reconstruct_accepts_shell_expanded_paths(chirped_planes, monkeypatch):
    # what an unquoted pl_*.txt becomes: several paths after one --input
    monkeypatch.chdir(chirped_planes)
    assert run("reconstruct", "--input", "pl_29.txt", "pl_30.txt", "pl_31.txt",
               "--target", "psi", "--output", "rec3.txt") == 0
    _, rec = fileio.read_file(chirped_planes / "rec3.txt")
    assert rec.grid.count == 3


@pytest.mark.parametrize("nu_max,count", [("1", "21"), ("0.1", "3")])
def test_reconstruct_psi_node_at_origin(tmp_path, monkeypatch, capsys, nu_max, count):
    # first excited state, psi(0) = 0: the anchor is quadrature noise; the
    # 0.1 plane spacing matches the reference sweep, where that noise is
    # positive. The +-0.1 sweep is far narrower than the state: the node
    # check must still see the state's peak.
    monkeypatch.chdir(tmp_path)
    g = UniformGrid1D.symmetric(8.0, 1025)
    psi = SampledWavefunction.normalized(g, g.points * np.exp(-(g.points**2) / 2.0))
    fileio.write_file("excited.txt", psi, {}, "first excited state")
    assert run("tomogram", "--input", "excited.txt",
               "--nu-min", "-" + nu_max, "--nu-max", nu_max, "--nu-count", count,
               "--output", "e_{index}.txt") == 0
    capsys.readouterr()
    assert run("reconstruct", "--input", "e_*.txt", "--target", "psi",
               "--output", "rec.txt") == 4
    assert "psi(0)=0" in capsys.readouterr().err


def test_reconstruct_psi_taper(chirped_planes, monkeypatch):
    monkeypatch.chdir(chirped_planes)
    values = {}
    for taper in (None, "0.2", "0", "0.5"):
        flags = [] if taper is None else ["--taper", taper]
        assert run("reconstruct", "--input", "pl_*.txt", "--target", "psi", *flags,
                   "--output", "tap.txt") == 0
        values[taper] = fileio.read_file(chirped_planes / "tap.txt")[1].values
    assert values[None].tobytes() == values["0.2"].tobytes()
    assert not np.array_equal(values["0"], values["0.5"])


@pytest.mark.parametrize("corruption", ["coordinate", "nan", "inf"])
def test_reconstruct_corrupt_plane_exits_3(chirped_planes, tmp_path, monkeypatch,
                                           capsys, corruption):
    monkeypatch.chdir(tmp_path)
    for i in (29, 30, 31):
        (tmp_path / f"pl_{i}.txt").write_text((chirped_planes / f"pl_{i}.txt").read_text())
    lines = (tmp_path / "pl_30.txt").read_text().splitlines()
    parts = lines[5].split()
    if corruption == "coordinate":
        parts[0] = repr(float(parts[0]) + 0.01)
    else:
        parts[2] = corruption
    lines[5] = " ".join(parts)
    (tmp_path / "pl_30.txt").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("reconstruct", "--input", "pl_*.txt", "--target", "psi",
               "--output", "rec.txt") == 3
    assert "pl_30.txt:6" in capsys.readouterr().err


def test_reconstruct_rho_diagnostics(chirped_planes, monkeypatch, capsys):
    monkeypatch.chdir(chirped_planes)
    assert run("reconstruct", "--input", "pl_*.txt", "--target", "rho",
               "--output", "rho.txt") == 0
    err = capsys.readouterr().err
    assert "asymmetry=" in err and "trace_step=" in err
    man, dm = fileio.read_file(chirped_planes / "rho.txt")
    assert (dm.grid.start, dm.grid.count) == (-1.5, 31)
    assert abs(dm.trace_times_step - 1.0) <= 1e-2
    assert man.params["asymmetry"] <= 1e-3
    c = dm.grid.count // 2
    want_center = abs(complex(gcf_psi(GcfParams(1.0, 1.0), np.array([0.0]))[0])) ** 2
    assert dm.values[c, c].real == pytest.approx(want_center, abs=1e-3)


def test_reconstruct_wigner_peak(wide_gaussian_planes, monkeypatch, capsys):
    monkeypatch.chdir(wide_gaussian_planes)
    assert run("reconstruct", "--input", "pl_*.txt", "--target", "wigner",
               "--q-count", "21", "--p-count", "21",
               "--output", "wig.txt") == 0
    err = capsys.readouterr().err
    assert "imag_residue=" in err and "normalization=" in err
    _, wig = fileio.read_file(wide_gaussian_planes / "wig.txt")
    assert wig.values[10, 10] == pytest.approx(1.0 / math.pi, abs=5e-3)
    assert abs(wig.normalization() - 1.0) <= 1e-2
    assert wig.imag_residue <= 1e-6


def test_reconstruct_missing_anchor_plane(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    assert run("tomogram", "--input", "g_psi.txt",
               "--nu-min", "0.05", "--nu-max", "0.45", "--nu-count", "3",
               "--output", "off_{index}.txt") == 0
    capsys.readouterr()
    rc = run("reconstruct", "--input", "off_*.txt", "--target", "psi",
             "--output", "rec.txt")
    assert rc == 5
    assert "nu=0" in capsys.readouterr().err


def test_reconstruct_usage_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("reconstruct", "--target", "psi", "--output", "r.txt") == 2
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    # a wavefunction file is not a tomogram plane
    assert run("reconstruct", "--input", "g_psi.txt", "--target", "psi",
               "--output", "r.txt") == 2
    assert run("reconstruct", "--input", "nomatch_*.txt", "--target", "psi",
               "--output", "r.txt") == 2


# ---------------------------------------------------------------------------
# config file


def test_config_precedence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma": 2.0, "alpha": 1.5, "x_count": 257}))
    assert run("gcf", "--config", str(cfg), "--alpha", "0.5",
               "--output", "g") == 0
    man, psi = fileio.read_file(tmp_path / "g_psi.txt")
    # config supplies sigma and the sample count; the explicit flag wins alpha
    assert man.params["sigma"] == 2.0
    assert man.params["alpha"] == 0.5
    assert psi.grid.count == 257
    assert '"alpha": 0.5' in man.provenance
    assert "--config" in man.provenance


def test_config_error_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("gcf", "--sigma", "1", "--config", str(bad)) == 3
    assert run("gcf", "--sigma", "1", "--config", "absent.json") == 2


@pytest.mark.parametrize("key", ["taperr", "mu_window", "func", "command", "config"])
def test_config_unknown_key_is_usage_error(chirped_planes, tmp_path, capsys, key):
    # a misspelled key, a removed flag, or a name argparse owns but no flag sets
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"taper": 0.3, key: 0.5}))
    out = tmp_path / "rho.txt"
    assert run("reconstruct", "--input", str(chirped_planes / "pl_*.txt"),
               "--target", "rho", "--config", str(cfg), "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err
    assert "'taper'" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("tomogram-nd", "--input", "g_psi.txt", "--point", "0.1;1;0.5"),
    ("validate",),
], ids=["tomogram-nd", "validate"])
def test_config_flag_refused_where_unread(tmp_path, monkeypatch, capsys, argv):
    # these subcommands read no settings a config file could supply
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert run(*argv, "--config", str(cfg)) == 2
    assert "--config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate


def test_validate_fast_passes(monkeypatch, capsys):
    monkeypatch.setenv("NO_COLOR", "1")
    assert run("validate", "--level", "fast") == 0
    out = capsys.readouterr().out
    assert "\x1b[" not in out
    lines = out.strip().splitlines()
    assert lines[-1].startswith("ok:")
    checks = [l for l in lines if l.startswith(("PASS", "FAIL"))]
    assert len(checks) == 12
    assert all(l.startswith("PASS") for l in checks)
    names = {l.split()[1].rstrip(":") for l in checks}
    # the printed-formula disambiguations must be part of the fast level
    assert "width-form-resolution" in names
    assert "optical-fresnel-bridge" in names


def test_validate_full_regenerates_goldens_byte_for_byte(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NO_COLOR", "1")
    assert run("validate", "--level", "full", "--golden-dir", str(tmp_path)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("ok:")
    checks = [l for l in lines if l.startswith(("PASS", "FAIL"))]
    assert len(checks) == 16
    assert all(l.startswith("PASS") for l in checks)
    bundled = sorted(golden_dir().glob("golden_*.txt"))
    assert len(bundled) == 10
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in bundled]
    for p in bundled:
        assert (tmp_path / p.name).read_bytes() == p.read_bytes()


def test_validate_missing_goldens_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NO_COLOR", "1")
    assert run("validate", "--golden-dir", str(tmp_path)) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(l.startswith("FAIL golden-files: missing golden_") for l in lines)
    assert lines[-1].startswith("FAILED: 1 failure(s)")
