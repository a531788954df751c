"""End-to-end command-line checks.

Every test drives main() with an argv list and then inspects exit codes,
written files, and captured streams; nothing reaches into command internals.
The expensive plane sweeps are built once per module in shared fixtures.
"""

import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from wavetomo import fileio, oracles, tomography
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
from wavetomo.reconstruct import reconstruct_psi, wigner_from_planes
from wavetomo.tomography import (
    FresnelTomogram,
    NdWavefunction,
    OpticalTomogram,
    symplectic_tomogram_nd,
)

SQRT_2_OVER_PI = 0.7978845608028654


def _point(psi, X, mu, nu):
    """w(X, mu, nu) of psi, by symplectic_tomogram_nd on the one-axis state."""
    return symplectic_tomogram_nd(NdWavefunction((psi.grid,), psi.values), (X,), (mu,), (nu,))


def run(*argv):
    return main(list(argv))


def _rel_l2_up_to_phase(got, want, step):
    phase = np.vdot(want, got)
    phase = phase / abs(phase) if abs(phase) > 0 else 1.0
    num = np.sqrt(np.trapezoid(np.abs(got / phase - want) ** 2, dx=step))
    den = np.sqrt(np.trapezoid(np.abs(want) ** 2, dx=step))
    return float(num / den)


def _interpolant(psi, x):
    """psi's band-limited interpolant at x, zero off its grid: psi as the forward maps read it."""
    p, c = tomography._spectrum(psi.values, psi.grid)
    inside = (psi.grid.start <= x) & (x <= psi.grid.end)
    return np.exp(1j * np.outer(x, p)) @ c / psi.grid.count * inside


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
    # the switch set from a config file writes the same map
    (tmp_path / "cfg.json").write_text(json.dumps({"width_map": True}))
    assert run("gcf", "--sigma", "1", "--alpha", "2", "--config", "cfg.json", "--output", "c") == 0
    assert np.array_equal(fileio.read_file(tmp_path / "c_width.txt")[1].values, wm.values)


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


def test_tomogram_refuses_a_plane_past_the_x_count_cap(tmp_path, monkeypatch, capsys):
    # sigma = 0.01 at nu = 0 would take 12,587 X points; the plane is refused, not coarsened
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "0.01", "--alpha", "0", "--output", "g") == 0
    capsys.readouterr()
    assert run("tomogram", "--input", "g_psi.txt", "--nu", "0", "--output", "p.txt") == 2
    captured = capsys.readouterr()
    assert "error: the plane at nu = 0 takes" in captured.err
    assert "MAX_X_COUNT = 8192" in captured.err
    assert captured.out == "" and not (tmp_path / "p.txt").exists()


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


@pytest.mark.parametrize("argv, flags", [
    (("tomogram", "--input", "g_psi.txt", "--kind", "fresnel", "--mu-min", "-1",
      "--theta-count", "5", "--output", "o.txt"), "--mu-min, --theta-count"),
    (("tomogram", "--input", "g_psi.txt", "--kind", "optical", "--nu-count", "5",
      "--mu-max", "3", "--output", "o.txt"), "--nu-count, --mu-max"),
    (("tomogram", "--input", "g_psi.txt", "--kind", "optical", "--theta", "0.7",
      "--theta-count", "9", "--output", "o.txt"), "--theta-count"),
    (("tomogram", "--input", "g_psi.txt", "--nu", "0.5", "--nu-min", "-1", "--nu-max", "1",
      "--nu-count", "3", "--output", "o_{index}.txt"), "--nu-min, --nu-max, --nu-count"),
    (("tomogram", "--input", "g_psi.txt", "--nu", "0.5", "--theta", "0.3",
      "--output", "o.txt"), "--theta"),
    (("reconstruct", "--input", "g_fresnel.txt", "--target", "rho", "--q-count", "5",
      "--p-max", "9", "--output", "o.txt"), "--q-count, --p-max"),
], ids=["fresnel-mu-theta", "optical-nu-mu", "theta-and-grid", "nu-and-grid",
        "symplectic-theta", "rho-wigner-grid"])
def test_unread_flag_is_usage_error(tmp_path, monkeypatch, capsys, argv, flags):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    capsys.readouterr()
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert f"error: {flags} not read" in captured.err
    assert captured.out == ""
    assert list(tmp_path.glob("o*")) == []


def test_tomogram_grid_count_selects_explicit_grids(tmp_path, monkeypatch):
    # a count alone selects the explicit grids, with the default spans
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    assert run("tomogram", "--input", "g_psi.txt", "--nu", "0.5", "--x-count", "41",
               "--mu-count", "7", "--output", "p.txt") == 0
    _, plane = fileio.read_file(tmp_path / "p.txt")
    assert (plane.grid_x.start, plane.grid_x.count) == (-8.0, 41)
    assert (plane.grid_mu.start, plane.grid_mu.count) == (-10.0, 7)


def test_negative_values_read_after_their_flag(tmp_path, monkeypatch, capsys):
    # values that start with '-' but are not plain negative numbers
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    _, psi = fileio.read_file(tmp_path / "g_psi.txt")
    capsys.readouterr()
    assert run("tomogram-nd", "--input", "g_psi.txt", "--point", "-0.4;1.2;-0.9") == 0
    assert float(capsys.readouterr().out) == _point(psi, -0.4, 1.2, -0.9)
    assert run("tomogram", "--input", "g_psi.txt", "--nu-min", "-1e-1", "--nu-max", "1e-1",
               "--nu-count", "3", "--output", "s_{index}.txt") == 0
    assert fileio.read_file(tmp_path / "s_0.txt")[0].params["nu"] == -0.1
    assert run("tomogram", "--input", "g_psi.txt", "--nu", "1", "--x-min", "-4e0",
               "--output", "x.txt") == 0
    assert fileio.read_file(tmp_path / "x.txt")[1].grid_x.start == -4.0
    capsys.readouterr()
    assert run("tomogram", "--input", "g_psi.txt", "--kind", "fresnel", "--nu-min", "-inf",
               "--output", "fr.txt") == 2
    assert "error: --nu-min must be finite" in capsys.readouterr().err
    assert not (tmp_path / "fr.txt").exists()


@pytest.mark.parametrize("flag", [["--x-mi", "-4e0"], ["--x-mi=-4e0"]])
def test_abbreviated_flag_is_usage_error(tmp_path, monkeypatch, capsys, flag):
    # an abbreviation would slip past the join of values that start with '-'
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    capsys.readouterr()
    assert run("tomogram", "--input", "g_psi.txt", "--nu", "1", *flag,
               "--output", "x.txt") == 2
    assert "unrecognized arguments: --x-mi" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


def test_tomogram_fresnel_zero_frequency_row(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    assert run("tomogram", "--input", "g_psi.txt", "--kind", "fresnel",
               "--output", "fr.txt") == 0
    _, fr = fileio.read_file(tmp_path / "fr.txt")
    _, psi = fileio.read_file(tmp_path / "g_psi.txt")
    assert (fr.grid_x.count, fr.grid_nu.count) == (161, 41)
    # the nu' = 0 row is the position density, read from psi's band-limited
    # interpolant, and 0 past psi's grid (+-5.66) on the +-8 X window
    row = fr.values[:, 20]
    closed = np.abs(gcf_psi(GcfParams(1.0, 0.0), fr.grid_x.points)) ** 2
    assert np.max(np.abs(row - closed)) <= 1e-12
    assert np.all(row[np.abs(fr.grid_x.points) > psi.grid.end] == 0.0)


def test_tomogram_optical_axis_angles(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    assert run("tomogram", "--input", "g_psi.txt", "--kind", "optical",
               "--theta", "0", "--output", "op.txt") == 0
    _, op = fileio.read_file(tmp_path / "op.txt")
    _, psi = fileio.read_file(tmp_path / "g_psi.txt")
    assert np.allclose(op.grid_theta.points, [0.0, math.pi / 2.0])
    col = op.values[:, 0]
    closed = gcf_tomogram_analytic(GcfParams(1.0, 0.0), op.grid_x.points, 1.0, 0.0)
    assert np.max(np.abs(col - closed)) <= 1e-12
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
    capsys.readouterr()
    assert run("tomogram", "--input", "g_psi.txt", "--kind", "fresnel", "--x-min", "2",
               "--x-max", "1", "--output", "o.txt") == 2
    assert "--x-min/--x-max/--x-count must satisfy max > min" in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()


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
    # the degenerate factor is the second one: named as symplectic_tomogram_nd
    # names that axis of the tensor
    err = capsys.readouterr().err
    assert err == "degenerate request: axis 1: (mu, nu) = (0.0, 0.0) is degenerate\n"
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
    w = [_point(fileio.read_file(f"{name}_psi.txt")[1], X, mu, nu)
         for name, X, mu, nu in zip("abc", Xs, mus, nus)]
    assert got == w[0] * w[1] * w[2]
    # library and CLI agree at a nu = 0 axis: two factors against their dense tensor
    point = ";".join(",".join(map(str, v[:2])) for v in (Xs, mus, nus))
    assert run("tomogram-nd", *inputs[:4], "--point", point) == 0
    got = float(capsys.readouterr().out)
    a, b = (fileio.read_file(f"{name}_psi.txt")[1] for name in "ab")
    tensor = NdWavefunction((a.grid, b.grid), np.outer(a.values, b.values))
    assert got == pytest.approx(symplectic_tomogram_nd(tensor, Xs[:2], mus[:2], nus[:2]),
                                rel=1e-12)


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


# a child's peak resident set, printed as its last line: empty where /proc is absent
_PRINT_VMHWM = """
try:
    lines = open("/proc/self/status").read().splitlines()
except OSError:
    lines = []
print(*[line for line in lines if line.startswith("VmHWM:")])
"""


def _child_vmhwm_kb(cwd, code, *argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(fileio.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code + _PRINT_VMHWM, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    fields = proc.stdout.splitlines()[-1].split()
    if fields[:1] != ["VmHWM:"]:
        pytest.skip("no VmHWM line in /proc/self/status")
    return int(fields[1])


def test_fresnel_child_peak_rss_over_a_bare_import(tmp_path, monkeypatch):
    # cli-forward's Fresnel map, 481 X by 161 nu from a 1025-point state: the child's whole
    # peak over one that only imports the CLI, which cancels the interpreter's and numpy's
    # own baseline: 3.5 MB on Linux x86-64 with numpy 2.4; row blocks sized by their FFT
    # rows alone, with temporaries for every exp, take 6.9 MB
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "2", "--x-count", "1025", "--output", "g") == 0
    bare = _child_vmhwm_kb(tmp_path, "import wavetomo.cli\n")
    fresnel = _child_vmhwm_kb(
        tmp_path, "import sys\nfrom wavetomo.cli import main\nassert main(sys.argv[1:]) == 0\n",
        "tomogram", "--kind", "fresnel", "--input", "g_psi.txt", "--x-count", "481",
        "--nu-count", "161", "--output", "fresnel.txt")
    assert (tmp_path / "fresnel.txt").exists()
    assert fresnel - bare < 5500


_FRESNEL_IMPORTS = """
from wavetomo.analytic import GcfParams, gcf_fresnel_analytic
from wavetomo.grid import UniformGrid1D
from wavetomo.reconstruct import InversionConfig, reconstruct_density_matrix_fresnel
"""


def test_fresnel_map_inversion_child_peak_rss_over_a_bare_import(tmp_path):
    # lib-inversion's map, 3201 X' by 281 nu' (7.2 MB) from the closed form, inverted
    # to rho on 9 points at 64 samples: the child's whole peak over one that only
    # imports the same modules: 10.3 MB on Linux x86-64 with numpy 2.4; a map built
    # through two map-sized temporaries and copied into its payload, then inverted
    # through one whole [cos; sin] matrix, takes 16.8 MB
    bare = _child_vmhwm_kb(tmp_path, _FRESNEL_IMPORTS)
    inverted = _child_vmhwm_kb(tmp_path, _FRESNEL_IMPORTS + """
wf = gcf_fresnel_analytic(GcfParams(1.0, 0.5), UniformGrid1D.symmetric(42.0, 3201),
                          UniformGrid1D.symmetric(3.2, 281))
rho = reconstruct_density_matrix_fresnel(wf, UniformGrid1D.symmetric(1.0, 9),
                                         InversionConfig(samples_per_axis=64))
assert abs(rho.trace_times_step - 1.0) < 0.5
""")
    assert inverted - bare < 13500


# the wavetomo modules and hash modules (hashlib, whose import loads OpenSSL: 3.5 MB of
# RSS, and the builtin _blake2) that `import wavetomo.cli` loads, and those main(argv)
# adds, printed as the last line
_PRINT_LOADS = """
import json, sys
def loaded():
    return {m for m in sys.modules
            if m.split(".")[0] == "wavetomo" or m in ("hashlib", "_hashlib", "_blake2")}
from wavetomo.cli import main
before = loaded()
code = main(sys.argv[1:])
print(json.dumps([code, sorted(before), sorted(loaded() - before)]))
"""


def test_each_subcommand_loads_only_its_own_modules(tmp_path):
    # every subcommand reads and writes files of the forward maps' kinds; gcf adds the
    # closed forms and reconstruct the inversions, and none loads the oracle table
    src = os.path.dirname(os.path.dirname(os.path.abspath(fileio.__file__)))
    cli = ["wavetomo", "wavetomo.cli", "wavetomo.errors", "wavetomo.fileio", "wavetomo.grid",
           "wavetomo.tomography"]
    for argv, added in [
        (["gcf", "--sigma", "1", "--output", "g"], ["wavetomo.analytic"]),
        (["tomogram", "--input", "g_psi.txt", "--nu-min", "-1", "--nu-max", "1",
          "--nu-count", "5", "--output", "pl_{index}.txt"], []),
        (["reconstruct", "--input", "pl_*.txt", "--target", "rho", "--output", "rho.txt"],
         ["wavetomo.reconstruct"]),
    ]:
        proc = subprocess.run([sys.executable, "-c", _PRINT_LOADS, *argv], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, cli, added], argv[0]


# the size of the collector's permanent generation after the library runs, after
# one main() and after a second one, printed as the last line
_PRINT_FREEZES = """
import gc, json
from functools import partial
import wavetomo, wavetomo.reconstruct, wavetomo.analytic, wavetomo.fileio, wavetomo.oracles
from wavetomo.analytic import GcfParams, gcf_tomogram_analytic
from wavetomo.grid import UniformGrid1D
from wavetomo.reconstruct import InversionConfig, reconstruct_density_matrix
rho = reconstruct_density_matrix(partial(gcf_tomogram_analytic, GcfParams(1.0, 0.5)),
                                 UniformGrid1D.symmetric(1.0, 5), InversionConfig(samples_per_axis=16))
library = gc.get_freeze_count()
from wavetomo.cli import main
assert main(["gcf", "--sigma", "1", "--output", "g"]) == 0
first = gc.get_freeze_count()
kept = [{"n": [n]} for n in range(10000)]  # 20,000 objects the collector tracks
assert main(["gcf", "--sigma", "1", "--output", "h"]) == 0
print(json.dumps([library, first, gc.get_freeze_count()]))
"""


def test_the_cli_freezes_its_import_heap_once_and_the_library_never(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(fileio.__file__)))
    proc = subprocess.run([sys.executable, "-c", _PRINT_FREEZES], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    library, first, second = json.loads(proc.stdout.splitlines()[-1])
    assert library == 0
    assert first > 10000  # numpy's and the package's import-time objects
    assert second <= first  # the second main() froze nothing new: not the 20,000 kept


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
    dev_file = _rel_l2_up_to_phase(rec.values, _interpolant(src, rec.grid.points),
                                   rec.grid.step)
    assert dev_file <= 1e-3
    dev_closed = _rel_l2_up_to_phase(
        rec.values, gcf_psi(GcfParams(1.0, 1.0), rec.grid.points),
        rec.grid.step)
    assert dev_closed <= 1e-3


def test_wigner_from_planes_holds_one_reference_plane_at_a_time(chirped_planes):
    # the reference sweep holds 2.7 MB of values; read from its files one plane
    # at a time, the read-out's default 81 x 81 Wigner function takes 0.6 MB
    paths = sorted(chirped_planes.glob("pl_*.txt"))
    values = sum(fileio.read_file(path)[1].values.nbytes for path in paths)
    grid = UniformGrid1D.symmetric(4.0, 81)
    tracemalloc.start()
    try:
        wigner_from_planes((fileio.read_file(path)[1] for path in paths), grid, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values / 4


def test_reconstruct_reads_each_plane_after_freeing_the_last(chirped_planes, monkeypatch):
    read, planes = fileio.read_file, []

    def read_after_release(path):
        assert not planes or planes[-1]() is None, f"the plane before {path} is still held"
        manifest, payload = read(path)
        planes.append(weakref.ref(payload))
        return manifest, payload

    monkeypatch.setattr(fileio, "read_file", read_after_release)
    monkeypatch.chdir(chirped_planes)
    for target in ("psi", "rho", "wigner"):
        planes.clear()
        assert run("reconstruct", "--input", "pl_*.txt", "--target", target,
                   "--output", f"streamed_{target}.txt") == 0
        assert len(planes) == 61


def test_reference_sweep_grids(chirped_planes):
    # the trapezoid sum of e^{iX} over every column the sweep holds aliases by
    # exp(-((2*pi/step - 1)*std/sqrt(2))^2) <= 2^-53 (std from the plane's own
    # data), and reading the planes back gives no under-resolution warning
    planes = [fileio.read_file(chirped_planes / f"pl_{i}.txt")[1] for i in range(61)]
    assert sum(pl.values.size for pl in planes) == 342654
    assert max(pl.grid_x.count for pl in planes) == 445
    p = GcfParams(1.0, 1.0)
    for pl in planes:
        want = gcf_plane_analytic(p, pl.grid_x, pl.grid_mu, pl.nu).values
        assert np.max(np.abs(pl.values - want)) <= 4e-4
        x = pl.grid_x.points
        mass, m1, m2 = np.stack([np.ones_like(x), x, x * x]) @ pl.values * pl.grid_x.step
        held = mass >= 1e-3
        std = np.sqrt(m2[held] / mass[held] - (m1[held] / mass[held]) ** 2)
        alias_exponent = ((2.0 * np.pi / pl.grid_x.step - 1.0) * std / np.sqrt(2.0)) ** 2
        assert np.min(alias_exponent) >= 53.0 * np.log(2.0)
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


def test_reconstruct_reads_named_files_that_hold_glob_characters(chirped_planes, tmp_path,
                                                                 monkeypatch):
    # a path that names a file is read as it is, though "[0]" is also a pattern
    monkeypatch.chdir(tmp_path)
    assert run("tomogram", "--input", str(chirped_planes / "g_psi.txt"), "--nu-min", "-0.1",
               "--nu-max", "0.1", "--nu-count", "3", "--output", "pl[{index}].txt") == 0
    names = [f"pl[{i}].txt" for i in range(3)]
    assert run("reconstruct", "--input", *names, "--target", "psi", "--output", "a.txt") == 0
    assert run("reconstruct", "--input", "pl*.txt", "--target", "psi", "--output", "b.txt") == 0
    (_, a), (_, b) = fileio.read_file("a.txt"), fileio.read_file("b.txt")
    assert a.grid.count == 3 and np.array_equal(a.values, b.values)


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


def test_reconstruct_anchors_on_a_plane_within_eps_nu(tmp_path, monkeypatch, capsys):
    # tomogram writes --nu 5e-10 as the flat plane (|nu| <= EPS_NU); psi and rho anchor on it
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    for i, nu in enumerate(("-1", "5e-10", "1")):
        assert run("tomogram", "--input", "g_psi.txt", "--nu", nu, "--output", f"pl{i}.txt") == 0
    for target in ("psi", "rho"):
        assert run("reconstruct", "--input", "pl0.txt", "pl1.txt", "pl2.txt",
                   "--target", target, "--output", f"{target}.txt") == 0
    _, rec = fileio.read_file(tmp_path / "psi.txt")
    assert rec.grid.count == 3 and rec.grid.step == pytest.approx(1.0)


def test_reconstruct_two_planes_is_usage_error(tmp_path, monkeypatch, capsys):
    # the sweep holds its nu = 0 anchor; two planes are too few for any
    # read-out, which every target reports alike, not as a missing anchor
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    assert run("tomogram", "--input", "g_psi.txt",
               "--nu-min", "0", "--nu-max", "0.1", "--nu-count", "2",
               "--output", "two_{index}.txt") == 0
    for target in ("psi", "rho", "wigner"):
        capsys.readouterr()
        assert run("reconstruct", "--input", "two_*.txt", "--target", target,
                   "--output", "rec.txt") == 2
        assert "need at least 3 planes" in capsys.readouterr().err
        assert not (tmp_path / "rec.txt").exists()


def test_reconstruct_wigner_refuses_one_sided_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    assert run("tomogram", "--input", "g_psi.txt",
               "--nu-min", "0", "--nu-max", "0.5", "--nu-count", "3",
               "--output", "half_{index}.txt") == 0
    capsys.readouterr()
    assert run("reconstruct", "--input", "half_*.txt", "--target", "wigner",
               "--output", "wig.txt") == 2
    assert "symmetric about zero" in capsys.readouterr().err
    assert not (tmp_path / "wig.txt").exists()


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


def test_config_error_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("gcf", "--sigma", "1", "--config", str(bad)) == 3
    assert f"{bad}: config JSON is malformed" in capsys.readouterr().err
    bad.write_text("[1, 2]")
    assert run("gcf", "--sigma", "1", "--config", str(bad)) == 3
    assert f"{bad}: config JSON must be an object" in capsys.readouterr().err
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


@pytest.mark.parametrize("argv, config, name", [
    (("gcf", "--output", "h"), {"sigma": True}, "'sigma'"),
    (("tomogram", "--input", "g_psi.txt", "--output", "h_{index}.txt"),
     {"nu_count": 3.9, "nu_min": -1, "nu_max": 1}, "--nu-count"),
    (("gcf", "--sigma", "1", "--output", "h"), {"width_map": "no"}, "--width-map"),
    (("gcf", "--sigma", "1", "--output", "h"), {"alpha": None}, "'alpha'"),
    (("gcf", "--output", "h"), {"sigma": [1]}, "'sigma'"),
], ids=["bool-for-float", "float-for-int", "string-for-switch", "null", "list"])
def test_config_value_is_parsed_as_its_flag(tmp_path, monkeypatch, capsys, argv, config, name):
    # a config value meets its flag's type: nothing is coerced, nothing is written
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert run(*argv, "--config", "cfg.json") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and name in captured.err
    assert captured.out == ""
    assert list(tmp_path.glob("h*")) == []


def test_config_value_refusal_names_the_file(tmp_path, monkeypatch, capsys):
    # --nu-count is not on the command line, so the refusal must say where it came from
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    (tmp_path / "sweep.json").write_text(json.dumps({"nu_count": 3.9}))
    capsys.readouterr()
    assert run("tomogram", "--input", "g_psi.txt", "--nu-min", "-1", "--nu-max", "1",
               "--config", "sweep.json", "--output", "h_{index}.txt") == 2
    err = capsys.readouterr().err
    assert "argument --nu-count: invalid int value: '3.9'" in err
    assert "--config sweep.json" in err
    assert list(tmp_path.glob("h*")) == []


def test_config_sets_kind_and_the_flag_wins(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    (tmp_path / "cfg.json").write_text(json.dumps({"kind": "fresnel"}))
    assert run("tomogram", "--input", "g_psi.txt", "--config", "cfg.json",
               "--output", "fr.txt") == 0
    assert isinstance(fileio.read_file(tmp_path / "fr.txt")[1], FresnelTomogram)
    assert run("tomogram", "--input", "g_psi.txt", "--config", "cfg.json", "--kind", "optical",
               "--output", "op.txt") == 0
    assert isinstance(fileio.read_file(tmp_path / "op.txt")[1], OpticalTomogram)


def test_one_config_serves_several_kinds(tmp_path, monkeypatch):
    # settings a kind does not read are refused on the command line only
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"nu_min": -1, "nu_max": 1, "nu_count": 3, "theta_count": 9, "x_count": 41}))
    assert run("tomogram", "--input", "g_psi.txt", "--config", "cfg.json",
               "--output", "s_{index}.txt") == 0
    assert run("tomogram", "--input", "g_psi.txt", "--config", "cfg.json", "--kind", "optical",
               "--output", "op.txt") == 0
    _, plane = fileio.read_file(tmp_path / "s_2.txt")
    _, optical = fileio.read_file(tmp_path / "op.txt")
    assert (plane.nu, plane.grid_x.count, optical.grid_theta.count) == (1.0, 41, 9)


@pytest.mark.parametrize("argv", [
    ("gcf", "--sigma", "1", "--output", "missing/g"),
    ("tomogram", "--input", "g_psi.txt", "--nu", "1", "--output", "missing/p.txt"),
    ("reconstruct", "--input", "g_fresnel.txt", "--target", "psi", "--output", "missing/r.txt"),
], ids=["gcf", "tomogram", "reconstruct"])
def test_unwritable_output_is_usage_error(chirped_planes, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "0", "--output", "g") == 0
    argv = [str(chirped_planes / "pl_*.txt") if a == "g_fresnel.txt" else a for a in argv]
    capsys.readouterr()
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write missing/")
    assert "No such file or directory" in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_1_without_a_message(tmp_path, unbuffered):
    # the reader of the pipe is gone before gcf prints its file names
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(os.path.abspath(fileio.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wavetomo.cli", "gcf", "--sigma", "1", "--output", "g"],
            cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
    assert (tmp_path / "g_psi.txt").exists()


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
    assert len(checks) == 8
    assert all(l.startswith("PASS") for l in checks)
    names = {l.split()[1].rstrip(":") for l in checks}
    # the printed-formula disambiguations must be part of the fast level
    assert "width-form-resolution" in names
    assert "optical-fresnel-bridge" in names
    assert "flat-limit" in names
    assert "golden-files" in names


def _listing(d):
    """Every path under d, with a file's bytes."""
    return {str(p.relative_to(d)): p.read_bytes() if p.is_file() else None for p in d.rglob("*")}


def _golden_copy(tmp_path, monkeypatch):
    """A copy of the golden directory, which the oracle table then reads."""
    gdir = tmp_path / "golden"
    shutil.copytree(golden_dir(), gdir)
    monkeypatch.setattr(oracles, "golden_dir", lambda: gdir)
    return gdir


def test_validate_full_regenerates_goldens_byte_for_byte(tmp_path, monkeypatch, capsys):
    # every map is regenerated into a scratch directory and compared there: the golden
    # directory keeps its listing and bytes, and gets no parse cache
    monkeypatch.setenv("NO_COLOR", "1")
    gdir = _golden_copy(tmp_path, monkeypatch)
    before = _listing(gdir)
    assert len(before) == 10
    assert run("validate", "--level", "full") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("ok:")
    checks = [l for l in lines if l.startswith(("PASS", "FAIL"))]
    assert len(checks) == 14
    assert all(l.startswith("PASS") for l in checks)
    assert _listing(gdir) == before
    assert not (gdir / ".wavetomo-cache").exists()


def test_validate_names_a_golden_file_with_one_digit_changed(tmp_path, monkeypatch, capsys):
    # the last digit of one value: within 1e-12 of the closed form, but not its bytes
    monkeypatch.setenv("NO_COLOR", "1")
    gdir = _golden_copy(tmp_path, monkeypatch)
    path = gdir / "golden_s1_a2.txt"
    text = path.read_text()
    head, row, tail = text.partition("\n0 0 ")
    value = row + tail[:tail.index("\n")]
    edited = value[:-1] + ("1" if value[-1] != "1" else "2")
    path.write_text(head + edited + tail[tail.index("\n"):])
    before = _listing(gdir)
    assert run("validate", "--level", "full") == 1
    lines = capsys.readouterr().out.strip().splitlines()
    fails = [l for l in lines if l.startswith("FAIL ")]
    assert len(fails) == 1 and fails[0].startswith("FAIL golden-files: golden_s1_a2.txt differ")
    assert lines[-1].startswith("FAILED: 1 failure(s)")
    assert _listing(gdir) == before


def test_validate_missing_goldens_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NO_COLOR", "1")
    assert run("validate", "--golden-dir", str(tmp_path)) == 2  # no such flag
    capsys.readouterr()
    monkeypatch.setattr(oracles, "golden_dir", lambda: tmp_path)
    assert run("validate") == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(l.startswith("FAIL golden-files: missing golden_") for l in lines)
    assert lines[-1].startswith("FAILED: 1 failure(s)")


def test_reconstruct_reads_the_same_outputs_with_and_without_the_cache(tmp_path, monkeypatch):
    # a parse-cache hit reads what the text parse reads: psi, rho and wigner from a
    # 5-plane sweep are the same bytes before and after the cache is deleted
    monkeypatch.chdir(tmp_path)
    assert run("gcf", "--sigma", "1", "--alpha", "2", "--output", "g") == 0
    assert run("tomogram", "--input", "g_psi.txt", "--nu-min", "-1", "--nu-max", "1",
               "--nu-count", "5", "--output", "pl_{index}.txt") == 0

    def outputs():
        for target in ("psi", "rho", "wigner"):
            assert run("reconstruct", "--input", "pl_*.txt", "--target", target,
                       "--output", f"{target}.txt") == 0, target
        return [(tmp_path / f"{t}.txt").read_bytes() for t in ("psi", "rho", "wigner")]

    cached = outputs()
    assert len(list((tmp_path / ".wavetomo-cache").glob("pl_*.txt.npy"))) == 5
    shutil.rmtree(tmp_path / ".wavetomo-cache")
    assert outputs() == cached


def test_tiny_buffers_write_the_bytes_of_the_defaults(tmp_path, monkeypatch):
    # 3 values per writer chunk, 7-byte scan blocks and one kernel row per block: every file
    # and parse-cache entry of a 5-plane sweep, its psi read-out, a Fresnel map and an
    # optical map is the defaults' byte for byte
    def outputs(d):
        d.mkdir()
        monkeypatch.chdir(d)
        for argv in (
            ["gcf", "--sigma", "1", "--alpha", "2", "--x-count", "257", "--output", "g"],
            ["tomogram", "--input", "g_psi.txt", "--nu-min", "-1", "--nu-max", "1",
             "--nu-count", "5", "--output", "pl_{index}.txt"],
            ["reconstruct", "--input", "pl_*.txt", "--target", "psi", "--output", "psi.txt"],
            ["tomogram", "--kind", "fresnel", "--input", "g_psi.txt", "--x-count", "81",
             "--nu-count", "21", "--output", "fresnel.txt"],
            ["tomogram", "--kind", "optical", "--input", "g_psi.txt", "--x-count", "61",
             "--theta-count", "17", "--output", "optical.txt"],
        ):
            assert run(*argv) == 0, argv
        return {str(p.relative_to(d)): p.read_bytes() for p in d.rglob("*") if p.is_file()}

    want = outputs(tmp_path / "defaults")
    monkeypatch.setattr(fileio, "_CHUNK", 3)
    monkeypatch.setattr(fileio, "_SCAN_BYTES", 7)
    monkeypatch.setattr(tomography, "_KERNEL_BYTES", 1)
    got = outputs(tmp_path / "tiny")
    assert len(want) == 2 * 10 and got == want


# ---------------------------------------------------------------------------
# README


def _readme_command_lines():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as f:
        text = f.read()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.sub(r"\\\n\s*", "", section)  # join continued lines
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("    wavetomo ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # every example of README "Command line", in order, exits 0
    lines = _readme_command_lines()
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert run(*argv) == 0, (argv, capsys.readouterr().err)
