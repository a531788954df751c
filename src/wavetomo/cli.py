"""Command-line interface.

Subcommands:
  gcf          write the chirped-Gaussian model state and its mu=1 tomogram map
  tomogram     compute a tomogram of a wavefunction file (symplectic/fresnel/optical)
  tomogram-nd  evaluate a product-state tomogram at one (X, mu, nu) tuple
  reconstruct  invert tomogram plane files to psi, the density matrix, or Wigner
  validate     run the built-in oracle suite and golden-file checks

Exit codes: 0 success; 1 validation-suite failure; 2 usage error; 3 file
parse error; 4 degenerate point or vanishing anchor value; 5 missing nu=0
anchor plane. Configuration precedence is flags > --config JSON > defaults;
the effective settings are echoed into each output file's provenance.
``NO_COLOR`` (or a non-tty stdout) disables the PASS/FAIL coloring.
"""
from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import fileio
from .analytic import (
    GcfParams,
    analytic_plane_set,
    gcf_autocorrelation,
    gcf_fresnel_analytic,
    gcf_plane_analytic,
    gcf_psi,
    gcf_sampled,
    gcf_tomogram_analytic,
    gcf_tomogram_ft_analytic,
    gcf_width,
)
from .errors import (
    DegeneratePointError,
    DomainLookupError,
    ManifestError,
    MissingAnchorError,
    NodeAtOriginError,
    SingularFrequencyError,
    UnsupportedSizeError,
    WavetomoError,
)
from .grid import ComplexField1D, SampledWavefunction, UniformGrid1D, dft2_at
from .reconstruct import (
    InversionConfig,
    density_matrix_from_planes,
    reconstruct_psi,
    wigner_from_planes,
)
from .tomography import (
    EPS_NU,
    NdWavefunction,
    OpticalTomogram,
    TomogramPlane,
    fresnel_tomogram,
    optical_tomogram,
    plane_grids_for_slice,
    symplectic_tomogram,
    symplectic_tomogram_nd,
    symplectic_tomogram_plane,
    wavefunction_moments,
)

__all__ = ["main"]


class UsageError(WavetomoError):
    """Bad flag combination or inputs of the wrong kind."""


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so main() owns the exit code
    def error(self, message):
        raise UsageError(message)


GOLDEN_COMBOS = [
    (s, a) for s in (0.5, 1.0) for a in (0.0, 0.5, 1.0, 2.0, 3.0)
]
GOLDEN_GRID_X = UniformGrid1D.symmetric(4.0, 41)
GOLDEN_GRID_NU = UniformGrid1D.symmetric(2.0, 21)


def _tag(v: float) -> str:
    return ("%g" % v).replace(".", "p").replace("-", "m")


def golden_name(sigma: float, alpha: float) -> str:
    return f"golden_s{_tag(sigma)}_a{_tag(alpha)}.txt"


def golden_dir() -> Path:
    return Path(__file__).resolve().parent / "golden"


# ---------------------------------------------------------------------------
# flag plumbing


def _add_config_flag(p: _Parser) -> None:
    p.add_argument("--config", help="JSON file of default flag values (flags win)")


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except OSError as e:
        raise UsageError(f"cannot read config: {e}")
    except json.JSONDecodeError as e:
        raise ManifestError(f"config JSON is malformed: {e}")
    if not isinstance(cfg, dict):
        raise ManifestError("config JSON must be an object of flag: value pairs")
    return cfg


def _eff(args, cfg: dict, name: str, default):
    v = getattr(args, name, None)
    if v is not None:
        return v
    if name in cfg:
        return cfg[name]
    return default


def _grid_from(eff, axis: str, dmin: float, dmax: float, dcount: int) -> UniformGrid1D:
    lo = float(eff(f"{axis}_min", dmin))
    hi = float(eff(f"{axis}_max", dmax))
    n = int(eff(f"{axis}_count", dcount))
    if not (hi > lo) or n < 2:
        raise UsageError(f"--{axis}-min/--{axis}-max/--{axis}-count must satisfy max > min, count >= 2")
    return UniformGrid1D(lo, (hi - lo) / (n - 1), n)


def _provenance(args, effective: dict) -> str:
    cmd = "wavetomo " + " ".join(getattr(args, "_argv", []))
    return f"{cmd} | effective: {json.dumps(effective, sort_keys=True)}"


def _diag(**kv) -> None:
    for k, v in kv.items():
        print(f"{k}={v:.6e}" if isinstance(v, float) else f"{k}={v}", file=sys.stderr)


# ---------------------------------------------------------------------------
# gcf


def _cmd_gcf(args) -> int:
    cfg = _load_config(args)
    eff = lambda n, d: _eff(args, cfg, n, d)
    sigma = float(eff("sigma", None) or 0.0)
    if sigma <= 0:
        raise UsageError("--sigma must be given and positive")
    alpha = float(eff("alpha", 0.0))
    p = GcfParams(sigma, alpha)
    x_count = int(eff("x_count", 1025))
    gx = _grid_from(eff, "xp", -6.0, 6.0, 121)
    gn = _grid_from(eff, "nup", -3.0, 3.0, 61)
    prefix = eff("output", f"gcf_s{_tag(sigma)}_a{_tag(alpha)}")
    effective = {
        "sigma": sigma, "alpha": alpha, "x_count": x_count,
        "xp": [gx.start, gx.end, gx.count], "nup": [gn.start, gn.end, gn.count],
    }
    prov = _provenance(args, effective)
    meta = {"sigma": sigma, "alpha": alpha}

    psi = gcf_sampled(p, count=x_count)
    fileio.write_file(f"{prefix}_psi.txt", psi, meta, prov)
    written = [f"{prefix}_psi.txt"]

    # the (X', nu') map at mu = 1: the two-argument face every 3D surface plot shows
    wf = gcf_fresnel_analytic(p, gx, gn)
    fileio.write_file(f"{prefix}_fresnel.txt", wf, meta, prov)
    written.append(f"{prefix}_fresnel.txt")

    if eff("width_map", False):
        widths = np.array([gcf_width(p, 1.0, nu) for nu in gn.points])
        fileio.write_file(f"{prefix}_width.txt", fileio.WidthMap(gn, widths), meta, prov)
        written.append(f"{prefix}_width.txt")
    for name in written:
        print(name)
    return 0


# ---------------------------------------------------------------------------
# tomogram


def _read_wavefunction(path) -> tuple[dict, SampledWavefunction]:
    manifest, payload = fileio.read_file(path)
    if not isinstance(payload, SampledWavefunction):
        raise UsageError(f"{path}: expected a wavefunction file, got kind {manifest.kind!r}")
    return manifest.params, payload


def _format_pattern(pattern: str, index: int, nu: float) -> str:
    return pattern.replace("{index}", str(index)).replace("{nu}", "%g" % nu)


def _cmd_tomogram(args) -> int:
    cfg = _load_config(args)
    eff = lambda n, d: _eff(args, cfg, n, d)
    if not args.input:
        raise UsageError("--input is required")
    params, psi = _read_wavefunction(args.input)
    kind = args.kind
    out = eff("output", None)
    if not out:
        raise UsageError("--output is required")
    meta = {k: params[k] for k in ("sigma", "alpha") if k in params}

    if kind == "fresnel":
        gx = _grid_from(eff, "x", -8.0, 8.0, 161)
        gn = _grid_from(eff, "nu", -2.0, 2.0, 41)
        effective = {"kind": kind, "x": [gx.start, gx.end, gx.count],
                     "nu": [gn.start, gn.end, gn.count]}
        wf = fresnel_tomogram(psi, gx, gn)
        fileio.write_file(out, wf, meta, _provenance(args, effective))
        print(out)
        return 0

    if kind == "optical":
        gx = _grid_from(eff, "x", -6.0, 6.0, 121)
        theta = eff("theta", None)
        if theta is not None:
            # one requested angle plus its conjugate quadrature
            gt = UniformGrid1D(float(theta), math.pi / 2.0, 2)
        else:
            gt = _grid_from(eff, "theta", 0.0, math.pi, 65)
        effective = {"kind": kind, "x": [gx.start, gx.end, gx.count],
                     "theta": [gt.start, gt.end, gt.count]}
        vals = np.empty((gx.count, gt.count))
        for j, t in enumerate(gt.points):
            for i, x in enumerate(gx.points):
                vals[i, j] = optical_tomogram(psi, float(x), float(t))
        fileio.write_file(out, OpticalTomogram(gx, gt, vals), meta,
                          _provenance(args, effective))
        print(out)
        return 0

    # symplectic planes
    nu_single = eff("nu", None)
    if nu_single is not None:
        nus = [float(nu_single)]
    else:
        lo, hi = eff("nu_min", None), eff("nu_max", None)
        n = eff("nu_count", None)
        if lo is None or hi is None or n is None:
            raise UsageError("symplectic needs --nu or --nu-min/--nu-max/--nu-count")
        lo, hi, n = float(lo), float(hi), int(n)
        if not (hi > lo) or n < 2:
            raise UsageError("--nu-min/--nu-max/--nu-count must satisfy max > min, count >= 2")
        nus = list(np.linspace(lo, hi, n))
    if len(nus) > 1 and "{index}" not in out and "{nu}" not in out:
        raise UsageError("multi-plane output needs an {index} or {nu} placeholder in --output")

    explicit_x = eff("x_min", None) is not None or eff("x_max", None) is not None
    explicit_mu = eff("mu_min", None) is not None or eff("mu_max", None) is not None
    moments = wavefunction_moments(psi)
    nonzero = [abs(v) for v in nus if abs(v) > EPS_NU]
    nu_floor = 0.5 * min(nonzero) if nonzero else 0.1
    written = []
    for i, nu in enumerate(nus):
        if explicit_x or explicit_mu:
            gx = _grid_from(eff, "x", -8.0, 8.0, 257)
            gmu = _grid_from(eff, "mu", -10.0, 10.0, 128)
        else:
            gx, gmu = plane_grids_for_slice(nu, moments, nu_floor)
        plane = symplectic_tomogram_plane(psi, gx, gmu, nu)
        effective = {"kind": kind, "nu": nu, "x": [gx.start, gx.end, gx.count],
                     "mu": [gmu.start, gmu.end, gmu.count]}
        path = _format_pattern(out, i, nu)
        fileio.write_file(path, plane, meta, _provenance(args, effective))
        written.append(path)
    for name in written:
        print(name)
    return 0


# ---------------------------------------------------------------------------
# tomogram-nd


def _parse_point(text: str, n: int):
    groups = text.split(";")
    if len(groups) != 3:
        raise UsageError('--point must be "X1,..;mu1,..;nu1,.." (three ; groups)')
    out = []
    for g in groups:
        try:
            vals = [float(t) for t in g.split(",")]
        except ValueError:
            raise UsageError(f"non-numeric component in --point group {g!r}")
        if len(vals) != n:
            raise UsageError(f"--point group {g!r} has {len(vals)} components, expected {n}")
        out.append(vals)
    return out


def _cmd_tomogram_nd(args) -> int:
    files = args.input or []
    if not 1 <= len(files) <= 3:
        raise UsageError("give 1 to 3 --input wavefunction files (one per axis)")
    factors = []
    for path in files:
        _, psi = _read_wavefunction(path)
        factors.append(psi)
    n = len(factors)
    Xs, mus, nus = _parse_point(args.point, n)
    values = factors[0].values
    for f in factors[1:]:
        values = np.multiply.outer(values, f.values)
    grids = tuple(f.grid for f in factors)
    sep = tuple(ComplexField1D(f.grid, f.values) for f in factors) if n == 3 else None
    psi_nd = NdWavefunction(grids, values, sep)
    w = symplectic_tomogram_nd(psi_nd, Xs, mus, nus)
    print(format(w, ".17g"))
    return 0


# ---------------------------------------------------------------------------
# reconstruct


def _expand_inputs(paths) -> list[str]:
    """Expand glob patterns so quoted wildcards work on any shell."""
    out: list[str] = []
    for path in paths:
        if any(c in path for c in "*?["):
            hits = sorted(glob.glob(path))
            if not hits:
                raise UsageError(f"no files match {path!r}")
            out.extend(hits)
        else:
            out.append(path)
    return out


def _read_planes(paths) -> list[TomogramPlane]:
    planes = []
    for path in _expand_inputs(paths):
        manifest, payload = fileio.read_file(path)
        if not isinstance(payload, TomogramPlane):
            raise UsageError(
                f"{path}: expected symplectic tomogram planes, got kind {manifest.kind!r}"
                + (" (optical variant)" if isinstance(payload, OpticalTomogram) else "")
            )
        planes.append(payload)
    return planes


def _cmd_reconstruct(args) -> int:
    cfg = _load_config(args)
    eff = lambda n, d: _eff(args, cfg, n, d)
    if not args.input:
        raise UsageError("at least one --input tomogram plane file is required")
    out = eff("output", None)
    if not out:
        raise UsageError("--output is required")
    inv = InversionConfig(taper_fraction=float(eff("taper", 0.2)))
    planes = _read_planes(args.input)
    effective = {"target": args.target, "taper": inv.taper_fraction, "inputs": len(planes)}
    prov = _provenance(args, effective)

    if args.target == "psi":
        rec = reconstruct_psi(planes, inv)
        fileio.write_file(out, rec.psi, {}, prov)
        _diag(prenorm_l2=rec.prenorm_l2, anchor=rec.anchor, anchor_imag=rec.anchor_imag)
    elif args.target == "rho":
        dm = density_matrix_from_planes(planes, inv)
        fileio.write_file(out, dm, {}, prov)
        _diag(asymmetry=dm.asymmetry, trace_step=dm.trace_times_step)
    else:
        gq = _grid_from(eff, "q", -4.0, 4.0, 81)
        gp = _grid_from(eff, "p", -4.0, 4.0, 81)
        w = wigner_from_planes(planes, gq, gp, inv)
        fileio.write_file(out, w, {}, prov)
        _diag(imag_residue=w.imag_residue, normalization=w.normalization())
    print(out)
    return 0


# ---------------------------------------------------------------------------
# validate


class _Report:
    def __init__(self) -> None:
        self.failures = 0
        use_color = sys.stdout.isatty() and not os.environ.get("NO_COLOR")
        self._ok = "\x1b[32mPASS\x1b[0m" if use_color else "PASS"
        self._bad = "\x1b[31mFAIL\x1b[0m" if use_color else "FAIL"

    def check(self, name: str, ok: bool, detail: str) -> None:
        tag = self._ok if ok else self._bad
        if not ok:
            self.failures += 1
        print(f"{tag} {name}: {detail}")


def _quad_tomogram(p: GcfParams, X: float, mu: float, nu: float, n: int = 4096) -> float:
    psi = gcf_sampled(p, count=n)
    return symplectic_tomogram(psi, X, mu, nu)


def _validate_fast(rep: _Report, gdir: Path) -> None:
    # closed form vs quadrature
    worst = 0.0
    for s, a in ((1.0, 0.0), (1.0, 1.0), (0.5, 3.0)):
        p = GcfParams(s, a)
        for X in (-2.0, 0.0, 2.0):
            for mu in (-1.0, 0.5, 2.0):
                for nu in (0.25, 1.0, 2.0):
                    got = _quad_tomogram(p, X, mu, nu)
                    worst = max(worst, abs(got - gcf_tomogram_analytic(p, X, mu, nu)))
    rep.check("tomogram-closed-form", worst <= 1e-6, f"max dev vs quadrature {worst:.2e}")

    # which width reading matches a numeric profile (the printed candidates differ off sigma=1)
    p = GcfParams(0.5, 0.0)
    mu, nu = 1.0, 0.5
    w0 = _quad_tomogram(p, 0.0, mu, nu)
    x_probe = 0.4
    wx = _quad_tomogram(p, x_probe, mu, nu)
    omega_fit = x_probe / math.sqrt(-math.log(wx / w0))
    quartic = math.sqrt((4 * nu**2 + p.sigma**4 * mu**2) / (2 * p.sigma**2))
    quadratic = math.sqrt((4 * nu**2 + p.sigma**2 * mu**2) / (2 * p.sigma**2))
    ok = abs(omega_fit - quartic) <= 1e-6 and abs(omega_fit - quadratic) > 1e-2
    rep.check(
        "width-form-resolution", ok,
        f"fitted width {omega_fit:.8f}; quartic-sigma form {quartic:.8f} matches, "
        f"quadratic-sigma alternative {quadratic:.8f} deviates {abs(omega_fit - quadratic):.2e}",
    )

    # plane transform closed form vs direct 2D sum; the closed-form plane is
    # legitimate input here because the first check ties it to quadrature at
    # machine precision, and it lets the grids cover the wide edge columns
    p = GcfParams(1.0, 1.0)
    nu = 0.5
    gx = UniformGrid1D.symmetric(40.0, 1601)
    gmu = UniformGrid1D(-17.0, 0.1, 321)
    plane = gcf_plane_analytic(p, gx, gmu, nu)
    worst = 0.0
    for om_x, om_mu in ((1.0, -0.25), (0.7, 0.3), (1.5, 0.0)):
        got = dft2_at(gx, gmu, plane.values, om_x, om_mu)
        want = gcf_tomogram_ft_analytic(p, om_x, om_mu, nu)
        worst = max(worst, abs(got - want))
    rep.check("plane-transform-closed-form", worst <= 1e-6, f"max dev {worst:.2e}")

    slice_val = dft2_at(gx, gmu, plane.values, 1.0, -0.5 * nu)
    want = gcf_autocorrelation(p, nu)
    dev = abs(slice_val - want)
    rep.check("autocorrelation-slice", dev <= 1e-6,
              f"slice at (1, -nu/2) dev {dev:.2e} incl. chirp phase")

    # homogeneity w(lX, lmu, lnu) = w/|l|
    worst = 0.0
    for s, a in ((1.0, 1.0), (0.5, 2.0)):
        p = GcfParams(s, a)
        psi = gcf_sampled(p, count=4097)
        for lam in (-2.0, 0.5, 3.0):
            base = symplectic_tomogram(psi, 0.7, 0.9, 0.6)
            scaled = symplectic_tomogram(psi, lam * 0.7, lam * 0.9, lam * 0.6)
            worst = max(worst, abs(scaled - base / abs(lam)) / base)
    rep.check("homogeneity", worst <= 1e-8,
              f"max rel dev {worst:.2e} over scale factors -2, 0.5, 3")

    # which optical/Fresnel bridge holds
    p = GcfParams(1.0, 1.0)
    psi = gcf_sampled(p, count=4097)
    dev_good = dev_alt = 0.0
    for theta in (0.3, 1.0, 2.2):
        for X in (-0.8, 0.4):
            direct = optical_tomogram(psi, X, theta)
            c, s_ = math.cos(theta), math.sin(theta)
            good = gcf_tomogram_analytic(p, X / c, 1.0, s_ / c) / abs(c)
            alt = gcf_tomogram_analytic(p, X / s_, 1.0, c / s_) / abs(s_)
            dev_good = max(dev_good, abs(direct - good))
            dev_alt = max(dev_alt, abs(direct - alt))
    rep.check(
        "optical-fresnel-bridge", dev_good <= 1e-6 and dev_alt > 1e-2,
        f"(X/cos, tan)/|cos| form matches to {dev_good:.2e}; "
        f"(X/sin, cot)/|sin| alternative deviates {dev_alt:.2e}",
    )

    # chirp shift: alpha state equals alpha=0 state at mu + 2*alpha*nu
    pa = GcfParams(1.0, 2.0)
    p0 = GcfParams(1.0, 0.0)
    dev = max(
        abs(gcf_tomogram_analytic(pa, X, mu, nu) - gcf_tomogram_analytic(p0, X, mu + 2 * 2.0 * nu, nu))
        for X in (-1.0, 0.5)
        for mu in (0.3, 1.2)
        for nu in (0.4, 1.5)
    )
    rep.check("chirp-shift", dev <= 1e-12, f"max dev {dev:.2e}")

    # mu=1 line of the symplectic map is the Fresnel map
    p = GcfParams(1.0, 1.0)
    psi = gcf_sampled(p, count=2049)
    gx = UniformGrid1D.symmetric(4.0, 17)
    gn = UniformGrid1D.symmetric(1.5, 7)
    wf = fresnel_tomogram(psi, gx, gn)
    dev = max(
        abs(wf.values[i, j] - symplectic_tomogram(psi, float(gx.point(i)), 1.0, float(nu)))
        for i in (0, 8, 16)
        for j, nu in enumerate(gn.points)
    )
    rep.check("fresnel-is-mu1-line", dev <= 1e-10, f"max dev {dev:.2e}")

    # each profile is a unit-mass distribution
    gx_wide = UniformGrid1D.symmetric(12.0, 1201)
    worst = 0.0
    for s, a in ((1.0, 1.0), (0.5, 0.5)):
        p = GcfParams(s, a)
        for mu, nu in ((1.0, 0.5), (0.2, 1.5)):
            prof = gcf_tomogram_analytic(p, gx_wide.points, mu, nu)
            worst = max(worst, abs(float(np.trapezoid(prof, dx=gx_wide.step)) - 1.0))
    rep.check("profile-normalization", worst <= 1e-4, f"max |integral - 1| {worst:.2e}")

    p = GcfParams(1.0, 1.0)
    psi = gcf_sampled(p, count=2049)
    plane = symplectic_tomogram_plane(psi, UniformGrid1D.symmetric(6.0, 101),
                                      UniformGrid1D.symmetric(4.0, 41), 0.7)
    rep.check("nonnegativity", float(plane.values.min()) >= -1e-10,
              f"min plane value {float(plane.values.min()):.2e}")

    # peak shrink with chirp, and its softening at smaller width
    heights = {}
    for s in (1.0, 0.5):
        hs = [gcf_tomogram_analytic(GcfParams(s, a), 0.0, 1.0, 0.5) for a in (0.5, 1.0, 2.0, 3.0)]
        heights[s] = hs
    mono = all(b < a for a, b in zip(heights[1.0], heights[1.0][1:]))
    rel_1 = (heights[1.0][0] - heights[1.0][-1]) / heights[1.0][0]
    rel_05 = (heights[0.5][0] - heights[0.5][-1]) / heights[0.5][0]
    rep.check(
        "chirp-peak-shrink", mono and rel_05 < rel_1,
        f"relative drop {rel_1:.4f} at width 1 vs {rel_05:.4f} at width 0.5",
    )

    # golden files agree with the closed form
    worst = -1.0
    missing = []
    for s, a in GOLDEN_COMBOS:
        path = gdir / golden_name(s, a)
        if not path.exists():
            missing.append(path.name)
            continue
        _, wf = fileio.read_file(path)
        want = gcf_fresnel_analytic(GcfParams(s, a), wf.grid_x, wf.grid_nu)
        worst = max(worst, float(np.max(np.abs(wf.values - want.values))))
    if missing:
        rep.check("golden-files", False, f"missing {', '.join(missing)}")
    else:
        rep.check("golden-files", 0.0 <= worst <= 1e-12, f"max dev vs closed form {worst:.2e}")


def _regen_golden(gdir: Path) -> list[str]:
    gdir.mkdir(parents=True, exist_ok=True)
    written = []
    for s, a in GOLDEN_COMBOS:
        p = GcfParams(s, a)
        wf = gcf_fresnel_analytic(p, GOLDEN_GRID_X, GOLDEN_GRID_NU)
        path = gdir / golden_name(s, a)
        fileio.write_file(
            path, wf, {"sigma": s, "alpha": a},
            "wavetomo validate --level full (golden regeneration)",
        )
        written.append(str(path))
    return written


def _validate_full(rep: _Report, gdir: Path) -> None:
    written = _regen_golden(gdir)
    ok = all(Path(w).exists() for w in written)
    rep.check("golden-regeneration", ok, f"rewrote {len(written)} files in {gdir}")

    # round-trip bit-exactness on one regenerated file
    path = gdir / golden_name(1.0, 1.0)
    _, wf = fileio.read_file(path)
    want = gcf_fresnel_analytic(GcfParams(1.0, 1.0), wf.grid_x, wf.grid_nu)
    exact = np.array_equal(wf.values, want.values)
    rep.check("golden-round-trip", exact, "read-back equals generator bit for bit")

    # end-to-end wavefunction recovery on one chirped case
    p = GcfParams(1.0, 1.0)
    nus = np.linspace(-4.0, 4.0, 129)
    planes = analytic_plane_set(p, [float(v) for v in nus])
    rec = reconstruct_psi(planes)
    target = gcf_psi(p, rec.psi.grid.points)
    step = rec.psi.grid.step
    err = np.sqrt(np.trapezoid(np.abs(rec.psi.values - target) ** 2, dx=step))
    rep.check("end-to-end-psi", float(err) <= 1e-3,
              f"relative L2 error {float(err):.2e} on a 129-plane sweep")


def _cmd_validate(args) -> int:
    level = args.level
    gdir = Path(args.golden_dir) if args.golden_dir else golden_dir()
    rep = _Report()
    t0 = time.monotonic()
    if level == "full":
        _validate_full(rep, gdir)
    _validate_fast(rep, gdir)
    dt = time.monotonic() - t0
    print(f"{'ok' if rep.failures == 0 else 'FAILED'}: "
          f"{rep.failures} failure(s), level={level}, {dt:.1f}s")
    return 0 if rep.failures == 0 else 1


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    top = _Parser(prog="wavetomo", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gcf", help="write the chirped-Gaussian datasets")
    g.add_argument("--sigma", type=float)
    g.add_argument("--alpha", type=float)
    g.add_argument("--x-count", type=int, dest="x_count")
    for ax in ("xp", "nup"):
        g.add_argument(f"--{ax}-min", type=float, dest=f"{ax}_min")
        g.add_argument(f"--{ax}-max", type=float, dest=f"{ax}_max")
        g.add_argument(f"--{ax}-count", type=int, dest=f"{ax}_count")
    g.add_argument("--width-map", action="store_const", const=True, dest="width_map")
    g.add_argument("--output")
    _add_config_flag(g)
    g.set_defaults(func=_cmd_gcf)

    t = sub.add_parser("tomogram", help="tomogram of a wavefunction file")
    t.add_argument("--input", required=True)
    t.add_argument("--kind", choices=("symplectic", "fresnel", "optical"),
                   default="symplectic")
    t.add_argument("--nu", type=float)
    t.add_argument("--theta", type=float)
    for ax in ("x", "mu", "nu", "theta"):
        t.add_argument(f"--{ax}-min", type=float, dest=f"{ax}_min")
        t.add_argument(f"--{ax}-max", type=float, dest=f"{ax}_max")
        t.add_argument(f"--{ax}-count", type=int, dest=f"{ax}_count")
    t.add_argument("--output")
    _add_config_flag(t)
    t.set_defaults(func=_cmd_tomogram)

    n = sub.add_parser("tomogram-nd", help="product-state tomogram at one point")
    n.add_argument("--input", action="append")
    n.add_argument("--point", required=True,
                   help='"X1,..;mu1,..;nu1,.." with one component per axis')
    _add_config_flag(n)
    n.set_defaults(func=_cmd_tomogram_nd)

    r = sub.add_parser("reconstruct", help="invert tomogram planes")
    r.add_argument("--input", action="extend", nargs="+")
    r.add_argument("--target", choices=("psi", "rho", "wigner"), required=True)
    r.add_argument("--taper", type=float)
    for ax in ("q", "p"):
        r.add_argument(f"--{ax}-min", type=float, dest=f"{ax}_min")
        r.add_argument(f"--{ax}-max", type=float, dest=f"{ax}_max")
        r.add_argument(f"--{ax}-count", type=int, dest=f"{ax}_count")
    r.add_argument("--output")
    _add_config_flag(r)
    r.set_defaults(func=_cmd_reconstruct)

    v = sub.add_parser("validate", help="run the oracle suite")
    v.add_argument("--level", choices=("fast", "full"), default="fast")
    v.add_argument("--golden-dir", dest="golden_dir")
    _add_config_flag(v)
    v.set_defaults(func=_cmd_validate)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:  # --help
        return 0 if e.code in (None, 0) else 2
    args._argv = argv
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ManifestError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 3
    except (DegeneratePointError, NodeAtOriginError, DomainLookupError,
            SingularFrequencyError) as e:
        print(f"degenerate request: {e}", file=sys.stderr)
        return 4
    except MissingAnchorError as e:
        print(f"missing anchor: {e}", file=sys.stderr)
        return 5
    except (UnsupportedSizeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
