"""Command-line interface.

Subcommands:
  gcf          write the chirped-Gaussian model state and its mu=1 tomogram map
  tomogram     compute a tomogram of a wavefunction file (symplectic/fresnel/optical)
  tomogram-nd  evaluate a product-state tomogram at one (X, mu, nu) tuple
  reconstruct  invert tomogram plane files to psi, the density matrix, or Wigner
  validate     run the oracle table of wavetomo.oracles, which the tests also run

Exit codes: 0 success; 1 validation-suite failure; 2 usage error; 3 file
parse error; 4 degenerate point or vanishing anchor value; 5 missing nu=0
anchor plane. gcf, tomogram and reconstruct take --config; precedence is
flags > --config JSON > defaults, and a JSON key must be a flag's dest
(``x_count`` for ``--x-count``), or the run exits 2. The effective
settings are echoed into each output file's provenance.
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
from .analytic import GcfParams, gcf_fresnel_analytic, gcf_sampled, gcf_width
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
from .grid import SampledWavefunction, UniformGrid1D
from .reconstruct import (
    InversionConfig,
    density_matrix_from_planes,
    reconstruct_psi,
    wigner_from_planes,
)
from .tomography import (
    OpticalTomogram,
    TomogramPlane,
    fresnel_tomogram,
    optical_tomogram_map,
    plane_grids_for_slice,
    symplectic_tomogram,
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
    # a key is valid when it names one of this subcommand's flags
    known = {k for k in vars(args) if not k.startswith("_")} - {"func", "command", "config"}
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise UsageError(
            f"config key(s) {', '.join(map(repr, unknown))} are not flags of "
            f"{args.command!r}; valid keys: {', '.join(sorted(known))}"
        )
    return cfg


def _eff(args, cfg: dict, name: str, default):
    v = getattr(args, name, None)
    if v is not None:
        return v
    if name in cfg:
        return cfg[name]
    return default


def _finite(flag: str, value) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise UsageError(f"{flag} must be finite, got {v!r}")
    return v


def _grid_from(eff, axis: str, dmin: float, dmax: float, dcount: int) -> UniformGrid1D:
    lo = _finite(f"--{axis}-min", eff(f"{axis}_min", dmin))
    hi = _finite(f"--{axis}-max", eff(f"{axis}_max", dmax))
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
    prefix = eff("output", f"gcf_s{fileio._tag(sigma)}_a{fileio._tag(alpha)}")
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
            gt = UniformGrid1D(_finite("--theta", theta), math.pi / 2.0, 2)
        else:
            gt = _grid_from(eff, "theta", 0.0, math.pi, 65)
        effective = {"kind": kind, "x": [gx.start, gx.end, gx.count],
                     "theta": [gt.start, gt.end, gt.count]}
        fileio.write_file(out, optical_tomogram_map(psi, gx, gt), meta,
                          _provenance(args, effective))
        print(out)
        return 0

    # symplectic planes
    nu_single = eff("nu", None)
    if nu_single is not None:
        nus = [_finite("--nu", nu_single)]
    else:
        lo, hi = eff("nu_min", None), eff("nu_max", None)
        n = eff("nu_count", None)
        if lo is None or hi is None or n is None:
            raise UsageError("symplectic needs --nu or --nu-min/--nu-max/--nu-count")
        lo, hi, n = _finite("--nu-min", lo), _finite("--nu-max", hi), int(n)
        if not (hi > lo) or n < 2:
            raise UsageError("--nu-min/--nu-max/--nu-count must satisfy max > min, count >= 2")
        nus = list(np.linspace(lo, hi, n))
    if len(nus) > 1 and "{index}" not in out and "{nu}" not in out:
        raise UsageError("multi-plane output needs an {index} or {nu} placeholder in --output")
    paths = [_format_pattern(out, i, nu) for i, nu in enumerate(nus)]
    first = {}
    for path, nu in zip(paths, nus):
        if first.setdefault(path, nu) != nu:
            raise UsageError(f"planes nu={float(first[path])!r} and nu={float(nu)!r} both "
                             f"write {path}; use {{index}} in --output")

    explicit_x = eff("x_min", None) is not None or eff("x_max", None) is not None
    explicit_mu = eff("mu_min", None) is not None or eff("mu_max", None) is not None
    moments = wavefunction_moments(psi)
    for nu, path in zip(nus, paths):
        if explicit_x or explicit_mu:
            gx = _grid_from(eff, "x", -8.0, 8.0, 257)
            gmu = _grid_from(eff, "mu", -10.0, 10.0, 128)
        else:
            gx, gmu = plane_grids_for_slice(nu, moments)
        plane = symplectic_tomogram_plane(psi, gx, gmu, nu)
        effective = {"kind": kind, "nu": nu, "x": [gx.start, gx.end, gx.count],
                     "mu": [gmu.start, gmu.end, gmu.count]}
        fileio.write_file(path, plane, meta, _provenance(args, effective))
    for name in paths:
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
        if not all(map(math.isfinite, vals)):
            raise UsageError(f"--point group {g!r} has a non-finite component")
        out.append(vals)
    return out


def _cmd_tomogram_nd(args) -> int:
    files = args.input or []
    if not 1 <= len(files) <= 3:
        raise UsageError("give 1 to 3 --input wavefunction files (one per axis)")
    factors = [_read_wavefunction(path)[1] for path in files]
    Xs, mus, nus = _parse_point(args.point, len(factors))
    # the product state's tomogram is the product of its factors' tomograms
    w = math.prod(map(symplectic_tomogram, factors, Xs, mus, nus))
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


def _cmd_validate(args) -> int:
    from . import oracles  # the other subcommands never load the oracle table

    gdir = Path(args.golden_dir) if args.golden_dir else oracles.golden_dir()
    color = sys.stdout.isatty() and not os.environ.get("NO_COLOR")
    tags = ("\x1b[31mFAIL\x1b[0m", "\x1b[32mPASS\x1b[0m") if color else ("FAIL", "PASS")
    failures = 0
    t0 = time.monotonic()
    for name, level, check in oracles.ORACLES:
        if level == "fast" or args.level == "full":
            ok, detail = check(gdir)
            failures += not ok
            print(f"{tags[bool(ok)]} {name}: {detail}")
    dt = time.monotonic() - t0
    print(f"{'ok' if failures == 0 else 'FAILED'}: "
          f"{failures} failure(s), level={args.level}, {dt:.1f}s")
    return 0 if failures == 0 else 1


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
