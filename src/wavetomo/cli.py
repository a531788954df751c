"""Command-line interface.

Subcommands:
  gcf          write the chirped-Gaussian model state and its mu=1 tomogram map
  tomogram     compute a tomogram of a wavefunction file (symplectic/fresnel/optical)
  tomogram-nd  evaluate a product-state tomogram at one (X, mu, nu) tuple
  reconstruct  invert tomogram plane files to psi, the density matrix, or Wigner
  validate     run the oracle table of wavetomo.oracles, which the tests also run

Exit codes: 0 success; 1 validation-suite failure, or a standard output
closed early (nothing is printed then); 2 usage error or an output file that
cannot be written; 3 file parse error; 4 degenerate point or vanishing
anchor value; 5 missing nu=0 anchor plane. gcf, tomogram and reconstruct
take --config; precedence is flags > --config JSON > defaults. A JSON key
must be a flag's dest (``x_count`` for ``--x-count``) and its value is
parsed as that flag's value, or the run exits 2 naming the file. The effective
settings are echoed into each output file's provenance.
``NO_COLOR`` (or a non-tty stdout) disables the PASS/FAIL coloring.
"""
from __future__ import annotations

import argparse
import gc
import glob
import importlib
import json
import math
import os
import sys
import time
from typing import Iterator

import numpy as np

from . import fileio
from .errors import (
    DegeneratePointError,
    DomainLookupError,
    ManifestError,
    MissingAnchorError,
    NodeAtOriginError,
    SingularFrequencyError,
    WavetomoError,
)
from .grid import SampledWavefunction, UniformGrid1D
from .tomography import (
    NdWavefunction,
    OpticalTomogram,
    TomogramPlane,
    fresnel_tomogram,
    optical_tomogram,
    plane_grids_for_slice,
    symplectic_tomogram_nd,
    symplectic_tomogram_plane,
    wavefunction_moments,
)

__all__ = ["main"]

# the names of the library modules that only some subcommands run: a handler
# binds its module's names here before it calls them, so each process imports
# only what its subcommand runs, and a lookup from outside binds them too
_LAZY = {
    "analytic": ("GcfParams", "gcf_fresnel_analytic", "gcf_sampled", "gcf_width"),
    "reconstruct": ("InversionConfig", "density_matrix_from_planes", "reconstruct_psi",
                    "wigner_from_planes"),
}


def _bind(module: str) -> None:
    """Import `module` and bind each of its _LAZY names here that is not
    bound yet, so a wrapper set in its place (a tracer's) stays."""
    mod = importlib.import_module(f".{module}", __package__)
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(WavetomoError):
    """Bad flag combination or inputs of the wrong kind."""


# exit code and stderr line of each failure; the first row that matches wins,
# so the ValueError row follows the package errors that subclass ValueError
_EXITS = (
    (ManifestError, 3, "parse error: {e}"),
    ((DegeneratePointError, NodeAtOriginError, DomainLookupError, SingularFrequencyError),
     4, "degenerate request: {e}"),
    (MissingAnchorError, 5, "missing anchor: {e}"),
    ((UsageError, ValueError), 2, "error: {e}"),
    # reads wrap their OSErrors, so one that reaches main is a write; main
    # handles a BrokenPipeError from a closed stdout before this table
    (OSError, 2, "error: cannot write {e.filename}: {e.strerror}"),
)


class _Parser(argparse.ArgumentParser):
    # an abbreviated flag is unknown, so the value join below sees every flag
    # that argparse matches; subparsers are built by this class too
    def __init__(self, **kw):
        super().__init__(allow_abbrev=False, **kw)

    # raise instead of exiting so main() owns the exit code
    def error(self, message):
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads a token that starts with '-' as a flag unless it is a
        # plain negative number ('-1e-1', '-inf' and '-0.4;1' are not, on some
        # Pythons), so such a value after a one-value flag becomes --flag=value
        flags, out = self._option_string_actions, []
        for a in sys.argv[1:] if args is None else args:
            prev = flags.get(out[-1]) if out else None
            if prev is not None and prev.nargs is None and a.startswith("-") and a not in flags:
                out[-1] += "=" + a
            else:
                out.append(a)
        return super().parse_known_args(out, namespace)


# ---------------------------------------------------------------------------
# settings


def _grid_dests(*axes: str) -> tuple[str, ...]:
    return tuple(f"{ax}_{end}" for ax in axes for end in ("min", "max", "count"))


# the grid axes each command or tomogram kind reads, with their default
# (min, max, count); a symplectic sweep has no default nu grid
_GRIDS = {
    "gcf": {"xp": (-6.0, 6.0, 121), "nup": (-3.0, 3.0, 61)},
    "symplectic": {"x": (-8.0, 8.0, 257), "nu": None, "mu": (-10.0, 10.0, 128)},
    "fresnel": {"x": (-8.0, 8.0, 161), "nu": (-2.0, 2.0, 41)},
    "optical": {"x": (-6.0, 6.0, 121), "theta": (0.0, math.pi, 65)},
    "wigner": {"q": (-4.0, 4.0, 81), "p": (-4.0, 4.0, 81)},
}
# the axis whose one value (--nu, --theta) a kind reads in place of its grid
_ONE_VALUE = {"symplectic": "nu", "optical": "theta"}
_TOMOGRAM_SETTINGS = ("nu", "theta", *_grid_dests("x", "nu", "mu", "theta"))


def _add_settings(p: _Parser, *dests: str) -> None:
    for d in dests:
        p.add_argument("--" + d.replace("_", "-"), type=int if d.endswith("count") else float)


def _add_output_and_config(p: _Parser) -> None:
    p.add_argument("--output")
    p.add_argument("--config", help="JSON file of default flag values (flags win)")
    p.set_defaults(_parser=p)  # its flags spell each --config value for the second parse


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
        raise ManifestError(f"{path}: config JSON is malformed: {e}")
    if not isinstance(cfg, dict):
        raise ManifestError(f"{path}: config JSON must be an object of flag: value pairs")
    # a key is valid when it names one of this subcommand's flags
    known = {k for k in vars(args) if not k.startswith("_")} - {"func", "command", "config"}
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise UsageError(
            f"config key(s) {', '.join(map(repr, unknown))} are not flags of "
            f"{args.command!r}; valid keys: {', '.join(sorted(known))}"
        )
    return cfg


def _config_argv(args) -> list[str]:
    """Each config value the command line left unset, spelled as its flag."""
    out = []
    for key, v in _load_config(args).items():
        flag = "--" + key.replace("_", "-")
        if getattr(args, key) is not None:
            continue
        if isinstance(v, bool) and args._parser._option_string_actions[flag].nargs == 0:
            out += [flag] if v else []
        elif isinstance(v, (str, int, float)) and not isinstance(v, bool):
            out.append(f"{flag}={v}")
        else:
            raise UsageError(f"config key {key!r}: {json.dumps(v)} is not a value of {flag}")
    return out


def _unread(args, why: str, *dests: str) -> None:
    # command-line flags only: one --config file may serve several kinds
    given = [f"--{d.replace('_', '-')}" for d in dests if d in args._given]
    if given:
        raise UsageError(f"{', '.join(given)} not read {why}")


def _finite(flag: str, v: float) -> float:
    if not math.isfinite(v):
        raise UsageError(f"{flag} must be finite, got {v!r}")
    return v


def _span(args, axis: str, default) -> tuple[float, float, int]:
    """The (min, max, count) flags of one axis, each unset one from `default`."""
    lo, hi, n = (d if v is None else v
                 for v, d in zip((getattr(args, d) for d in _grid_dests(axis)), default))
    lo, hi = _finite(f"--{axis}-min", lo), _finite(f"--{axis}-max", hi)
    if not (hi > lo) or n < 2:
        raise UsageError(f"--{axis}-min/--{axis}-max/--{axis}-count must satisfy max > min, count >= 2")
    return lo, hi, n


def _grids(args, key: str, skip: str | None = None) -> dict[str, UniformGrid1D]:
    """The grids of _GRIDS[key], each axis that has a default but `skip`."""
    spans = {a: _span(args, a, d) for a, d in _GRIDS[key].items() if d and a != skip}
    return {a: UniformGrid1D(lo, (hi - lo) / (n - 1), n) for a, (lo, hi, n) in spans.items()}


def _provenance(args, grids: dict, **effective) -> str:
    """The command line and the effective settings, a grid as [min, max, count]."""
    effective.update((a, [g.start, g.end, g.count]) for a, g in grids.items())
    return f"wavetomo {' '.join(args._argv)} | effective: {json.dumps(effective, sort_keys=True)}"


def _diag(**kv) -> None:
    for k, v in kv.items():
        print(f"{k}={v:.6e}" if isinstance(v, float) else f"{k}={v}", file=sys.stderr)


# ---------------------------------------------------------------------------
# gcf


def _cmd_gcf(args) -> int:
    _bind("analytic")
    sigma = args.sigma or 0.0
    if sigma <= 0:
        raise UsageError("--sigma must be given and positive")
    alpha = 0.0 if args.alpha is None else args.alpha
    p = GcfParams(sigma, alpha)
    x_count = 1025 if args.x_count is None else args.x_count
    grids = _grids(args, "gcf")
    prefix = args.output
    if prefix is None:
        prefix = f"gcf_s{fileio._tag(sigma)}_a{fileio._tag(alpha)}"
    prov = _provenance(args, grids, sigma=sigma, alpha=alpha, x_count=x_count)
    meta = {"sigma": sigma, "alpha": alpha}

    # the (X', nu') map at mu = 1: the two-argument face every 3D surface plot shows
    payloads = {"psi": gcf_sampled(p, count=x_count),
                "fresnel": gcf_fresnel_analytic(p, *grids.values())}
    if args.width_map:
        gn = grids["nup"]
        payloads["width"] = fileio.WidthMap(gn, [gcf_width(p, 1.0, nu) for nu in gn.points])
    for name, payload in payloads.items():
        fileio.write_file(f"{prefix}_{name}.txt", payload, meta, prov)
    print(*(f"{prefix}_{name}.txt" for name in payloads), sep="\n")
    return 0


# ---------------------------------------------------------------------------
# tomogram


def _read_wavefunction(path) -> tuple[dict, SampledWavefunction]:
    manifest, payload = fileio.read_file(path)
    if not isinstance(payload, SampledWavefunction):
        raise UsageError(f"{path}: expected a wavefunction file, got kind {manifest.kind!r}")
    return manifest.params, payload


def _cmd_tomogram(args) -> int:
    if not args.input:
        raise UsageError("--input is required")
    kind = args.kind or "symplectic"  # not an argparse default, so --config can set it
    one = _ONE_VALUE.get(kind)
    single = getattr(args, one) if one else None
    reads = {one, *_grid_dests(*_GRIDS[kind])}
    _unread(args, f"by --kind {kind}", *(d for d in _TOMOGRAM_SETTINGS if d not in reads))
    if single is not None:
        _unread(args, f"alongside --{one}", *_grid_dests(one))
    params, psi = _read_wavefunction(args.input)
    out = args.output
    if not out:
        raise UsageError("--output is required")
    meta = {k: params[k] for k in ("sigma", "alpha") if k in params}

    if kind != "symplectic":
        grids = _grids(args, kind, skip=one if single is not None else None)
        if single is not None:
            # one requested angle plus its conjugate quadrature
            grids["theta"] = UniformGrid1D(_finite("--theta", single), math.pi / 2.0, 2)
        forward = fresnel_tomogram if kind == "fresnel" else optical_tomogram
        data = forward(psi, *grids.values())
        fileio.write_file(out, data, meta, _provenance(args, grids, kind=kind))
        print(out)
        return 0

    # symplectic planes
    if single is not None:
        nus = [_finite("--nu", single)]
    elif None in (args.nu_min, args.nu_max, args.nu_count):
        raise UsageError("symplectic needs --nu or --nu-min/--nu-max/--nu-count")
    else:
        nus = list(np.linspace(*_span(args, "nu", (None,) * 3)))
    if len(nus) > 1 and "{index}" not in out and "{nu}" not in out:
        raise UsageError("multi-plane output needs an {index} or {nu} placeholder in --output")
    paths = [out.replace("{index}", str(i)).replace("{nu}", "%g" % nu) for i, nu in enumerate(nus)]
    first = {}
    for path, nu in zip(paths, nus):
        if first.setdefault(path, nu) != nu:
            raise UsageError(f"planes nu={float(first[path])!r} and nu={float(nu)!r} both "
                             f"write {path}; use {{index}} in --output")

    # any x or mu grid setting selects both explicit grids
    explicit = any(getattr(args, d) is not None for d in _grid_dests("x", "mu"))
    fixed = _grids(args, kind) if explicit else None
    moments = wavefunction_moments(psi)
    for nu, path in zip(nus, paths):
        grids = fixed or dict(zip(("x", "mu"), plane_grids_for_slice(nu, moments)))
        plane = symplectic_tomogram_plane(psi, *grids.values(), nu)
        fileio.write_file(path, plane, meta, _provenance(args, grids, kind=kind, nu=nu))
    print(*paths, sep="\n")
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
    # the product state's tomogram is the product of its factors' tomograms;
    # a degenerate factor is named by its axis, as symplectic_tomogram_nd does
    w = 1.0
    for axis, (psi, X, mu, nu) in enumerate(zip(factors, Xs, mus, nus)):
        try:
            w *= symplectic_tomogram_nd(NdWavefunction((psi.grid,), psi.values), (X,), (mu,), (nu,))
        except DegeneratePointError as e:
            raise DegeneratePointError(f"axis {axis}: {e}") from None
    print(format(w, ".17g"))
    return 0


# ---------------------------------------------------------------------------
# reconstruct


def _expand_inputs(paths) -> list[str]:
    """Expand glob patterns so quoted wildcards work on any shell; a path that names
    a file is read as it is, though it holds *, ? or [."""
    out: list[str] = []
    for path in paths:
        if any(c in path for c in "*?[") and not os.path.isfile(path):
            hits = sorted(glob.glob(path))
            if not hits:
                raise UsageError(f"no files match {path!r}")
            out.extend(hits)
        else:
            out.append(path)
    return out


def _read_planes(paths) -> Iterator[TomogramPlane]:
    """Each path's plane, read when the read-out asks for the next one and
    dropped here once handed over, so the sweep is held one plane at a time."""
    for path in paths:
        manifest, payload = fileio.read_file(path)
        if not isinstance(payload, TomogramPlane):
            raise UsageError(
                f"{path}: expected symplectic tomogram planes, got kind {manifest.kind!r}"
                + (" (optical variant)" if isinstance(payload, OpticalTomogram) else "")
            )
        yield payload
        del payload


def _cmd_reconstruct(args) -> int:
    if not args.input:
        raise UsageError("at least one --input tomogram plane file is required")
    out = args.output
    if not out:
        raise UsageError("--output is required")
    if args.target != "wigner":
        _unread(args, f"by --target {args.target}", *_grid_dests(*_GRIDS["wigner"]))
    _bind("reconstruct")
    inv = InversionConfig() if args.taper is None else InversionConfig(taper_fraction=args.taper)
    paths = _expand_inputs(args.input)
    planes = _read_planes(paths)
    prov = _provenance(args, {}, target=args.target, taper=inv.taper_fraction, inputs=len(paths))

    if args.target == "psi":
        rec = reconstruct_psi(planes, inv)
        fileio.write_file(out, rec.psi, {}, prov)
        _diag(prenorm_l2=rec.prenorm_l2, anchor=rec.anchor, anchor_imag=rec.anchor_imag)
    elif args.target == "rho":
        dm = density_matrix_from_planes(planes, inv)
        fileio.write_file(out, dm, {}, prov)
        _diag(asymmetry=dm.asymmetry, trace_step=dm.trace_times_step)
    else:
        w = wigner_from_planes(planes, *_grids(args, "wigner").values(), inv)
        fileio.write_file(out, w, {}, prov)
        _diag(imag_residue=w.imag_residue, normalization=w.normalization())
    print(out)
    return 0


# ---------------------------------------------------------------------------
# validate


def _cmd_validate(args) -> int:
    from . import oracles  # the other subcommands never load the oracle table

    color = sys.stdout.isatty() and not os.environ.get("NO_COLOR")
    tags = ("\x1b[31mFAIL\x1b[0m", "\x1b[32mPASS\x1b[0m") if color else ("FAIL", "PASS")
    failures = 0
    t0 = time.monotonic()
    for name, level, check in oracles.ORACLES:
        if level == "fast" or args.level == "full":
            ok, detail = check()
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
    _add_settings(g, "sigma", "alpha", "x_count", *_grid_dests(*_GRIDS["gcf"]))
    g.add_argument("--width-map", action="store_const", const=True, dest="width_map")
    _add_output_and_config(g)
    g.set_defaults(func=_cmd_gcf)

    t = sub.add_parser("tomogram", help="tomogram of a wavefunction file")
    t.add_argument("--input", required=True)
    t.add_argument("--kind", choices=("symplectic", "fresnel", "optical"),
                   help="default: symplectic")
    _add_settings(t, *_TOMOGRAM_SETTINGS)
    _add_output_and_config(t)
    t.set_defaults(func=_cmd_tomogram)

    n = sub.add_parser("tomogram-nd", help="product-state tomogram at one point")
    n.add_argument("--input", action="append")
    n.add_argument("--point", required=True,
                   help='"X1,..;mu1,..;nu1,.." with one component per axis')
    n.set_defaults(func=_cmd_tomogram_nd)

    r = sub.add_parser("reconstruct", help="invert tomogram planes")
    r.add_argument("--input", action="extend", nargs="+")
    r.add_argument("--target", choices=("psi", "rho", "wigner"), required=True)
    _add_settings(r, "taper", *_grid_dests(*_GRIDS["wigner"]))
    _add_output_and_config(r)
    r.set_defaults(func=_cmd_reconstruct)

    v = sub.add_parser("validate", help="run the oracle suite")
    v.add_argument("--level", choices=("fast", "full"), default="fast")
    v.set_defaults(func=_cmd_validate)
    return top


def main(argv=None) -> int:
    # once per process, move what numpy and the package built at import to the
    # collector's permanent generation: neither the collections during the
    # command nor the one at exit walk it again. No collection first: after the
    # imports it finds no garbage to free, and its walk costs half what the freeze saves
    if not gc.get_freeze_count():
        gc.freeze()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        given = {k for k, v in vars(args).items() if v is not None}
        # parse again with each --config value the command line left unset as
        # its flag, so a config value meets the flag's type and refusals
        try:
            args = parser.parse_args(argv + _config_argv(args))
        except UsageError as e:
            raise UsageError(f"{e} (in --config {args.config})") from None
        args._argv, args._given = argv, given
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return code
    except SystemExit as e:  # --help
        return 0 if e.code in (None, 0) else 2
    except BrokenPipeError:
        # Python's SIGPIPE recipe: the reader left early; devnull takes the
        # flush at exit, so no second error and no traceback is printed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as e:
        for types, code, line in _EXITS:
            if isinstance(e, types):
                print(line.format(e=e), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
