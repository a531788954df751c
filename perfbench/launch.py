"""Run one wavetomo command as the console script does, and record it.

usage: python3 perfbench/launch.py RECORD TRACE -- ARG...

Calls ``wavetomo.cli.main(ARG...)`` and writes RECORD as JSON: the exit
code, the time spent inside ``main()``, CPU time and peak RSS. With TRACE=1
it first patches each public function where the CLI looks the name up and
adds the recorded spans to RECORD.
"""
from __future__ import annotations

import importlib
import json
import os
import resource
import sys

from spans import Tracer, now, peak_rss_kb

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from wavetomo.tomography import EPS_NU  # noqa: E402  (|nu| at or below: no kernel)


def _path(args, out):
    return {"path": os.fspath(args[0])}


def _plane(args, out):
    return {"nx": out.grid_x.count, "nmu": out.grid_mu.count,
            "ny": args[0].grid.count, "kernel": bool(abs(out.nu) > EPS_NU)}


def _fresnel(args, out):
    rows = sum(1 for nu in out.grid_nu.points if abs(nu) > EPS_NU)
    return {"nx": out.grid_x.count, "ny": args[0].grid.count, "rows": rows}


# (module, attribute the caller looks up, span name, work sizes)
PATCHES = [
    ("wavetomo.cli", "wavefunction_moments", "tomography.moments", None),
    ("wavetomo.cli", "plane_grids_for_slice", "tomography.grid_policy", None),
    ("wavetomo.cli", "symplectic_tomogram_plane", "tomography.plane", _plane),
    ("wavetomo.cli", "fresnel_tomogram", "tomography.fresnel", _fresnel),
    ("wavetomo.cli", "optical_tomogram", "tomography.optical", None),
    ("wavetomo.cli", "reconstruct_psi", "reconstruct.psi", None),
    ("wavetomo.cli", "density_matrix_from_planes", "reconstruct.rho_planes", None),
    ("wavetomo.cli", "wigner_from_planes", "reconstruct.wigner_planes", None),
    ("wavetomo.reconstruct", "dft2_at", "grid.dft2_at", None),
    ("wavetomo.fileio", "read_file", "fileio.read", _path),
]


def install(tracer: Tracer) -> list[str]:
    """Patch every traced function; return the names that no longer exist."""
    fileio = importlib.import_module("wavetomo.fileio")
    writers = [("wavetomo.fileio", n, "fileio.write", _path)
               for n in sorted(vars(fileio)) if n.startswith("write_")]
    missing = []
    for mod, attr, span, attrs in PATCHES + writers:
        if not tracer.patch(importlib.import_module(mod), attr, span, attrs):
            missing.append(f"{mod}.{attr}")
    return missing


def main() -> int:
    record, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    cli = importlib.import_module("wavetomo.cli")
    tracer = Tracer() if trace else None
    missing = install(tracer) if tracer else []
    t0 = now()
    rc = cli.main(argv)
    main_s = now() - t0
    ru = resource.getrusage(resource.RUSAGE_SELF)
    with open(record, "w", encoding="utf-8") as f:
        json.dump({
            "rc": rc, "main_s": main_s, "cpu_s": ru.ru_utime + ru.ru_stime,
            "maxrss_kb": peak_rss_kb(), "untraced": missing,
            "spans": tracer.spans if tracer else [],
        }, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
