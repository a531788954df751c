#!/usr/bin/env python3
"""Benchmark of the wavetomo tomogram -> reconstruction pipeline.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see perfbench/README.md) as a closed loop of passes, one
child process at a time, until --seconds have passed. Every operation's
output is checked against the chirped-Gaussian closed forms. Earlier stdout
lines give the environment record and every metric by name and unit; the
last line is one JSON object with the metrics BENCHMARK.json names:
end-to-end ones from untraced passes with --trace 0, per-layer ones with
--trace 1, where traced and untraced passes alternate.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field

from spans import now, self_times

T_START = now()
THREADS = 1  # BLAS/OpenMP threads in every process; 2 only doubles CPU time
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _v in THREAD_VARS:
    os.environ[_v] = str(THREADS)
# Children inherit this: every timed process and the calibration share one CPU.
NPROC = len(os.sched_getaffinity(0))
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import numpy as np  # noqa: E402  (after the thread pinning it must see)

from calib import calibrate, factor  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
DEADLINE_S = 170.0  # a run must end within 180 s, child timeouts included
BAND = 0.01  # seeds other than 0 move sigma and alpha by up to 1 %

PY = sys.executable
LAUNCH = [PY, os.path.join(HERE, "launch.py")]
LIBWORKER = [PY, os.path.join(HERE, "libworker.py")]

SETUP_REPEATS = 2  # gcf children per CLI pass, each one set-up sample
SWEEP_PLANES = 61
CLI_WORKLOADS = {
    # name: (nominal sigma, alpha), gcf flags, [(operation, argv)]
    "cli-sweep": ((1.0, 1.0), [], [
        ("sweep", ["tomogram", "--input", "g_psi.txt", "--nu-min", "-3", "--nu-max", "3",
                   "--nu-count", str(SWEEP_PLANES), "--output", "pl_{index}.txt"]),
        ("recon_psi", ["reconstruct", "--input", "pl_*.txt", "--target", "psi", "--output", "psi.txt"]),
        ("recon_rho", ["reconstruct", "--input", "pl_*.txt", "--target", "rho", "--output", "rho.txt"]),
        ("recon_wigner", ["reconstruct", "--input", "pl_*.txt", "--target", "wigner",
                          "--output", "wigner.txt"]),
    ]),
    "cli-forward": ((1.0, 2.0), ["--x-count", "1025"], [
        ("fresnel", ["tomogram", "--kind", "fresnel", "--input", "g_psi.txt",
                     "--x-count", "481", "--nu-count", "161", "--output", "fresnel.txt"]),
        ("optical", ["tomogram", "--kind", "optical", "--input", "g_psi.txt",
                     "--x-count", "241", "--theta-count", "129", "--output", "optical.txt"]),
    ]),
}
LIB_NOMINAL = (1.0, 0.5)
LIB_OPS = ["rho_source", "wigner_source", "rho_fresnel_map", "rho_nd"]


@dataclass
class Pass:
    """One pass of a workload; times in calibrated seconds, raw_* in seconds.

    A pass with a failed operation keeps no time that enters a median.
    """

    traced: bool
    attempted: int
    setup_s: list = field(default_factory=list)
    raw_setup_s: list = field(default_factory=list)
    op_s: dict = field(default_factory=dict)
    raw_op_s: dict = field(default_factory=dict)
    ratio: dict = field(default_factory=dict)  # operation -> error / tolerance
    failed: list = field(default_factory=list)
    rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.op_s.values())

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw_op_s.values())


def state(workload: str, seed: int) -> tuple[float, float]:
    """(sigma, alpha) of the workload's state; seed 0 gives the nominal values."""
    sigma, alpha = LIB_NOMINAL if workload == "lib-inversion" else CLI_WORKLOADS[workload][0]
    if seed == 0:
        return sigma, alpha
    rng = random.Random(seed)
    return sigma * (1.0 + BAND * rng.uniform(-1, 1)), alpha * (1.0 + BAND * rng.uniform(-1, 1))


class Timer:
    """Runs children one at a time and scales each by the calibration just
    before and after it; call recalibrate() to start a pass."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.cal = 0.0

    def recalibrate(self) -> None:
        self.cal = calibrate()

    def run(self, cmd, cwd):
        """Returns (exit code, raw seconds, calibration factor, stderr)."""
        before, t = self.cal, now()
        try:
            proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t))
            rc, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            rc, err = -9, "timeout"
        wall = now() - t
        self.cal = calibrate()
        return rc, wall, factor(before, self.cal), err


def _load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def add_layers(m: dict, op: str, wall: float, k: float, rec: dict, cwd: str) -> None:
    """Accumulate one traced child's per-layer metrics into m; k calibrates its times."""
    spans = rec["spans"]
    start = wall - rec["main_s"]
    cli_self = rec["main_s"] - sum(e - s for _, s, e, parent, _ in spans if parent < 0)
    own_times = self_times(spans)
    print(f"trace {op}: wall {wall:.4f} s = process start {start:.4f}"
          f" + cli self {cli_self:.4f} + layer self times {sum(own_times):.4f}")
    m["cli.process_start_s"] += k * start
    m["cli.self_s"] += k * cli_self
    m["cli.child_cpu_s"] += k * rec["cpu_s"]
    for (name, _, _, _, a), own in zip(spans, own_times):
        m[name + "_s"] += k * own
        a = a or {}
        if name == "tomography.plane":
            m["tomography.plane_calls"] += 1
            m["tomography.plane_cells"] += a["nx"] * a["nmu"]
            m["tomography.max_plane_x"] = max(m["tomography.max_plane_x"], a["nx"])
            if a["kernel"]:  # dense chirp (n_y x n_mu) and kernel (n_x x n_y), complex
                exps = a["nx"] * a["ny"] + a["ny"] * a["nmu"]
                m["tomography.kernel_exps"] += exps
                m["tomography.kernel_bytes"] += 16 * (exps + a["nx"] * a["nmu"])
        elif name == "tomography.fresnel":
            m["tomography.fresnel_exps"] += a["nx"] * a["ny"] * a["rows"]
        elif name == "tomography.optical":
            m["tomography.optical_calls"] += 1
        elif name.startswith("fileio."):
            m[name + "_files"] += 1
            m[name + "_bytes"] += os.path.getsize(os.path.join(cwd, a["path"]))
        elif name == "grid.dft2_at":
            m["grid.dft2_at_calls"] += 1
        elif "points" in a:
            m["reconstruct.source_points"] += a["points"]


def judge(out: Pass, name: str, error, checks) -> None:
    """Record error() / tolerance for one operation; a miss or a raise fails it."""
    tol = checks.TOLERANCES[name]
    try:
        ratio = error() / tol
    except (OSError, KeyError, TypeError, ValueError) as e:
        print(f"{name}: output check could not run: {e}", file=sys.stderr)
        out.failed.append(name)
        return
    out.ratio[name] = ratio
    if not ratio <= 1.0:
        print(f"{name}: error {ratio * tol:.3e} exceeds tolerance {tol:.1e}", file=sys.stderr)
        out.failed.append(name)


def cli_pass(workload, params, traced, d, timer, checks) -> Pass:
    """Set-up (gcf writes the input psi file), then each operation, then checks."""
    _, gcf_flags, ops = CLI_WORKLOADS[workload]
    sigma, alpha = params
    out = Pass(traced, len(ops))
    os.makedirs(d)
    gcf = ["gcf", "--sigma", repr(sigma), "--alpha", repr(alpha), *gcf_flags, "--output", "g"]
    for _ in range(SETUP_REPEATS):
        rc, wall, k, err = timer.run(LAUNCH + [os.path.join(d, "_gcf.json"), "0", "--"] + gcf, d)
        out.raw_setup_s.append(wall)
        out.setup_s.append(wall * k)
        if rc != 0:
            print(f"setup failed ({rc}): {err.strip()[-500:]}", file=sys.stderr)
    rss = []
    layers = defaultdict(float)
    for name, argv in ops:
        rec_path = os.path.join(d, f"_{name}.json")
        rc, wall, k, err = timer.run(LAUNCH + [rec_path, "1" if traced else "0", "--"] + argv, d)
        out.raw_op_s[name] = wall
        out.op_s[name] = wall * k
        rec = _load(rec_path)
        if rc != 0 or rec is None:
            print(f"{name} failed ({rc}): {err.strip()[-500:]}", file=sys.stderr)
            out.failed.append(name)
            continue
        rss.append(rec["maxrss_kb"] / 1024.0)
        if traced:
            add_layers(layers, name, wall, k, rec, d)
    out.rss_mb = max(rss, default=0.0)
    out.layers = dict(layers)
    p = checks.GcfParams(sigma, alpha)
    for name, _ in ops:
        if name not in out.failed:
            check = getattr(checks, name)
            judge(out, name, lambda: check(d, p, SWEEP_PLANES) if name == "sweep" else check(d, p),
                  checks)
    return out


def lib_pass(params, traced, d, timer, checks) -> Pass:
    """One fresh worker: set-up runs from its spawn until its inputs are built.

    Set-up and call times are calibrated by the one factor of the kernel runs
    around the worker, as a CLI child's are.
    """
    out = Pass(traced, len(LIB_OPS))
    os.makedirs(d)
    t0 = now()
    rc, wall, k, err = timer.run(LIBWORKER + [d, "1" if traced else "0", *map(repr, params)], d)
    rec = _load(os.path.join(d, "record.json"))
    if rc != 0 or rec is None:
        print(f"lib worker failed ({rc}): {err.strip()[-500:]}", file=sys.stderr)
        out.failed = list(LIB_OPS)
        return out
    out.raw_setup_s = [rec["t_ready"] - t0]
    out.setup_s = [k * out.raw_setup_s[0]]
    out.raw_op_s = dict(rec["times"])
    out.op_s = {name: k * v for name, v in rec["times"].items()}
    out.rss_mb = rec["maxrss_kb"] / 1024.0
    if traced:
        layers = defaultdict(float)
        add_layers(layers, "worker", wall, k, rec, d)
        out.layers = dict(layers)
    with np.load(os.path.join(d, "results.npz")) as z:
        results = dict(z)
    p = checks.GcfParams(*params)
    for name in LIB_OPS:
        if name in rec["errors"]:
            print(f"{name} failed: {rec['errors'][name]}", file=sys.stderr)
            out.failed.append(name)
        else:
            judge(out, name, lambda: checks.library(results, name, p), checks)
    return out


def environment(seed, params) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "cpu": CPU,
        "seed": seed,
        "sigma_alpha": list(params),
        "filesystem": filesystem(WORK),
    }


def git_revision():
    """HEAD of the repository rooted exactly here; None in a plain checkout."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "wavetomo", "**", "*"), recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def filesystem(path):
    """Type of the filesystem holding path, from the longest matching mount point."""
    path = os.path.realpath(path)
    best, kind = "", None
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, right.split()[0]
    except (OSError, IndexError):
        return None
    return kind


def measure(workload, params, seconds, trace, checks) -> list[Pass]:
    """Closed loop: passes back to back until `seconds` have passed.

    With trace, untraced and traced passes alternate, and at least one of
    each runs.
    """
    deadline = T_START + DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    timer = Timer(deadline)
    passes: list[Pass] = []
    start = now()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            d = os.path.join(WORK, f"pass{len(passes)}")
            t = now()
            timer.recalibrate()
            if workload == "lib-inversion":
                passes.append(lib_pass(params, traced, d, timer, checks))
            else:
                passes.append(cli_pass(workload, params, traced, d, timer, checks))
            shutil.rmtree(d, ignore_errors=True)
            took = now() - t
            need_more = trace and len(passes) < 2
            if (now() - start >= seconds and not need_more) or now() + 1.5 * took > deadline:
                return passes
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def clean(passes: list[Pass], traced: bool) -> list[Pass]:
    """The passes of one kind in which no operation failed: the ones timed."""
    return [p for p in passes if p.traced == traced and not p.failed]


def end_to_end(passes: list[Pass]) -> dict:
    """Medians over clean untraced passes, calibrated and raw; every metric name."""
    med = statistics.median
    plain = clean(passes, False)
    ratios = [r for p in passes for r in p.ratio.values()]
    m = {
        "wall_s": med(p.wall_s for p in plain),
        "setup_s": med(s for p in plain for s in p.setup_s),
        "peak_rss_mb": med(p.rss_mb for p in plain),
        "tol_ratio_max": max(ratios, default=float("nan")),
        "failed_frac": sum(len(p.failed) for p in passes) / sum(p.attempted for p in passes),
    }
    for name in plain[0].op_s:
        m[name + "_s"] = med(p.op_s[name] for p in plain)
    m["raw_wall_s"] = med(p.raw_wall_s for p in plain)
    m["raw_setup_s"] = med(s for p in plain for s in p.raw_setup_s)
    for name in plain[0].op_s:
        m["raw_" + name + "_s"] = med(p.raw_op_s[name] for p in plain)
    return m


COUNT_UNITS = ("count", "bytes", "bytes_computed")


def per_layer(passes: list[Pass], names_units) -> dict:
    """Median of each time over clean traced passes; counts must repeat exactly."""
    traced = clean(passes, True)
    m = {}
    for name, unit in names_units:
        values = [p.layers.get(name, 0.0) for p in traced]
        if unit in COUNT_UNITS:
            if len(set(values)) != 1:
                raise RuntimeError(f"count {name} differs between traced passes: {values}")
            m[name] = values[0]
        elif name != "trace_overhead_s":
            m[name] = statistics.median(values)
    m["trace_overhead_s"] = (statistics.median(p.wall_s for p in traced)
                             - statistics.median(p.wall_s for p in clean(passes, False)))
    return m


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wavetomo", "cli.py")):
        print(f"no wavetomo sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks

    params = state(args.workload, args.seed)
    print("env " + json.dumps(environment(args.seed, params), sort_keys=True), flush=True)
    passes = measure(args.workload, params, args.seconds, args.trace == 1, checks)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    print(f"passes {len(passes)} ({sum(p.traced for p in passes)} traced), "
          f"operations {attempted}, failed {failed}")
    if not clean(passes, False) or (args.trace and not clean(passes, True)):
        print("every pass of a kind had a failed operation: nothing was timed", file=sys.stderr)
        return 1

    for name, tol in checks.TOLERANCES.items():
        worst = [p.ratio[name] for p in passes if name in p.ratio]
        if worst:
            print(f"check {name}: worst error {max(worst) * tol:.3e}, tolerance {tol:.1e}")
    e2e = end_to_end(passes)
    for name, value in e2e.items():
        unit = "s" if name.endswith("_s") else {"peak_rss_mb": "MB"}.get(name, "ratio")
        print(f"metric {name} = {value:.6g} {unit}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = per_layer(passes, [(m["name"], m["unit"]) for m in spec["per_layer"]])
        for m in spec["per_layer"]:
            print(f"layer {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    else:
        values = e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
