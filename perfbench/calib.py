"""Calibration kernel: tracks how fast the current CPU runs right now.

The host runs each CPU at a speed that drifts by up to 1.9x over seconds to
minutes, in user time as much as in wall time. This kernel, timed on the
same CPU just before and after a timed call, follows that drift
(correlation 0.9 against a 2 s CLI reconstruct), so a call's seconds
divided by it are steady. It uses no complex exp and no BLAS: after one
complex matrix product, numpy's complex exp runs ~15x slower for the rest
of the process with this OpenBLAS, so such a kernel would time its own
process history instead of the CPU.
"""
from __future__ import annotations

import numpy as np

from spans import now

CAL_X = np.linspace(-5.0, 5.0, 100000)
CAL_F = np.linspace(-3.0, 3.0, 4000) ** 3
CAL_ROUNDS = 10
CAL_REF_S = 0.15  # kernel seconds that make one calibrated second


def calibrate() -> float:
    """Seconds for a fixed mix of the pipeline's kinds of work: vectorised
    transcendentals, float formatting and parsing, and interpreted Python."""
    t = now()
    for _ in range(CAL_ROUNDS):
        np.cos(CAL_X)
        np.sin(CAL_X)
        [float(v) for v in " ".join(format(v, ".17g") for v in CAL_F).split()]
        acc = 0
        for i in range(100000):
            acc += i % 7
    return now() - t


def factor(before: float, after: float) -> float:
    """Turns raw seconds into calibrated seconds, from the kernel times around them."""
    return 2.0 * CAL_REF_S / (before + after)
