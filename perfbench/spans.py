"""In-memory span recorder and peak-RSS probe used inside benchmark children.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``attrs`` a small dict of work sizes
filled in after the call returns. Spans stay in memory; the child writes
them out once, when its run ends.
"""
from __future__ import annotations

import time


def now() -> float:
    """CLOCK_MONOTONIC is system wide, so stamps compare across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kb() -> int:
    """This process's peak RSS since exec.

    ru_maxrss would also count the parent's RSS at fork time, which Linux
    carries across exec.
    """
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """Return fn timed as span `name`; attrs(args, result) -> dict of sizes."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, now(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = now()
                stack.pop()
            if attrs is not None:
                spans[idx][4] = attrs(args, out)
            return out

        return traced

    def patch(self, module, attr, name, attrs=None) -> bool:
        """Replace module.attr, where its callers look it up, by a traced wrapper."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            return False
        setattr(module, attr, self.wrap(name, fn, attrs))
        return True


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
