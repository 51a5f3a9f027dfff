"""Calibrated timing and in-memory tracing for the qll benchmark.

The machine the benchmark runs on changes speed in phases that last from
half a second to several seconds, so a raw duration says little on its own.
Every timed call is therefore bracketed by a fixed pure-Python calibration
slice, run just before and just after it, and reported in reference seconds:

    normalised = raw * REF_SLICE_S / mean(slice before, slice after)

The slice imports nothing from qll and must never change: changing it, or
REF_SLICE_S, changes the unit of every figure the benchmark reports.
"""
from __future__ import annotations

import gc
import time

# Reference duration of one calibration slice (the median of three passes of
# _slice_pass), close to its median on the 2-vCPU machine the benchmark was
# calibrated on.  Normalised figures are seconds at this reference speed.
REF_SLICE_S = 0.00035

_perf = time.perf_counter


def _slice_pass() -> int:
    acc = 0
    table: dict = {}
    for i in range(2000):
        k = (i * 7919) % 509
        table[k] = table.get(k, 0) + i
        acc += (i * i) % 97
    return acc + len(table)


def slice_time() -> float:
    """Duration of one calibration slice: the median of three passes, so a
    single preemption inside the slice does not set the factor."""
    passes = []
    for _ in range(3):
        t0 = _perf()
        _slice_pass()
        passes.append(_perf() - t0)
    passes.sort()
    return passes[1]


class Bracket:
    """One bracketed measurement: raw seconds and the speed factor of the
    slices around it."""

    __slots__ = ("raw", "before", "after")

    def __init__(self, raw: float, before: float, after: float):
        self.raw, self.before, self.after = raw, before, after

    @property
    def factor(self) -> float:
        return REF_SLICE_S / ((self.before + self.after) / 2)

    @property
    def norm(self) -> float:
        return self.raw * self.factor


def timed(fn, *args):
    """Run fn(*args) once between two calibration slices; garbage is
    collected first, outside the timed interval.  Returns (result, Bracket)."""
    gc.collect()
    before = slice_time()
    t0 = _perf()
    out = fn(*args)
    raw = _perf() - t0
    after = slice_time()
    return out, Bracket(raw, before, after)


class Tracer:
    """Spans around calls into qll's public functions, kept in memory.

    A span is [name, start, end, parent index, job key, note].  The job key
    is set by the run loop before each bracketed call; ``note`` holds a
    count taken from the call's result (for example live terms)."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = ("setup", 0, "")
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, label=None, note=None):
        """Replace module.attr by a recording wrapper.  ``label(args)``
        refines the span name from the arguments (such as the level)."""
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([label(name, args) if label else name, _perf(), 0.0,
                          stack[-1] if stack else -1, self.job, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = _perf()
            if note is not None:
                spans[idx][5] = note(out)
            return out

        setattr(module, attr, traced)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans)]
