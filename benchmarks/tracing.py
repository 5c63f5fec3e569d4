"""Timing and span recording around the benchmark's calls into smqdyn layers.

Every call the benchmark makes into a module's public function goes through
:meth:`Recorder.call`.  With tracing off it only adds the call's duration to
``busy_s`` (the time spent inside smqdyn, which is what ``wall_s`` reports);
with tracing on it also records a span (name, start, end, parent) in memory.
Spans are written out once, when the pass ends, so recording costs no I/O
while the workload runs.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Seconds one calibration loop takes on an idle core of the machine the
# baseline was measured on.  That machine is shared: other tenants slow
# everything on it by up to 2x for tens of seconds at a time, and the loop,
# timed next to every operation, slows by the same factor.  Reported times
# are divided by that factor, i.e. given at this reference speed.
CALIBRATION_REF_S = 2.5e-3


def _calibration_loop() -> float:
    # Small-array numpy calls inside a Python loop, like smqdyn's scalar paths.
    x = np.linspace(0.0, 1.0, 8)
    acc = 0.0
    for i in range(800):
        acc += float(np.exp(-x * (i % 7)).sum())
        for j in range(10):
            acc += (j * 0.5) % 3.0
    return acc


def machine_slowdown() -> float:
    """How much slower than the reference speed this machine runs right now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / CALIBRATION_REF_S


class Recorder:
    def __init__(self, traced: bool):
        self.traced = traced
        self.phase = "cold"  # "cold" pass, then an in-process "warm" repeat
        self.busy_s = 0.0
        self.spans: list[dict] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._stack: list[int] = []

    def _open(self, name: str) -> int | None:
        if not self.traced:
            return None
        sid = len(self.spans)
        self.spans.append(
            {
                "id": sid,
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "phase": self.phase,
                "start": time.perf_counter(),
                "end": None,
            }
        )
        self._stack.append(sid)
        return sid

    def _close(self, sid: int | None, end: float) -> None:
        if sid is not None:
            self.spans[sid]["end"] = end
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run one call into a smqdyn layer, timed and (if traced) spanned."""
        sid = self._open(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.busy_s += end - start
            self._close(sid, end)

    @contextmanager
    def span(self, name: str):
        """Parent span for a group of calls (one benchmark operation)."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid, time.perf_counter())

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[self.phase][name] += value

    def peak(self, name: str, value: float) -> None:
        cur = self.counters[self.phase]
        cur[name] = max(cur.get(name, value), value)

    def layer_seconds(self, phase: str) -> dict[str, float]:
        """Summed duration per span name, over the spans of one phase."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["phase"] == phase and s["end"] is not None:
                out[s["name"]] += s["end"] - s["start"]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
