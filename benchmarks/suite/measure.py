"""Measuring one workload inside its process: repetitions, op spans, checks."""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Tuple

Span = Tuple[str, float, float]     # op key, start, end (perf_counter seconds)


def percentile(values: List[float], p: float) -> float:
    """Interpolated percentile, ``p`` in [0, 100]."""
    ordered = sorted(values)
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


class Judge:
    """Counts ops attempted and ops whose output is wrong.

    An output is compared with ``golden.json`` where that holds the op's
    key (every key at seed 0; every seed-independent key at any seed) and
    otherwise with the first output the same key gave in this process,
    which the warm-up repetition supplies."""

    def __init__(self, wl: Any, golden: Dict[str, Any], record_outputs: bool) -> None:
        self.wl = wl
        self.golden = golden
        self.first: Dict[str, Any] = {}
        self.outputs: Dict[str, Any] = {} if record_outputs else None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def check(self, key: str, value: Any) -> None:
        self.attempted += 1
        if isinstance(value, BaseException):
            self.fail(f"{key}: raised {type(value).__name__}: {value}")
            return
        if not self.wl.ok(value):
            self.fail(f"{key}: returned a not-ok result")
            return
        output = self.wl.norm(value)
        if self.outputs is not None:
            self.outputs[key] = output
            return
        expected = self.golden.get(key, self.first.setdefault(key, output))
        if output != expected:
            self.fail(f"{key}: output {output!r} differs from "
                      f"{'golden' if key in self.golden else 'first'} {expected!r}")


def repetition(wl: Any, judge: Judge) -> Tuple[float, List[Span]]:
    """Run the op list once; returns its wall time and one span per op."""
    spans: List[Span] = []
    values: List[Any] = []
    clock = time.perf_counter
    gc.collect()
    t_rep = clock()
    for key, fn in wl.ops:
        t0 = clock()
        try:
            value = fn()
        except Exception as err:    # a failed op is a counted outcome, not a crash
            value = err
        spans.append((key, t0, clock()))
        values.append(value)
    wall = clock() - t_rep
    for (key, _t0, _t1), value in zip(spans, values):
        judge.check(key, value)
    return wall, spans


def timed_repetitions(wl: Any, judge: Judge, seconds: float) -> List[Tuple[float, List[Span]]]:
    """Repeat for about ``seconds``: another repetition starts only while
    at least half of it still fits, so the count does not flip between
    runs when the budget ends near a repetition boundary."""
    reps = []
    t_start = time.perf_counter()
    while True:
        reps.append(repetition(wl, judge))
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / len(reps) >= seconds:
            return reps


def rep_summary(wall: float, spans: List[Span]) -> Dict[str, float]:
    lat_ms = [(t1 - t0) * 1e3 for _key, t0, t1 in spans]
    return {"wall_s": wall, "req_per_s": len(spans) / wall,
            "req_p50_ms": percentile(lat_ms, 50),
            "req_p99_ms": percentile(lat_ms, 99)}
