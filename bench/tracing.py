"""Spans recorded around calls into the package, and a timing wrapper ring.

Nothing here reaches inside ``src/``.  A span brackets one call into a
public function of a layer, made from the benchmark's own code.  Time
inside the scalar ring comes from :class:`TimedRing`, which the benchmark
passes in as the ring; rings are a public, pluggable interface, so this
too is measured from outside.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

perf_counter = time.perf_counter


class TimedRing:
    """Delegates to a base ring and adds up the time spent inside its
    ``mul`` and ``add``/``sub`` calls.  ``neg``, ``halve`` and the
    constructors pass straight through and are not timed."""

    def __init__(self, base):
        self.name = base.name
        self._mul, self._add, self._sub = base.mul, base.add, base.sub
        self.wrap, self.from_dyadic, self.zero, self.one = base.wrap, base.from_dyadic, base.zero, base.one
        self.neg, self.halve, self.eq = base.neg, base.halve, base.eq
        self.mul_s = self.add_s = 0.0
        self.mul_calls = self.add_calls = 0

    def mul(self, a, b):
        t0 = perf_counter()
        r = self._mul(a, b)
        self.mul_s += perf_counter() - t0
        self.mul_calls += 1
        return r

    def add(self, a, b):
        t0 = perf_counter()
        r = self._add(a, b)
        self.add_s += perf_counter() - t0
        self.add_calls += 1
        return r

    def sub(self, a, b):
        t0 = perf_counter()
        r = self._sub(a, b)
        self.add_s += perf_counter() - t0
        self.add_calls += 1
        return r

    def totals(self) -> tuple:
        return (self.mul_s, self.add_s, self.mul_calls, self.add_calls)


def timer_floor(samples: int = 20000) -> float:
    """Median seconds between two back-to-back ``perf_counter`` reads.

    Every interval ``TimedRing`` adds up contains one such gap that is the
    timer's, not the ring's; busy times subtract it once per call.
    """
    gaps = []
    for _ in range(samples):
        t0 = perf_counter()
        gaps.append(perf_counter() - t0)
    return statistics.median(gaps)


class Tracer:
    """Spans kept in memory: name, start, end, parent span and trace id.

    Spans of one product share a trace id.  With a ``TimedRing`` each span
    also records the ring time and calls made while it was open.
    """

    def __init__(self, ring: TimedRing | None = None):
        self.ring = ring
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, trace_id, name: str, fn, *args):
        span = {"id": len(self.spans), "trace": trace_id,
                "parent": self._open[-1] if self._open else None, "name": name}
        self.spans.append(span)
        before = self.ring.totals() if self.ring else (0.0, 0.0, 0, 0)
        self._open.append(span["id"])
        span["start"] = perf_counter()
        try:
            return fn(*args)
        finally:
            span["end"] = perf_counter()
            self._open.pop()
            after = self.ring.totals() if self.ring else (0.0, 0.0, 0, 0)
            span["mul_s"], span["add_s"], span["mul_calls"], span["add_calls"] = (
                q - p for p, q in zip(before, after))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def ring_busy(span: dict, floor: float) -> tuple[float, float]:
    """(mul, add/sub) seconds inside the ring while the span was open, timer gaps removed."""
    return (max(0.0, span["mul_s"] - floor * span["mul_calls"]),
            max(0.0, span["add_s"] - floor * span["add_calls"]))


def self_times(spans: list[dict], floor: float) -> dict:
    """Seconds of self time per layer: a span's duration minus its child
    spans and minus the ring time it holds itself (which is exactnum's).
    The layer is the span name up to the first dot."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict = defaultdict(float)
    child_ring: dict = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += duration(s)
            child_ring[s["parent"]] += sum(ring_busy(s, floor))
    out: dict = defaultdict(float)
    for sid, s in by_id.items():
        own_ring = sum(ring_busy(s, floor)) - child_ring[sid]
        out[s["name"].split(".")[0]] += duration(s) - child_time[sid] - own_ring
        out["exactnum"] += own_ring
    return dict(out)
