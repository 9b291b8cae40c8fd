"""In-memory spans recorded around calls into the library's modules.

A span has a metric bucket (for example ``spatial.rho_w_s`` or
``fdbasis.self_s``), a label (the function called), a parent and its start
and end times. A span's self time is its duration minus the durations of its
child spans, so the self times of one op's spans add up exactly to the
duration of the op's root span. Nothing is written until the run ends.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

ROOT_METRIC = "bench.self_s"


class Tracer:
    """Collects the spans of the traced ops of one run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.op_index = -1  # index of the current (or last) op

    @contextmanager
    def op(self):
        """Root span of one op; yields the span record."""
        self.op_index += 1
        self.counts = {}
        with self.span(ROOT_METRIC, "op") as rec:
            yield rec
        rec["counts"] = self.counts

    @contextmanager
    def span(self, metric: str, label: str):
        rec = {
            "op": self.op_index,
            "metric": metric,
            "label": label,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, metric: str, label: str, fn, *args, **kwargs):
        with self.span(metric, label):
            return fn(*args, **kwargs)

    def call_peak(self, metric: str, label: str, peak_metric: str, fn, *args, **kwargs):
        """Like ``call``, also recording the tracemalloc peak (MB) of the call."""
        tracemalloc.start()
        try:
            with self.span(metric, label):
                out = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        self.count(peak_metric, peak, how=max)
        return out

    def count(self, metric: str, value: float, how=lambda a, b: a + b):
        old = self.counts.get(metric)
        self.counts[metric] = value if old is None else how(old, value)


def self_times(spans: list[dict]) -> dict[int, dict[str, float]]:
    """Per op index, the summed self time of every metric bucket, the op's
    duration as ``op_s`` and the op's counters."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child[rec["parent"]] += rec["end"] - rec["start"]
    ops: dict[int, dict[str, float]] = {}
    for i, rec in enumerate(spans):
        buckets = ops.setdefault(rec["op"], {})
        own = rec["end"] - rec["start"] - child[i]
        buckets[rec["metric"]] = buckets.get(rec["metric"], 0.0) + own
        if rec["parent"] is None:
            buckets["op_s"] = rec["end"] - rec["start"]
            buckets.update(rec.get("counts", {}))
    return ops
