"""In-memory spans for the traced run, and the self-time arithmetic.

A span is (name, start, end, parent, input id).  Spans are opened only by
the benchmark around its own calls into einpoly; nothing inside the
package is instrumented.  They are kept in memory and written once, when
the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans and counts.  Spans nest through a stack, so a span
    opened while another is open becomes its child."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name: str, input_id: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "input": input_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, input_id: str, fn, *args, **kwargs):
        with self.span(name, input_id):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    def wrap(self, name: str, input_id: str, fn):
        """fn with every call recorded as a span (used to see which part of
        a CLI call is spent inside the library it calls)."""

        def traced(*args, **kwargs):
            return self.call(name, input_id, fn, *args, **kwargs)

        return traced

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": "perfbench-trace/v1", "spans": self.spans}, fh)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - _covered(children[s["id"]], s["start"], s["end"])
        for s in spans
    ]


def self_time_by_name(spans) -> dict:
    out = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        out[s["name"]] += t
    return dict(out)
