"""In-memory spans for the traced runs, and the arithmetic over them.

A span records its name, start, end, the span that caused it (parent)
and the request it belongs to, plus optional links to further requests
(a fused walk serves several).  Spans stay in a list until the traced
process writes them out at exit.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import threading
import time
from statistics import median


class Recorder:
    """Collects spans; ``current`` carries (span id, request id, name)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.current = contextvars.ContextVar(
            "perfbench_span", default=(0, 0, "")
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    @contextlib.contextmanager
    def span(self, name: str, new_request: bool = False, **attrs):
        """Time the body as one span, a child of the current one."""
        parent, rid, _ = self.current.get()
        sid = self.new_id()
        if new_request:
            rid = sid
        record = {"id": sid, "name": name, "parent": parent, "rid": rid}
        if attrs:
            record["attrs"] = attrs
        token = self.current.set((sid, rid, name))
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.current.reset(token)
            self.spans.append(record)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"])
        )
    return {
        span["id"]: duration(span)
        - covered(span["start"], span["end"], children.get(span["id"], ()))
        for span in spans
    }


def median_ms(values) -> float:
    """Median of second-valued samples, in ms (0.0 for no samples)."""
    values = list(values)
    return median(values) * 1e3 if values else 0.0
