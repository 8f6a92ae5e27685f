"""In-memory spans and counters for the traced run.

A span records (name, start, end, parent, op id).  Spans stay in memory and
are written once the run ends; a layer's self time is its span's duration
minus the part covered by its child spans.
"""

from __future__ import annotations

import contextlib
import time


class NullTracer:
    """The untraced run: spans and counters cost one call and record nothing."""

    op_id = None
    enabled = False

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass

    def peak(self, name, value):
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []       # (name, start, end, parent, op id)
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, start, time.perf_counter(), parent, self.op_id)
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0), value)

    def take(self) -> tuple[list, dict]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


def self_times(spans: list) -> dict:
    """Total self time per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out
