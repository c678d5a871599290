"""In-memory span and counter recorder for the traced benchmark run.

A span is (name, start, end, parent, cert): ``parent`` is the index of the
enclosing span in ``spans`` (or -1) and ``cert`` the identifier of the
certificate being computed, so all spans of one certificate share it.
Spans are only recorded around the benchmark's own calls into the package;
nothing inside the package is instrumented.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects spans and exact counters; written out once, at the end."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, cert]
        self.counters = {}
        self.cert = None
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.cert]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def count_max(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def self_times(self, first=0, last=None):
        """Per-name self time over spans[first:last]: a span's duration minus
        the durations of its direct children (spans never overlap siblings,
        because the benchmark is single-threaded)."""
        last = len(self.spans) if last is None else last
        child = [0.0] * (last - first)
        for name, t0, t1, parent, _ in self.spans[first:last]:
            if parent >= first:
                child[parent - first] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans[first:last]):
            out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
        return out

    def to_json(self):
        return [
            {"name": n, "start": t0, "end": t1, "parent": p, "cert": c}
            for n, t0, t1, p, c in self.spans
        ]
