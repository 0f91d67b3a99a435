"""Spans and counters around the benchmark's calls into usokit.

The untraced run uses NullTracer, whose ``call`` is one extra Python frame,
so end-to-end numbers stay close to plain library use.  The traced run uses
Tracer: every call becomes a span (id, name, start, end, parent, op id) kept
in memory, the enclosing operation is the parent span, and counters are
recorded at the same call boundaries.  Nothing is written until the run
ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

perf_counter = time.perf_counter


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass

    def begin_op(self, name):
        pass

    def end_op(self):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []  # (span id, name, start, end, parent id, op id)
        self.counts = defaultdict(int)
        self._next = 0
        self._op = None  # (span id, name, start) of the open operation

    def _new_id(self):
        self._next += 1
        return self._next

    def begin_op(self, name):
        self._op = (self._new_id(), name, perf_counter())

    def end_op(self):
        sid, name, start = self._op
        self.spans.append((sid, name, start, perf_counter(), None, sid))
        self._op = None

    def call(self, name, fn, *args, **kwargs):
        op = self._op
        parent = op[0] if op else None
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                (self._new_id(), name, start, perf_counter(), parent, parent)
            )

    def count(self, name, n=1):
        self.counts[name] += n

    def busy(self):
        """Total seconds and number of spans per span name."""
        seconds = defaultdict(float)
        calls = defaultdict(int)
        for _, name, start, end, _, _ in self.spans:
            seconds[name] += end - start
            calls[name] += 1
        return seconds, calls
