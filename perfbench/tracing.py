"""Spans around the benchmark's calls into the stabpres library.

A span records the name of the call ("layer.operation"), the input it
ran on, its start and end on the perf_counter clock, the span that
caused it, and the phase of the run it belongs to ("setup" or a pass
number).  Counts are recorded at the same boundaries.  Everything is
kept in memory and written out once, at the end of the run.

With tracing off, `call` is a plain call and `count` does nothing, so
the untraced passes that give the end-to-end metrics pay one extra
Python call per library call and nothing else.  Work done only to
derive a count runs inside `counting()`, whose time is kept apart so
that it does not show up as tracing overhead.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    input: str
    start: float
    end: float
    parent: object  # span id or None
    phase: str


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.phase = "setup"
        self.spans = []
        self.counts = defaultdict(Counter)  # phase -> name -> value
        self._stack = []
        self.counting_s = 0.0

    def call(self, name, input_name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, input_name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, input_name):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id; filled in when the span ends
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, input_name, start, end, parent, self.phase)

    def count(self, name, value):
        if self.enabled:
            self.counts[self.phase][name] += value

    @contextmanager
    def counting(self):
        start = perf_counter()
        try:
            yield
        finally:
            self.counting_s += perf_counter() - start

    def durations(self, name):
        """Durations of every span with this name, in recording order."""
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_time_by_phase(self):
        """phase -> span name -> summed self time: each span's duration
        minus the time its child spans cover."""
        out = defaultdict(Counter)
        for s in self.spans:
            out[s.phase][s.name] += s.end - s.start
            if s.parent is not None:
                parent = self.spans[s.parent]
                out[parent.phase][parent.name] -= s.end - s.start
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [asdict(s) for s in self.spans],
                    "counts": {p: dict(c) for p, c in self.counts.items()},
                },
                fh,
            )
