"""Spans recorded around the benchmark's calls into symcirc.

A span is [name, start, end, parent]: parent is the index of the enclosing
span, or None.  Spans stay in memory until the run ends.  A disabled tracer
hands out one shared no-op context, so untraced runs pay one method call per
span and allocate nothing.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, perf_counter(), None, t._stack[-1] if t._stack else None])
        t._stack.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t._stack.pop()
        return False


def busy(spans, lo: int = 0, hi: int | None = None) -> dict:
    """Busy time per span name over spans[lo:hi]: the sum of durations."""
    out = {}
    for name, start, end, _parent in spans[lo:hi]:
        out[name] = out.get(name, 0.0) + (end - start)
    return out


def self_times(spans, lo: int = 0, hi: int | None = None) -> dict:
    """Self time per span name over spans[lo:hi]: busy time minus the time
    its direct child spans cover."""
    out = busy(spans, lo, hi)
    for name, start, end, parent in spans[lo:hi]:
        if parent is not None and parent >= lo:
            pname = spans[parent][0]
            out[pname] -= end - start
    return out
