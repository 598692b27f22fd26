"""In-memory spans recorded around the benchmark's calls into each layer.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``op`` the id of the operation
it belongs to.  Spans stay in memory and are written out once the run ends.
A disabled tracer records nothing and adds one function call per layer call.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)``, as a span named ``name`` when enabled."""
        if not self.enabled:
            return fn(*args)
        with self.span(name):
            return fn(*args)

    def span(self, name: str, op: int | None = None) -> "_Span":
        return _Span(self, name, op)

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            self.counts[name] += n


class _Span:
    __slots__ = ("tracer", "name", "op", "index")

    def __init__(self, tracer: Tracer, name: str, op: int | None):
        self.tracer, self.name, self.op = tracer, name, op

    def __enter__(self):
        tr = self.tracer
        if not tr.enabled:
            return self
        parent = tr._stack[-1] if tr._stack else -1
        op = self.op
        if op is None and parent >= 0:
            op = tr.spans[parent][4]
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter_ns(), 0, parent, op])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        if tr.enabled:
            tr.spans[self.index][2] = time.perf_counter_ns()
            tr._stack.pop()
        return False


def self_seconds(spans: list[list]) -> Counter:
    """Per span name, the seconds its spans ran minus their children's."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        out[name] += (end - start - child_ns[i]) / 1e9
    return out


def outer_seconds(spans: list[list], name: str) -> float:
    """Seconds covered by the spans named ``name`` not nested in another."""
    total = 0
    for sp in spans:
        if sp[0] != name:
            continue
        parent = sp[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += sp[2] - sp[1]
    return total / 1e9
