"""In-memory spans recorded by the benchmark around each call into a layer.

A span has a name, a start and end (perf_counter_ns), the index of the
span that was open when it started (its parent, -1 for none) and the id of
the op it belongs to.  Spans stay in parallel arrays until the run ends;
``write`` then dumps them as CSV with each span's self time, which is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import statistics
import time
from array import array
from collections import defaultdict

_now = time.perf_counter_ns


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: ``span`` costs one method call and records nothing."""

    op_id = 0

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.names)
        t.names.append(self.name)
        t.parents.append(t.stack[-1] if t.stack else -1)
        t.ops.append(t.op_id)
        t.ends.append(0)
        t.stack.append(self.index)
        t.starts.append(_now())
        return None

    def __exit__(self, *exc):
        t = self.tracer
        t.ends[self.index] = _now()
        t.stack.pop()
        return False


class Tracer:

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.stack: list[int] = []
        self.op_id = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> list[int]:
        """Duration of each span minus the union of its children's intervals."""
        children = defaultdict(list)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(index)
        result = []
        for index, (start, end) in enumerate(zip(self.starts, self.ends)):
            covered = 0
            reach = start
            for child in children.get(index, ()):
                lo = max(self.starts[child], reach)
                hi = min(self.ends[child], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result.append(end - start - covered)
        return result

    def median_self_ns(self) -> dict[str, float]:
        """Median self time of the spans of each name."""
        grouped = defaultdict(list)
        for name, self_ns in zip(self.names, self.self_times()):
            grouped[name].append(self_ns)
        return {name: statistics.median(values) for name, values in grouped.items()}

    def write(self, path) -> None:
        self_ns = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,name,start_ns,end_ns,parent,op,self_ns\n")
            for index, row in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.ops, self_ns)
            ):
                handle.write(f"{index},{','.join(map(str, row))}\n")
