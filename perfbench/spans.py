"""In-memory spans and counts recorded around the benchmark's calls into glkit.

A span is [name, start, end, parent, item]: `parent` is the index of the
enclosing span (None at the top) and `item` the id of the workload item
being processed. Counts are summed by name. Nothing is written until the
run ends; `self_times` then charges each span its duration minus the
part of it covered by its child spans.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        spans = tracer.spans
        stack = tracer.stack
        self.index = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else None, tracer.item])

    def __enter__(self) -> "_Span":
        self.tracer.stack.append(self.index)
        self.tracer.spans[self.index][1] = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][2] = perf_counter()
        self.tracer.stack.pop()

    def rename(self, name: str) -> None:
        """Name the span after its outcome, e.g. by the verdict it returned."""
        self.tracer.spans[self.index][0] = name


class Tracer:
    """Records spans and counts; one instance per traced pass."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item: int | None = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        return dict(totals)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def rename(self, name: str) -> None:
        pass


class NullTracer:
    """Stands in for `Tracer` on untraced passes; records nothing."""

    enabled = False
    _SPAN = _NullSpan()
    item = None

    def span(self, name: str) -> _NullSpan:
        return self._SPAN

    def count(self, name: str, value: float = 1) -> None:
        pass
