"""In-memory spans around calls, and the self-time arithmetic over them.

A span is a list [name, start, end, parent, pass_id]: start and end are
time.perf_counter() readings, parent is the index of the enclosing span
in the same list (None for a root), and pass_id groups the spans of one
benchmark pass. Spans stay in memory while the benchmark runs and are
written out once at the end, so tracing adds no I/O to a pass.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter(), None, parent, self.pass_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return spanned

    @contextmanager
    def installed(self, targets):
        """Replace each (owner, attribute, span name) with a spanned
        version for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attribute, name in targets:
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(original, name))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent and overlapping children are
    counted once, so the self times of a tree sum to its root's duration.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children[index]):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def seconds_by_metric(spans, metric_of: dict[str, str]) -> dict[int, dict[str, float]]:
    """Per pass id, the self seconds of its spans summed per metric name."""
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        totals[span[4]][metric_of[span[0]]] += own
    return {pass_id: dict(metrics) for pass_id, metrics in totals.items()}
