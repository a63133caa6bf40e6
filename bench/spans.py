"""Outside-in tracing: spans recorded around calls into the program's layers.

A `Tracer` replaces chosen functions and methods of `modnmt` with wrappers
that record a span (name, start, end, parent) per call, and puts the
originals back on exit. Names are wrapped where the program looks them up,
so a name imported with `from ... import` is wrapped in the importing
module. Spans stay in memory; `per_unit` reduces them at the end.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread's call stack, so children nest inside their
    parent and do not overlap one another.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


class Tracer:
    """Records spans for wrapped callables while active (a context manager)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        if self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = self.clock()
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def close_if_open(self, name: str) -> None:
        if self._stack and self.spans[self._stack[-1]].name == name:
            self.close(self._stack[-1])

    # -- wrapping -----------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None, opens: str | None = None,
             closes: str | None = None) -> None:
        """Record a span named `name` around every call of `owner.attr`.

        `count(span, args, result)` may add counters to the span. `opens` names
        a span opened before the call and left open; `closes` names one closed
        after it returns; together they mark units such as a training step.
        """
        original = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if opens:
                tracer.open(opens)
            i = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer.close(i)
            if count is not None:
                count(span, args, result)
            if closes:
                tracer.close_if_open(closes)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False


# -- reduction ----------------------------------------------------------------------


def _enclosing_unit(spans: list[Span], units: set[str]) -> list[int | None]:
    """Index of the nearest ancestor-or-self span whose name is in `units`."""
    out: list[int | None] = []
    for i, s in enumerate(spans):
        if s.name in units:
            out.append(i)
        elif s.parent is not None:
            out.append(out[s.parent])
        else:
            out.append(None)
    return out


def per_unit(spans: list[Span], units: set[str], names: set[str], what: str = "time") -> list[float]:
    """For every unit span holding at least one span named in `names`, the sum
    over those spans of their time, self time, or a counter named `what`."""
    owner = _enclosing_unit(spans, units)
    selfs = self_times(spans) if what == "self" else None
    sums: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s.name not in names or owner[i] is None:
            continue
        if what == "time":
            v = s.duration
        elif what == "self":
            v = selfs[i]
        else:
            v = s.counts.get(what, 0)
        sums[owner[i]] = sums.get(owner[i], 0.0) + v
    return [sums[k] for k in sorted(sums)]


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
