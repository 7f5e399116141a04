"""Structured, sim-time request tracing.

Spans model one logical unit of work (a client block write, a master
allocation RPC, a block transfer flow, a repair round) with:

* ``span_id`` — a sequential integer, assigned in creation order, so two
  identically-seeded simulation runs assign identical IDs;
* ``trace_id`` — the ``span_id`` of the root span of the request, shared
  by every descendant;
* ``parent_id`` — the immediate parent span, or ``None`` for roots.

Because the simulation interleaves many generator-based processes on one
thread, the *implicit* current-span stack (``tracer.use(span)``) is only
safe inside synchronous sections that never yield back to the engine.
Spans that live across ``yield`` boundaries — block transfers, repair
rounds, client ops — must be linked with an explicit ``parent=`` at
creation time.

Finished spans and point events are appended to ``tracer.records`` as
plain dicts in completion order; :mod:`repro.obs.export` serializes them
to JSONL. There is no disabled tracer: while observability is off,
``obs.tracer`` is ``None`` and every feed site checks ``obs.enabled``
first.
"""

from __future__ import annotations

from typing import Callable


class Span:
    """One traced unit of work; call :meth:`end` exactly once."""

    __slots__ = ("tracer", "name", "span_id", "trace_id", "parent_id",
                 "start", "attrs", "_done")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        trace_id: int,
        parent_id: int | None,
        start: float,
        attrs: dict,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.start = start
        self.attrs = attrs
        self._done = False

    def annotate(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> None:
        """A point event parented to this span."""
        self.tracer.event(name, parent=self, **attrs)

    def end(self, status: str = "ok", **attrs) -> None:
        if self._done:
            return
        self._done = True
        if attrs:
            self.attrs.update(attrs)
        record = {
            "kind": "span",
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.tracer.now(),
            "status": status,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        self.tracer.records.append(record)

    @property
    def duration(self) -> float:
        return self.tracer.now() - self.start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, id={self.span_id}, trace={self.trace_id})"


class _SpanScope:
    """``with tracer.use(span):`` — push/pop the implicit current span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: "Span") -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._stack.pop()


class Tracer:
    """Span factory emitting deterministic records in completion order."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._next_id = 1
        self._stack: list[Span] = []
        self.records: list[dict] = []

    def now(self) -> float:
        return self._clock()

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def start_span(
        self, name: str, parent: Span | None = None, **attrs
    ) -> Span:
        """Open a span. ``parent`` defaults to the implicit current span."""
        if parent is None:
            parent = self.current
        span_id = self._next_id
        self._next_id += 1
        trace_id = parent.trace_id if parent is not None else span_id
        parent_id = parent.span_id if parent is not None else None
        return Span(self, name, span_id, trace_id, parent_id,
                    self._clock(), attrs)

    def use(self, span: Span) -> _SpanScope:
        """Make ``span`` the implicit parent for the enclosed sync section."""
        return _SpanScope(self, span)

    def event(self, name: str, parent: Span | None = None, **attrs) -> None:
        """Record a point event, parented like a span but with no duration."""
        if parent is None:
            parent = self.current
        record = {
            "kind": "event",
            "name": name,
            "time": self._clock(),
            "trace_id": parent.trace_id if parent is not None else None,
            "parent_id": parent.span_id if parent is not None else None,
        }
        if attrs:
            record["attrs"] = attrs
        self.records.append(record)
