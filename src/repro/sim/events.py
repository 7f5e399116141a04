"""Waitable events for the simulation engine.

An :class:`Event` is a one-shot future living on a simulated timeline.
Processes (generators driven by :class:`~repro.sim.engine.SimulationEngine`)
``yield`` events to suspend until the event triggers; the event's value
becomes the result of the ``yield`` expression, and a failed event raises
its exception inside the process.

Events are allocation-light: the callback list is created lazily on the
first ``add_callback`` (most flow-completion events have exactly one
waiter, and many none), and the classes use ``__slots__`` — the
simulator creates one event per transfer, timeout, and heartbeat, so
this is a hot path at benchmark scale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import SimulationEngine, TimerHandle

PENDING = "pending"
SUCCEEDED = "succeeded"
FAILED = "failed"


class Event:
    """A one-shot, waitable occurrence on the simulated timeline."""

    __slots__ = ("engine", "callbacks", "_state", "_value", "_exception")

    def __init__(self, engine: "SimulationEngine") -> None:
        self.engine = engine
        #: Lazily-created list of waiters; ``None`` until the first
        #: ``add_callback`` (and again after the engine consumes them).
        self.callbacks: list[Callable[["Event"], None]] | None = None
        self._state = PENDING
        self._value: Any = None
        self._exception: BaseException | None = None

    @property
    def triggered(self) -> bool:
        return self._state != PENDING

    @property
    def ok(self) -> bool:
        return self._state == SUCCEEDED

    @property
    def value(self) -> Any:
        if self._state == PENDING:
            raise SimulationError("event value read before it triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> BaseException | None:
        return self._exception

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully; callbacks run at the current time."""
        # Every flow, timeout and process ends here: no helper frame.
        if self._state != PENDING:
            raise SimulationError("event triggered twice")
        self._state = SUCCEEDED
        self._value = value
        if self.callbacks:
            self.engine._schedule_callbacks(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters will see it raised."""
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail requires an exception instance")
        if self._state != PENDING:
            raise SimulationError("event triggered twice")
        self._state = FAILED
        self._exception = exception
        if self.callbacks:
            self.engine._schedule_callbacks(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; runs immediately if already triggered."""
        if self._state != PENDING:
            engine = self.engine
            engine._push(engine._now, callback, self)
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} state={self._state}>"


class Timeout(Event):
    """An event that succeeds ``delay`` simulated seconds after creation."""

    __slots__ = ("delay", "handle")

    def __init__(
        self, engine: "SimulationEngine", delay: float, value: Any = None
    ) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self.delay = delay
        #: The underlying :class:`~repro.sim.engine.TimerHandle`; cancel
        #: it to abandon the timeout without it ever firing.
        self.handle: "TimerHandle" = engine._schedule_timeout(self, delay, value)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, engine: "SimulationEngine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when all child events succeed; fails fast on any failure."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child.value for child in self.events])


class AnyOf(_Condition):
    """Succeeds with the first child to succeed; fails if the first settles badly."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self.succeed(event.value)
        else:
            self.fail(event.exception)  # type: ignore[arg-type]
