"""The discrete-event simulation engine.

The engine keeps a simulated clock and a priority queue of scheduled
callbacks. *Processes* are Python generators that ``yield`` events
(:class:`~repro.sim.events.Event` subclasses); the engine resumes a
process when the event it waits on triggers, passing the event's value
back into the generator (or throwing its exception).

The engine is single-threaded and fully deterministic: ties in the event
heap are broken by insertion order.

Scheduling is slot-based: every heap entry is a :class:`TimerHandle`
holding a ``(fn, arg)`` pair, so dispatching an event callback does not
allocate a closure, and any scheduled callback can be cancelled before
it fires (:meth:`TimerHandle.cancel`). Cancelled entries are skipped
when popped and compacted away wholesale when they start to dominate
the heap, so a hot rescheduling path (e.g. the flow scheduler moving
its wakeup on every allocation change) neither runs stale callbacks nor
leaks heap memory.

Example
-------
>>> engine = SimulationEngine()
>>> def hello(engine):
...     yield engine.timeout(5.0)
...     return engine.now
>>> proc = engine.process(hello(engine))
>>> engine.run()
>>> proc.value
5.0
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator

from repro.errors import SimulationError
from repro.sim.events import PENDING, SUCCEEDED, AllOf, AnyOf, Event, Timeout

#: Sentinel: the scheduled callback takes no argument.
_NO_ARG = object()

#: Compaction policy: rebuild the heap once it holds more than this many
#: cancelled entries *and* they outnumber the live ones.
_COMPACT_MIN_CANCELLED = 64


class TimerHandle:
    """One scheduled callback; cancellable until it fires.

    Returned by :meth:`SimulationEngine.call_at` / ``call_in``. Calling
    :meth:`cancel` guarantees the callback never runs; the heap entry is
    dropped lazily (on pop, or during compaction). Once the callback has
    run, :meth:`cancel` does nothing. A fired or cancelled handle holds
    neither the callback nor its argument: a :class:`Timeout`'s
    callback is its own ``succeed``, and the cycle through the handle
    would otherwise be left to the garbage collector.
    """

    __slots__ = ("when", "fn", "arg", "cancelled", "_engine")

    def __init__(
        self,
        when: float,
        fn: Callable[..., None],
        arg: Any,
        engine: "SimulationEngine",
    ) -> None:
        self.when = when
        self.fn = fn
        self.arg = arg
        self.cancelled = False
        #: The engine whose heap holds the entry; ``None`` once the
        #: callback has run or been cancelled.
        self._engine: "SimulationEngine | None" = engine

    def cancel(self) -> None:
        """Prevent the callback from running; idempotent, and a no-op
        once it has run."""
        engine, self._engine = self._engine, None
        if engine is not None:
            self.cancelled = True
            self.fn = self.arg = None
            engine._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<TimerHandle at={self.when} {state}>"


class Process(Event):
    """A running generator; it is itself an event that triggers on return.

    The generator's ``return`` value becomes the process's event value.
    An uncaught exception inside the generator fails the process event,
    propagating to any process waiting on it.
    """

    def __init__(
        self,
        engine: "SimulationEngine",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(engine)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        # Kick off the generator on the next engine step at the current time.
        bootstrap = Event(engine)
        bootstrap.add_callback(self._resume)
        bootstrap.succeed(None)

    def _resume(self, event: Event) -> None:
        if self._state != PENDING:
            return
        try:
            if event._state == SUCCEEDED:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._exception)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process crashed
            self.fail(exc)
            for listener in self.engine.crash_listeners:
                listener(self, exc)
            return
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event instances"
                )
            )
            return
        target.add_callback(self._resume)


class SimulationEngine:
    """Simulated clock plus event heap; the heart of the substrate."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, TimerHandle]] = []
        self._sequence = 0
        self._cancelled = 0
        #: Total callbacks executed; the wall-clock benchmarks divide
        #: this by elapsed real time to report simulated events/second.
        self.events_processed = 0
        #: Called as ``listener(process, exc)`` whenever a process
        #: generator raises instead of returning — the flight recorder
        #: registers here so an unhandled crash can open an incident.
        #: Empty list = one truthiness check on the failure path only.
        self.crash_listeners: list[Callable] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event the caller will settle manually."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that succeeds ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def all_of(self, events: list[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: list[Event]) -> AnyOf:
        return AnyOf(self, events)

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        """Start a process from a generator; returns the waitable process."""
        return Process(self, generator, name=name)

    # ------------------------------------------------------------------
    # Scheduling internals (used by Event/Timeout)
    # ------------------------------------------------------------------
    def _push(self, when: float, fn: Callable[..., None], arg: Any) -> TimerHandle:
        self._sequence += 1
        handle = TimerHandle(when, fn, arg, self)
        heapq.heappush(self._heap, (when, self._sequence, handle))
        return handle

    def call_at(
        self, when: float, callback: Callable[..., None], arg: Any = _NO_ARG
    ) -> TimerHandle:
        """Schedule ``callback`` at absolute simulated time ``when``.

        Returns a :class:`TimerHandle`; cancel it to drop the callback.
        Pass ``arg`` to have ``callback(arg)`` invoked without the engine
        allocating a wrapper closure.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._now}"
            )
        return self._push(when, callback, arg)

    def call_in(
        self, delay: float, callback: Callable[..., None], arg: Any = _NO_ARG
    ) -> TimerHandle:
        """Schedule a callback ``delay`` seconds from now."""
        return self.call_at(self._now + delay, callback, arg)

    def _schedule_timeout(
        self, event: Timeout, delay: float, value: Any
    ) -> TimerHandle:
        # Slot-based: succeed(value) needs no lambda wrapper.
        return self._push(self._now + delay, event.succeed, value)

    def _schedule_callbacks(self, event: Event) -> None:
        """Queue every waiter of ``event``, which has some, at the current
        time (``_push`` inlined: this runs once per settled event)."""
        callbacks, event.callbacks = event.callbacks, None
        now, heap, push = self._now, self._heap, heapq.heappush
        for callback in callbacks:
            self._sequence += 1
            push(heap, (now, self._sequence, TimerHandle(now, callback, event, self)))

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled > _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (amortized O(n))."""
        # In place: ``run`` holds the list across steps.
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0

    def _next_event_time(self) -> float | None:
        """Time of the next live entry; pops cancelled heads on the way."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance to the next live scheduled callback and run it,
        dropping the cancelled entries ahead of it."""
        heap = self._heap
        while heap:
            when, _seq, handle = heapq.heappop(heap)
            if handle.cancelled:
                self._cancelled -= 1
                continue
            handle._engine = None  # it fires: a later cancel() is a no-op
            fn, arg = handle.fn, handle.arg
            handle.fn = handle.arg = None  # no Timeout -> handle -> succeed cycle
            self._now = when
            self.events_processed += 1
            if arg is _NO_ARG:
                fn()
            else:
                fn(arg)
            return
        raise SimulationError("step() called on an empty event heap")

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        * ``until=None`` — run until the event heap drains.
        * ``until=<float>`` — run until simulated time reaches the value.
        * ``until=<Event>`` — run until the event triggers, then return
          its value (raising its exception if it failed).
        """
        heap = self._heap
        if isinstance(until, Event):
            while until._state == PENDING:
                # ``step`` drops cancelled heads; look past them only
                # when one is on top.
                if not heap or (
                    heap[0][2].cancelled and self._next_event_time() is None
                ):
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event triggered (deadlock?)"
                    )
                self.step()
            return until.value
        if until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError("run(until=...) target is in the past")
            while True:
                when = self._next_event_time()
                if when is None or when > deadline:
                    break
                self.step()
            self._now = deadline
            return None
        while heap and (
            not heap[0][2].cancelled or self._next_event_time() is not None
        ):
            self.step()
        return None

    def run_process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Any:
        """Start a process and run the simulation until it completes."""
        return self.run(self.process(generator, name=name))
