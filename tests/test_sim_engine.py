"""Unit tests for the discrete-event engine and its events."""

import gc

import pytest

from repro.errors import SimulationError
from repro.sim import SimulationEngine


def test_clock_starts_at_zero():
    assert SimulationEngine().now == 0.0


def test_timeout_advances_clock():
    engine = SimulationEngine()

    def proc(engine):
        yield engine.timeout(2.5)
        return engine.now

    assert engine.run_process(proc(engine)) == 2.5


def test_nested_timeouts_accumulate():
    engine = SimulationEngine()

    def proc(engine):
        yield engine.timeout(1.0)
        yield engine.timeout(2.0)
        return engine.now

    assert engine.run_process(proc(engine)) == 3.0


def test_timeout_value_passthrough():
    engine = SimulationEngine()

    def proc(engine):
        got = yield engine.timeout(1.0, value="payload")
        return got

    assert engine.run_process(proc(engine)) == "payload"


def test_negative_timeout_rejected():
    engine = SimulationEngine()
    with pytest.raises(SimulationError):
        engine.timeout(-1.0)


def test_processes_interleave_deterministically():
    engine = SimulationEngine()
    order = []

    def worker(engine, name, delay):
        yield engine.timeout(delay)
        order.append(name)

    engine.process(worker(engine, "slow", 2.0))
    engine.process(worker(engine, "fast", 1.0))
    engine.run()
    assert order == ["fast", "slow"]


def test_same_time_events_fire_in_insertion_order():
    engine = SimulationEngine()
    order = []

    def worker(engine, name):
        yield engine.timeout(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        engine.process(worker(engine, name))
    engine.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_process():
    engine = SimulationEngine()

    def child(engine):
        yield engine.timeout(4.0)
        return 42

    def parent(engine):
        result = yield engine.process(child(engine))
        return result, engine.now

    assert engine.run_process(parent(engine)) == (42, 4.0)


def test_process_exception_propagates_to_waiter():
    engine = SimulationEngine()

    def child(engine):
        yield engine.timeout(1.0)
        raise ValueError("boom")

    def parent(engine):
        try:
            yield engine.process(child(engine))
        except ValueError as exc:
            return str(exc)
        return "no error"

    assert engine.run_process(parent(engine)) == "boom"


def test_uncaught_process_exception_raised_by_run():
    engine = SimulationEngine()

    def child(engine):
        yield engine.timeout(1.0)
        raise RuntimeError("unhandled")

    proc = engine.process(child(engine))
    with pytest.raises(RuntimeError, match="unhandled"):
        engine.run(proc)


def test_manual_event_succeed():
    engine = SimulationEngine()
    gate = engine.event()

    def opener(engine, gate):
        yield engine.timeout(3.0)
        gate.succeed("opened")

    def waiter(gate):
        value = yield gate
        return value

    engine.process(opener(engine, gate))
    result = engine.run(engine.process(waiter(gate)))
    assert result == "opened"
    assert engine.now == 3.0


def test_event_cannot_trigger_twice():
    engine = SimulationEngine()
    gate = engine.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_all_of_waits_for_every_event():
    engine = SimulationEngine()

    def proc(engine):
        values = yield engine.all_of(
            [engine.timeout(1.0, "a"), engine.timeout(5.0, "b")]
        )
        return values, engine.now

    values, when = engine.run_process(proc(engine))
    assert values == ["a", "b"]
    assert when == 5.0


def test_any_of_returns_first():
    engine = SimulationEngine()

    def proc(engine):
        value = yield engine.any_of(
            [engine.timeout(9.0, "slow"), engine.timeout(2.0, "fast")]
        )
        return value, engine.now

    assert engine.run_process(proc(engine)) == ("fast", 2.0)


def test_all_of_empty_succeeds_immediately():
    engine = SimulationEngine()

    def proc(engine):
        values = yield engine.all_of([])
        return values, engine.now

    assert engine.run_process(proc(engine)) == ([], 0.0)


def test_run_until_time_stops_clock():
    engine = SimulationEngine()

    def proc(engine):
        yield engine.timeout(100.0)

    engine.process(proc(engine))
    engine.run(until=10.0)
    assert engine.now == 10.0


def test_run_until_untriggered_event_deadlocks():
    engine = SimulationEngine()
    gate = engine.event()
    with pytest.raises(SimulationError, match="deadlock"):
        engine.run(gate)


def test_yielding_non_event_fails_process():
    engine = SimulationEngine()

    def bad(engine):
        yield 123

    proc = engine.process(bad(engine))
    with pytest.raises(SimulationError, match="must yield Event"):
        engine.run(proc)


# ----------------------------------------------------------------------
# Timer handles, cancellation, and the slot-based fast path
# ----------------------------------------------------------------------
class TestTimerHandles:
    def test_call_in_returns_cancellable_handle(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.call_in(1.0, lambda: fired.append("a"))
        engine.call_in(2.0, lambda: fired.append("b"))
        handle.cancel()
        engine.run()
        assert fired == ["b"]
        assert engine.now == 2.0

    def test_cancel_is_idempotent(self):
        engine = SimulationEngine()
        handle = engine.call_in(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        engine.run()
        assert handle.cancelled

    def test_cancel_after_the_callback_ran_is_a_no_op(self):
        """A fired handle's entry has left the heap: cancelling it counts
        no cancellation, so it can never trigger a compaction that drops
        nothing."""
        engine = SimulationEngine()
        fired = []
        handles = [engine.call_in(1.0, fired.append, index) for index in range(3)]
        engine.run()
        for handle in handles:
            handle.cancel()
        assert fired == [0, 1, 2]
        assert engine._heap == []
        assert engine._cancelled == 0
        assert not any(handle.cancelled for handle in handles)

    def test_callback_arg_slot_avoids_closures(self):
        engine = SimulationEngine()
        got = []
        engine.call_in(1.0, got.append, "payload")
        engine.run()
        assert got == ["payload"]

    def test_call_at_rejects_past(self):
        engine = SimulationEngine()
        engine.call_in(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.call_at(1.0, lambda: None)

    def test_run_until_skips_cancelled_heads(self):
        """A cancelled entry before the deadline must not execute, and
        must not stall the deadline fast-forward."""
        engine = SimulationEngine()
        fired = []
        early = engine.call_in(1.0, lambda: fired.append("early"))
        engine.call_in(20.0, lambda: fired.append("late"))
        early.cancel()
        engine.run(until=10.0)
        assert fired == []
        assert engine.now == 10.0
        engine.run()
        assert fired == ["late"]

    def test_events_processed_counts_only_live_callbacks(self):
        engine = SimulationEngine()
        for index in range(4):
            handle = engine.call_in(float(index + 1), lambda: None)
            if index % 2:
                handle.cancel()
        engine.run()
        assert engine.events_processed == 2

    def test_mass_cancellation_compacts_heap(self):
        engine = SimulationEngine()
        handles = [engine.call_in(float(i + 1), lambda: None) for i in range(300)]
        for handle in handles[:299]:
            handle.cancel()
        # Compaction policy: > 64 cancelled and more than half the heap.
        assert len(engine._heap) < 300
        engine.run()
        assert engine.now == 300.0

    def test_timeout_handle_cancellation_abandons_timeout(self):
        engine = SimulationEngine()
        timeout = engine.timeout(5.0)
        engine.call_in(1.0, lambda: None)
        timeout.handle.cancel()
        engine.run()
        assert engine.now == 1.0
        assert not timeout.triggered

    def test_fired_and_cancelled_timeouts_leave_no_cyclic_garbage(self):
        # A Timeout holds its handle and the handle held the timeout's
        # bound succeed: a cycle only the collector could free, one per
        # timeout. With collection off, nothing may be left for it.
        def waiter(engine):
            for _ in range(1000):
                yield engine.timeout(1.0)

        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            engine = SimulationEngine()
            engine.timeout(5.0).handle.cancel()
            engine.run(engine.process(waiter(engine)))
            assert engine.now == 1000.0
            del engine
            gc.collect()
            garbage = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert garbage == []
