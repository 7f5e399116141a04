"""Unit tests for the max–min fair fluid-flow bandwidth model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.obs import Observability
from repro.sim import FlowScheduler, Resource, SimulationEngine


def make_sched():
    engine = SimulationEngine()
    return engine, FlowScheduler(engine)


def run_transfer(engine, sched, size, resources, label=""):
    flow = sched.start_flow(size, resources, label=label)
    engine.run(flow.completed)
    return flow


def test_single_flow_runs_at_capacity():
    engine, sched = make_sched()
    link = Resource("link", capacity=100.0)
    flow = run_transfer(engine, sched, 1000.0, [link])
    assert flow.duration == pytest.approx(10.0)


def test_two_flows_share_a_link_equally():
    engine, sched = make_sched()
    link = Resource("link", capacity=100.0)
    f1 = sched.start_flow(1000.0, [link])
    f2 = sched.start_flow(1000.0, [link])
    engine.run()
    # Both share 50 B/s for the duration; both finish at t=20.
    assert f1.finished_at == pytest.approx(20.0)
    assert f2.finished_at == pytest.approx(20.0)


def test_late_arrival_slows_first_flow():
    engine, sched = make_sched()
    link = Resource("link", capacity=100.0)

    def starter(engine, sched):
        first = sched.start_flow(1000.0, [link], label="first")
        yield engine.timeout(5.0)
        second = sched.start_flow(250.0, [link], label="second")
        yield engine.all_of([first.completed, second.completed])
        return first, second

    first, second = engine.run_process(starter(engine, sched))
    # first: 500B at 100B/s, then shares 50B/s. second: 250B at 50B/s,
    # finishing at t=10; the remaining 250B of first then runs at 100B/s.
    assert second.finished_at == pytest.approx(10.0)
    assert first.finished_at == pytest.approx(12.5)


def test_pipeline_rate_set_by_slowest_stage():
    engine, sched = make_sched()
    fast = Resource("fast", capacity=1000.0)
    slow = Resource("slow", capacity=10.0)
    flow = run_transfer(engine, sched, 100.0, [fast, slow])
    assert flow.duration == pytest.approx(10.0)


def test_max_min_gives_residual_to_unconstrained_flow():
    engine, sched = make_sched()
    shared = Resource("shared", capacity=100.0)
    narrow = Resource("narrow", capacity=20.0)
    constrained = sched.start_flow(100.0, [shared, narrow], label="narrowed")
    free = sched.start_flow(100.0, [shared], label="free")
    # Progressive filling: narrow caps one flow at 20, the other gets 80.
    assert constrained.rate == pytest.approx(20.0)
    assert free.rate == pytest.approx(80.0)
    engine.run()


def test_duplicate_resource_counted_once():
    engine, sched = make_sched()
    link = Resource("link", capacity=100.0)
    flow = run_transfer(engine, sched, 1000.0, [link, link])
    assert flow.duration == pytest.approx(10.0)


def test_zero_size_flow_completes_instantly():
    engine, sched = make_sched()
    link = Resource("link", capacity=100.0)
    flow = sched.start_flow(0.0, [link])
    assert flow.completed.triggered
    assert flow.finished_at == 0.0
    assert link.active_count == 0


def test_active_count_tracks_flows():
    engine, sched = make_sched()
    link = Resource("link", capacity=100.0)
    flow = sched.start_flow(1000.0, [link])
    assert link.active_count == 1
    engine.run(flow.completed)
    assert link.active_count == 0


def test_cancel_flow_fails_waiter_and_frees_capacity():
    engine, sched = make_sched()
    link = Resource("link", capacity=100.0)

    def runner(engine, sched):
        doomed = sched.start_flow(1000.0, [link], label="doomed")
        survivor = sched.start_flow(1000.0, [link], label="survivor")
        yield engine.timeout(2.0)
        sched.cancel_flow(doomed, ConnectionError("worker died"))
        try:
            yield doomed.completed
        except ConnectionError:
            pass
        else:
            raise AssertionError("cancelled flow did not raise")
        yield survivor.completed
        return survivor

    survivor = engine.run_process(runner(engine, sched))
    # survivor: 100B at 50B/s for 2s, then 900B at full 100B/s.
    assert survivor.finished_at == pytest.approx(11.0)


def test_negative_size_rejected():
    engine, sched = make_sched()
    with pytest.raises(SimulationError):
        sched.start_flow(-1.0, [Resource("r", 1.0)])


def test_zero_capacity_resource_rejected():
    with pytest.raises(SimulationError):
        Resource("bad", capacity=0.0)


def test_resourceless_flow_is_instant():
    engine, sched = make_sched()
    flow = sched.start_flow(10.0, [])
    engine.run()
    assert flow.finished_at == 0.0


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8
    ),
    capacity=st.floats(min_value=1.0, max_value=1e5),
)
def test_property_total_time_conserves_work(sizes, capacity):
    """Total work through a single bottleneck equals size/capacity."""
    engine, sched = make_sched()
    link = Resource("link", capacity=capacity)
    flows = [sched.start_flow(size, [link]) for size in sizes]
    engine.run()
    makespan = max(flow.finished_at for flow in flows)
    assert makespan == pytest.approx(sum(sizes) / capacity, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=1e5),  # size
            st.integers(min_value=0, max_value=2),  # which extra resource
        ),
        min_size=1,
        max_size=6,
    )
)
def test_property_rates_never_exceed_any_capacity(data):
    """At allocation time, the sum of rates through each resource is
    bounded by that resource's capacity."""
    engine, sched = make_sched()
    shared = Resource("shared", capacity=500.0)
    extras = [Resource(f"extra{i}", capacity=100.0 * (i + 1)) for i in range(3)]
    for size, pick in data:
        sched.start_flow(size, [shared, extras[pick]])
    for resource in [shared, *extras]:
        total = sum(flow.rate for flow in resource.flows)
        assert total <= resource.capacity * (1 + 1e-9)
    engine.run()
    assert all(not r.flows for r in [shared, *extras])


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=1e5), min_size=2, max_size=6
    )
)
def test_property_equal_flows_finish_together(sizes):
    """Identical flows through one bottleneck all finish at the same time."""
    engine, sched = make_sched()
    link = Resource("link", capacity=1000.0)
    size = sizes[0]
    flows = [sched.start_flow(size, [link]) for _ in sizes]
    engine.run()
    finishes = {round(flow.finished_at, 9) for flow in flows}
    assert len(finishes) == 1


class TestCongestionOverhead:
    def test_effective_capacity_declines_with_flows(self):
        engine, sched = make_sched()
        link = Resource("c", capacity=100.0, congestion_overhead=0.10)
        assert link.effective_capacity() == pytest.approx(100.0)
        f1 = sched.start_flow(1e6, [link])
        assert link.effective_capacity() == pytest.approx(100.0)  # 1 flow
        f2 = sched.start_flow(1e6, [link])
        # Two flows: 100 / (1 + 0.1) aggregate.
        assert link.effective_capacity() == pytest.approx(100.0 / 1.1)
        total_rate = f1.rate + f2.rate
        assert total_rate == pytest.approx(100.0 / 1.1)
        engine.run()

    def test_zero_overhead_conserves_capacity(self):
        engine, sched = make_sched()
        link = Resource("z", capacity=100.0)
        flows = [sched.start_flow(1e5, [link]) for _ in range(5)]
        assert sum(f.rate for f in flows) == pytest.approx(100.0)
        engine.run()

    def test_aggregate_goodput_declines_with_parallelism(self):
        """The substitution behind Fig 2's declining curves: more
        concurrent flows -> lower aggregate throughput."""
        def makespan(n):
            engine, sched = make_sched()
            link = Resource("l", capacity=100.0, congestion_overhead=0.05)
            total = 1e5
            flows = [sched.start_flow(total / n, [link]) for _ in range(n)]
            engine.run()
            return max(f.finished_at for f in flows)

        assert makespan(10) > makespan(2) > makespan(1)


class TestSchedulerCounters:
    def test_totals_track_flows(self):
        engine, sched = make_sched()
        link = Resource("t", capacity=100.0)
        for size in (100.0, 200.0):
            sched.start_flow(size, [link])
        engine.run()
        assert sched.total_flows_started == 2
        assert sched.total_bytes_completed == pytest.approx(300.0)

    def test_cancelled_flow_not_counted_complete(self):
        engine, sched = make_sched()
        link = Resource("x", capacity=100.0)
        flow = sched.start_flow(1000.0, [link])
        sched.cancel_flow(flow, RuntimeError("gone"))
        with pytest.raises(RuntimeError):
            engine.run(flow.completed)
        assert sched.total_bytes_completed == 0.0

    def test_cancel_unknown_flow_is_noop(self):
        engine, sched = make_sched()
        link = Resource("y", capacity=100.0)
        flow = sched.start_flow(10.0, [link])
        engine.run()
        sched.cancel_flow(flow, RuntimeError("late"))  # already done


# ----------------------------------------------------------------------
# Incremental scheduling specifics
# ----------------------------------------------------------------------
def test_refresh_hint_matches_full_refresh():
    """A targeted refresh([resource]) must re-share exactly like the
    hint-less full refresh."""

    def run(hinted):
        engine, sched = make_sched()
        link = Resource("link", capacity=100.0)
        flow = sched.start_flow(1000.0, [link])

        def fault(engine, sched):
            yield engine.timeout(5.0)
            link.capacity = 50.0
            sched.refresh([link] if hinted else None)

        engine.process(fault(engine, sched))
        engine.run()
        return flow.finished_at

    assert run(hinted=True) == run(hinted=False)


def test_progress_is_materialized_lazily():
    """Between rate changes, ``remaining`` stays untouched; the truth is
    ``last_advanced`` plus the cached rate."""
    engine, sched = make_sched()
    link = Resource("link", capacity=100.0)
    flow = sched.start_flow(1000.0, [link])
    engine.run(until=5.0)
    assert flow.remaining == 1000.0  # not swept per event
    assert flow.last_advanced == 0.0
    assert flow.rate == pytest.approx(100.0)
    # A rate change materializes the elapsed progress.
    sched.set_capacity(link, 50.0)
    assert flow.remaining == pytest.approx(500.0)
    assert flow.last_advanced == 5.0
    engine.run()
    assert flow.finished_at == pytest.approx(15.0)


def test_superseded_wakeups_are_cancelled_not_leaked():
    """Restarting flows reschedules the single parked wakeup timer
    instead of abandoning stale heap entries."""
    engine, sched = make_sched()
    link = Resource("link", capacity=100.0)
    flows = [sched.start_flow(1000.0, [link]) for _ in range(50)]
    # One valid parked wakeup; every superseded one was cancelled.
    live = [entry for entry in engine._heap if not entry[2].cancelled]
    assert len(live) == 1
    engine.run()
    assert all(flow.completed.ok for flow in flows)


def test_resource_flow_sets_preserve_attach_order():
    engine, sched = make_sched()
    link = Resource("link", capacity=100.0)
    flows = [sched.start_flow(1000.0, [link]) for _ in range(4)]
    assert [f.seq for f in link.flows] == [f.seq for f in flows]
    sched.cancel_flow(flows[1], RuntimeError("x"))
    assert [f.seq for f in link.flows] == [flows[0].seq, flows[2].seq, flows[3].seq]


class TestUtilizationHandles:
    """``_sample_utilization`` keeps each resource's series handle; a
    handle never outlives the registry it was bound in."""

    @staticmethod
    def series(obs, name):
        return obs.metrics.find("timeseries", "resource_utilization", resource=name)

    def test_handles_are_rebound_when_the_registry_is_swapped(self):
        engine = SimulationEngine()
        obs = Observability(clock=lambda: engine.now).enable()
        sched = FlowScheduler(engine, obs=obs)
        link = Resource("link", capacity=100.0)
        for _ in range(2):
            sched.start_flow(1000.0, [link])
        engine.run()
        first_registry, first = obs.metrics, self.series(obs, "link")
        before = first.samples
        assert before and before[0] == (0.0, 1.0)

        obs.disable()
        run_transfer(engine, sched, 500.0, [link])  # off: nothing is fed
        obs.enable()
        assert obs.metrics is not first_registry
        started = engine.now
        run_transfer(engine, sched, 500.0, [link])

        second = self.series(obs, "link")
        assert second is not first
        # One sample as the flow starts; an idle link gets none at the end.
        assert second.samples == [(started, 1.0)]
        assert first.samples == before
        assert first_registry.find("gauge", "flows_active").value == 0.0

    def test_two_schedulers_on_one_observability_feed_one_series(self):
        engine = SimulationEngine()
        obs = Observability(clock=lambda: engine.now).enable()
        one, two = FlowScheduler(engine, obs=obs), FlowScheduler(engine, obs=obs)
        a, b = Resource("shared", capacity=100.0), Resource("shared", capacity=100.0)
        run_transfer(engine, one, 1000.0, [a])
        run_transfer(engine, two, 1000.0, [b])
        run_transfer(engine, one, 1000.0, [a])
        assert self.series(obs, "shared").samples == [
            (0.0, 1.0), (10.0, 1.0), (20.0, 1.0)
        ]
        assert sum(
            1 for i in obs.metrics.instruments() if i.kind == "timeseries"
        ) == 1
