"""Differential tests: DenseFlowSolver and IncrementalFlowSolver agree.

The incremental solver's correctness argument has two halves: max–min
filling never moves capacity between disconnected components of the
flow↔resource graph, so re-filling only the touched component is
*bit-identical* to re-filling everything; and inside the component, a
round recorded in the journal is reused only when a fill from round 0
would select the same bottleneck and do the same arithmetic. These
tests hold it to that: randomized start/cancel/degrade schedules, a
stress differential over four topologies, the three ways the journal
broke while it was being sized, the chaos seeds, and a DFSIO run must
produce exactly equal completion times, ``bytes_served``, and
byte-identical trace/metrics exports under both solvers.
"""

import math

import pytest

from repro import OctopusFileSystem
from repro.cluster import small_cluster_spec
from repro.fs.invariants import block_map_fingerprint
from repro.obs import Observability, metrics_json, to_jsonl
from repro.sim import (
    FlowScheduler,
    FlowSet,
    IncrementalFlowSolver,
    Resource,
    SimulationEngine,
)
from repro.sim import flows as flows_module
from repro.util.rng import DeterministicRng
from repro.util.units import MB
from repro.workloads.dfsio import Dfsio

from tests.test_chaos_convergence import _run_chaos


# ----------------------------------------------------------------------
# Randomized schedules through the bare scheduler
# ----------------------------------------------------------------------
def _random_script(seed, ops=60, groups=4, privates_per_group=3):
    """Generate a deterministic (time, op, params) schedule.

    The topology is several rack-like groups — one shared uplink plus a
    few private channels each — with occasional cross-group flows so the
    component structure keeps merging and splitting.
    """
    rng = DeterministicRng(seed, "solver-equivalence")
    script = []
    clock = 0.0
    for index in range(ops):
        clock += rng.expovariate(1.0 / 0.4)
        roll = rng.random()
        group = rng.randint(0, groups - 1)
        private = rng.randint(0, privates_per_group - 1)
        if roll < 0.55:
            size = rng.uniform(0.5, 40.0) * MB
            if rng.random() < 0.07:
                size = 0.0  # zero-byte flows complete inline
            resources = [("up", group), ("priv", group, private)]
            if rng.random() < 0.25:
                other = rng.randint(0, groups - 1)
                resources.append(("up", other))  # cross-group transfer
            if rng.random() < 0.05:
                resources = []  # local no-cost copy
            script.append((clock, "start", (size, resources)))
        elif roll < 0.75:
            script.append((clock, "cancel", (index,)))
        elif roll < 0.9:
            factor = rng.uniform(0.2, 1.5)
            if rng.random() < 0.5:
                script.append((clock, "degrade", (("up", group), factor)))
            else:
                script.append(
                    (clock, "degrade", (("priv", group, private), factor))
                )
        elif roll < 0.97:
            script.append((clock, "refresh_hint", (("up", group),)))
        else:
            script.append((clock, "refresh_all", ()))
    return script


def _run_script(
    solver, script, groups=4, privates_per_group=3, private_overhead=0.0, observe=True
):
    """Execute a schedule under one solver; return comparable outcomes.

    ``private_overhead`` puts congestion on every second private channel
    as well as on the uplinks; ``observe=False`` leaves the exports empty
    (the long stress runs compare flows and bytes only).
    """
    engine = SimulationEngine()
    obs = Observability(clock=lambda: engine.now, enabled=observe)
    sched = FlowScheduler(engine, obs=obs, solver=solver)
    resources = {}
    for group in range(groups):
        resources[("up", group)] = Resource(
            f"up{group}", capacity=100 * MB, congestion_overhead=0.02
        )
        for private in range(privates_per_group):
            resources[("priv", group, private)] = Resource(
                f"priv{group}.{private}",
                capacity=60 * MB,
                congestion_overhead=private_overhead if private % 2 else 0.0,
            )
    flows = []

    def do(op, params):
        if op == "start":
            size, keys = params
            flows.append(
                sched.start_flow(
                    size, [resources[k] for k in keys], label=f"f{len(flows)}"
                )
            )
        elif op == "cancel":
            (index,) = params
            live = [f for f in flows if f in sched.active]
            if live:
                sched.cancel_flow(
                    live[index % len(live)], RuntimeError("cancelled by script")
                )
        elif op == "degrade":
            key, factor = params
            resource = resources[key]
            sched.set_capacity(resource, max(1.0, resource.capacity * factor))
        elif op == "refresh_hint":
            sched.refresh([resources[key] for key in params])
        else:  # refresh_all
            sched.refresh()

    for when, op, params in script:
        engine.call_at(when, lambda op=op, params=params: do(op, params))
    engine.run()
    return {
        "finished": [
            (f.seq, f.finished_at, f.remaining, f.completed.ok) for f in flows
        ],
        "bytes_served": {
            r.name: r.bytes_served for r in resources.values()
        },
        "total_bytes": sched.total_bytes_completed,
        "trace": to_jsonl(obs.tracer.records),
        "metrics": metrics_json(obs.metrics),
        "rate_computations": sched.rate_computations,
    }


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7, 11])
def test_randomized_schedules_bit_identical(seed):
    script = _random_script(seed)
    dense = _run_script("dense", script)
    incremental = _run_script("incremental", script)
    assert dense["finished"] == incremental["finished"]
    assert dense["bytes_served"] == incremental["bytes_served"]
    assert dense["total_bytes"] == incremental["total_bytes"]
    assert dense["trace"] == incremental["trace"]
    assert dense["metrics"] == incremental["metrics"]


def test_incremental_does_less_filling_work():
    """On a component-partitioned workload the incremental solver must
    assign strictly fewer rates than the dense oracle."""
    script = _random_script(99, ops=80, groups=8)
    dense = _run_script("dense", script, groups=8)
    incremental = _run_script("incremental", script, groups=8)
    assert dense["finished"] == incremental["finished"]
    assert incremental["rate_computations"] < dense["rate_computations"]


# ----------------------------------------------------------------------
# The round journal: stress differential and the ways it broke
# ----------------------------------------------------------------------
#: (groups, private channels per group, longest path in hops)
_TOPOLOGIES = [(3, 2, 2), (5, 3, 3), (8, 4, 4), (10, 2, 4)]


def _stress_script(seed, topology, ops=300):
    """Starts, cancels, capacity changes and refreshes, bunched in time.

    Three ops in ten happen at the instant of the previous one, so fills
    follow fills with no progress between them; paths run 2–4 hops over
    other groups' uplinks and private channels, so components merge and
    split; some flows are empty or cross nothing.
    """
    groups, privates, max_hops = topology
    rng = DeterministicRng(seed, "solver-stress")
    script = []
    clock = 0.0
    for index in range(ops):
        if index == 0 or rng.random() >= 0.3:
            clock += rng.expovariate(1.0 / 0.05)
        roll = rng.random()
        group = rng.randint(0, groups - 1)
        private = rng.randint(0, privates - 1)
        if roll < 0.6:
            size = 0.0 if rng.random() < 0.05 else rng.uniform(0.5, 40.0) * MB
            keys = [("priv", group, private), ("up", group)]
            hops = rng.randint(2, max_hops)
            while len(keys) < hops:
                other = rng.randint(0, groups - 1)
                keys.append(("up", other))
                if len(keys) < hops:
                    keys.append(("priv", other, rng.randint(0, privates - 1)))
            if rng.random() < 0.04:
                keys = []
            script.append((clock, "start", (size, keys)))
        elif roll < 0.78:
            script.append((clock, "cancel", (index,)))
        elif roll < 0.9:
            key = ("up", group) if rng.random() < 0.5 else ("priv", group, private)
            script.append((clock, "degrade", (key, rng.uniform(0.2, 1.5))))
        elif roll < 0.97:
            script.append(
                (clock, "refresh_hint", (("up", group), ("priv", group, private)))
            )
        else:
            script.append((clock, "refresh_all", ()))
    return script


@pytest.mark.parametrize("topology", _TOPOLOGIES)
def test_journal_stress_differential(topology, monkeypatch):
    """20 seeds × 300 ops: the journaled solver equals the oracle flow
    for flow and byte for byte, and assigns strictly fewer rates than
    component fills from round 0 would."""
    groups, privates, _max_hops = topology

    def run(solver, script):
        return _run_script(
            solver, script, groups, privates, private_overhead=0.01, observe=False
        )

    journaled_work = round_zero_work = 0
    scripts = [_stress_script(seed, topology) for seed in range(20)]
    for script in scripts:
        dense = run("dense", script)
        journaled = run("incremental", script)
        journaled_work += journaled.pop("rate_computations")
        del dense["rate_computations"]
        assert journaled == dense
    # Every journal dead on arrival: each fill is then a search and a
    # component fill from round 0, the work the journal is there to cut.
    monkeypatch.setattr(
        flows_module._Journal,
        "live",
        property(lambda self: False, lambda self, value: None),
    )
    for script in scripts:
        round_zero_work += run("incremental", script)["rate_computations"]
    assert journaled_work < round_zero_work


def _under_both_solvers(scenario):
    """Run ``scenario(engine, sched)`` under each solver; the outcomes
    it returns must be equal. Returns the incremental one."""
    outcomes = []
    for solver in ("dense", "incremental"):
        engine = SimulationEngine()
        outcomes.append(scenario(engine, FlowScheduler(engine, solver=solver)))
    assert outcomes[0] == outcomes[1]
    return outcomes[1]


def _fates(*flows):
    return [(f.seq, f.rate, f.finished_at, f.remaining) for f in flows]


def test_rewind_through_a_reused_round_lands_on_the_new_trajectory():
    """A flow joins *behind* a reused round that touched one of its
    resources; a later change rewinds through that round. The round's
    record of the resource must by then be the new trajectory's (two
    open flows on ``wide``, not the one it was recorded with) — else the
    joiner is left with a resource whose open count ran out under it."""

    def scenario(engine, sched):
        narrow = Resource("narrow", 10.0)
        wide = Resource("wide", 100.0)
        first = sched.start_flow(1e4, [narrow, wide])  # round 0: narrow, touches wide
        joiner = sched.start_flow(1e4, [wide])  # 90 > 10: round 0 reused
        before = _fates(first, joiner)
        sched.set_capacity(narrow, 20.0)  # round 0 rewound; wide reopens
        after = _fates(first, joiner)
        engine.run()
        return before, after, _fates(first, joiner)

    before, after, _done = _under_both_solvers(scenario)
    assert [rate for _seq, rate, _at, _left in before] == [10.0, 90.0]
    assert [rate for _seq, rate, _at, _left in after] == [20.0, 80.0]


def test_a_journal_covers_only_the_components_it_was_filled_with():
    """One journal per component: a start on idle resources opens its
    own, work in one component leaves the other's rounds alone, and a
    fill that re-rates a journal's resources from round 0 retires it."""
    shapes = {}

    def scenario(engine, sched):
        up = [Resource(f"up{i}", 100.0, congestion_overhead=0.02) for i in (0, 1)]
        priv = [Resource(f"priv{i}", 60.0 + i) for i in range(6)]
        left = [sched.start_flow(1e6, [up[0], priv[i]]) for i in (0, 1)]
        right = [sched.start_flow(1e6, [up[1], priv[i]]) for i in (2, 3)]
        one, two = up[0]._journal, up[1]._journal
        lone = sched.start_flow(1e6, [priv[4], priv[5]])
        right_rounds = None if two is None else list(two.rounds)
        left.append(sched.start_flow(1e6, [up[0], priv[1]]))
        shapes[sched.solver_name] = one and (
            one is not two and one.live and two.live,
            priv[4]._journal not in (one, two),
            up[0]._journal is one and two.rounds == right_rounds,
        )
        bridge = sched.start_flow(1e6, [up[0], up[1]])
        merged = up[0]._journal
        shapes[sched.solver_name] = one and shapes[sched.solver_name] + (
            not one.live and not two.live,
            merged is up[1]._journal and merged is not priv[4]._journal,
        )
        rates = _fates(*left, *right, lone, bridge)
        sched.cancel_flow(bridge, RuntimeError("unbridge"))
        sched.cancel_flow(left[0], RuntimeError("shrink"))
        engine.run()
        return rates, _fates(*left, *right, lone, bridge)

    _under_both_solvers(scenario)
    assert shapes["dense"] is None  # the oracle never journals
    assert shapes["incremental"] == (True,) * 5


def test_resources_left_idle_by_a_finish_leave_their_journal():
    """Two flows of different journals finish at one instant, so the
    refill searches from round 0; ``lone``'s resource, idle now, is a
    seed of that search. Its old journal still lists the finished flow
    and still serves ``other`` — it must be retired, not left live."""
    seen = {}

    def scenario(engine, sched):
        shared = Resource("shared", 100.0)
        other = Resource("other", 50.0)
        elsewhere = Resource("elsewhere", 100.0)
        stays = sched.start_flow(1e6, [other])
        bridge = sched.start_flow(1e6, [shared, other])
        lone = sched.start_flow(1000.0, [shared])
        sched.cancel_flow(bridge, RuntimeError("split"))  # one journal, two components
        twin = sched.start_flow(1000.0, [elsewhere])
        old = shared._journal
        seen[sched.solver_name] = old and (old is other._journal, old.live)
        engine.run(until=10.0)
        assert lone.finished_at == twin.finished_at == 10.0
        seen[sched.solver_name] = old and seen[sched.solver_name] + (
            old.live, shared._journal is old,
        )
        late = sched.start_flow(1e4, [shared, other])
        sched.set_capacity(other, 80.0)
        engine.run()
        return _fates(stays, bridge, lone, twin, late)

    _under_both_solvers(scenario)
    assert seen["incremental"] == (True, True, False, False)


def test_capacity_written_behind_the_schedulers_back():
    """``StorageMedium.degrade`` and ``Node.set_nic_factor`` assign
    ``Resource.capacity`` directly. Forgetting ``refresh`` leaves rates
    stale under both solvers alike; it must not let the journal replay
    rounds priced at the old capacity when the next change arrives."""

    def scenario(engine, sched):
        channel = Resource("ssd0/r", 400.0)
        nic = Resource("node0/out", 1000.0, congestion_overhead=0.02)
        flows = [sched.start_flow(1e5, [channel, nic]) for _ in range(3)]
        flows.append(sched.start_flow(1e5, [nic]))
        engine.run(until=5.0)
        channel.capacity = 100.0  # no refresh
        stale = _fates(*flows)
        flows.append(sched.start_flow(1e5, [nic]))  # nic's round comes after channel's
        shared = _fates(*flows)
        engine.run()
        return stale, shared, _fates(*flows)

    stale, shared, _done = _under_both_solvers(scenario)
    assert stale[0][1] == 400.0 / 3
    assert shared[0][1] == 100.0 / 3


# ----------------------------------------------------------------------
# Chaos seeds through the full file system
# ----------------------------------------------------------------------
def _chaos_outcome(monkeypatch, solver, seed):
    monkeypatch.setattr(flows_module, "DEFAULT_SOLVER", solver)
    fs, chaos = _run_chaos(seed=seed, duration=20.0)
    assert fs.cluster.flows.solver_name == solver
    return (
        fs.faults.trace_lines(),
        block_map_fingerprint(fs),
        fs.engine.now,
        fs.cluster.flows.total_bytes_completed,
    )


def test_chaos_seeds_identical_across_solvers(monkeypatch, chaos_seed):
    dense = _chaos_outcome(monkeypatch, "dense", chaos_seed)
    incremental = _chaos_outcome(monkeypatch, "incremental", chaos_seed)
    assert dense == incremental


# ----------------------------------------------------------------------
# DFSIO with observability: byte-identical exports
# ----------------------------------------------------------------------
def _dfsio_exports(monkeypatch, solver):
    monkeypatch.setattr(flows_module, "DEFAULT_SOLVER", solver)
    fs = OctopusFileSystem(small_cluster_spec(seed=3))
    fs.obs.enable()
    assert fs.cluster.flows.solver_name == solver
    bench = Dfsio(fs, sample_interval=0.5)
    bench.write(24 * MB, parallelism=3)
    bench.read(parallelism=3)
    return to_jsonl(fs.obs.tracer.records), metrics_json(fs.obs.metrics)

def test_dfsio_exports_byte_identical(monkeypatch):
    dense_trace, dense_metrics = _dfsio_exports(monkeypatch, "dense")
    inc_trace, inc_metrics = _dfsio_exports(monkeypatch, "incremental")
    assert dense_trace == inc_trace
    assert dense_metrics == inc_metrics


# ----------------------------------------------------------------------
# Supporting machinery
# ----------------------------------------------------------------------
class TestSolverSelection:
    def test_default_is_incremental(self):
        sched = FlowScheduler(SimulationEngine())
        assert isinstance(sched.solver, IncrementalFlowSolver)

    def test_unknown_solver_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="unknown flow solver"):
            FlowScheduler(SimulationEngine(), solver="quantum")


class TestFlowSet:
    def test_preserves_insertion_order(self):
        fset = FlowSet()
        items = [object() for _ in range(5)]
        for item in items:
            fset.add(item)
        fset.discard(items[2])
        assert list(fset) == [items[0], items[1], items[3], items[4]]
        assert len(fset) == 4
        assert items[0] in fset and items[2] not in fset

    def test_discard_is_idempotent_and_truthiness(self):
        fset = FlowSet()
        assert not fset
        marker = object()
        fset.add(marker)
        assert fset
        fset.discard(marker)
        fset.discard(marker)
        assert not fset


def test_component_selection_is_exact():
    """BFS from a resource returns exactly its connected component: the
    flows, and every resource they cross (an idle seed alone)."""
    engine = SimulationEngine()
    sched = FlowScheduler(engine, solver="incremental")
    shared = Resource("shared", 100.0)
    left = Resource("left", 50.0)
    right = Resource("right", 50.0)
    isolated = Resource("isolated", 10.0)
    idle = Resource("idle", 10.0)
    a = sched.start_flow(1e9, [left, shared])
    b = sched.start_flow(1e9, [shared, right])
    c = sched.start_flow(1e9, [isolated])

    def select(seed):
        stamp = next(flows_module._stamps)
        flows, resources = sched.solver.select(seed, stamp)
        assert all(flow._open == stamp for flow in flows)
        assert all(resource._mark == stamp for resource in resources)
        assert len(set(flows)) == len(flows)
        assert len(set(resources)) == len(resources)
        return set(flows), set(resources)

    assert select(left) == ({a, b}, {left, shared, right})
    assert select(shared) == ({a, b}, {left, shared, right})
    assert select(isolated) == ({c}, {isolated})
    assert select(idle) == (set(), {idle})
    for flow in (a, b, c):
        sched.cancel_flow(flow, RuntimeError("cleanup"))


def test_zero_rate_component_deadlock_detected():
    """All-zero rates must still raise, even via the incremental path."""
    from repro.errors import SimulationError

    engine = SimulationEngine()
    sched = FlowScheduler(engine, solver="incremental")
    link = Resource("link", 100.0, congestion_overhead=0.0)
    flow = sched.start_flow(1e6, [link])
    assert flow.rate > 0
    # Degrading to a capacity that still shares fine cannot deadlock;
    # the deadlock guard is the completion heap running dry while flows
    # stay active, which requires a zero rate — simulate it directly.
    flow.rate = 0.0
    flow._wake_token += 1
    with pytest.raises(SimulationError, match="deadlock"):
        sched._schedule_wakeup()
