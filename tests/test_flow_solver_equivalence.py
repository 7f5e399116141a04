"""Differential tests: DenseFlowSolver and IncrementalFlowSolver agree.

The incremental solver's correctness argument is that max–min filling
never moves capacity between disconnected components of the
flow↔resource graph, so re-filling only the touched component is
*bit-identical* to re-filling everything. These tests hold it to that:
randomized start/cancel/degrade schedules, the chaos seeds, and a DFSIO
run must produce exactly equal completion times, ``bytes_served``, and
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


def _run_script(solver, script, groups=4, privates_per_group=3, cutoff=0):
    """Execute a schedule under one solver; return comparable outcomes.

    ``cutoff`` defaults to 0 so the incremental runs exercise pure
    component selection even at the small concurrencies these scripts
    reach; pass ``None`` to keep the production hybrid threshold.
    """
    engine = SimulationEngine()
    obs = Observability(clock=lambda: engine.now, enabled=True)
    sched = FlowScheduler(engine, obs=obs, solver=solver)
    if cutoff is not None and isinstance(sched.solver, IncrementalFlowSolver):
        sched.solver.small_cutoff = cutoff
    resources = {}
    for group in range(groups):
        resources[("up", group)] = Resource(
            f"up{group}", capacity=100 * MB, congestion_overhead=0.02
        )
        for private in range(privates_per_group):
            resources[("priv", group, private)] = Resource(
                f"priv{group}.{private}", capacity=60 * MB
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
            (key,) = params
            sched.refresh([resources[key]])
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


@pytest.mark.parametrize("seed", [5, 13])
def test_hybrid_cutoff_bit_identical(seed):
    """With the production ``small_cutoff`` the solver flips between
    full fills and component fills mid-run; outcomes must not change."""
    script = _random_script(seed)
    dense = _run_script("dense", script)
    hybrid = _run_script("incremental", script, cutoff=None)
    assert IncrementalFlowSolver.small_cutoff > 0
    assert dense["finished"] == hybrid["finished"]
    assert dense["bytes_served"] == hybrid["bytes_served"]
    assert dense["trace"] == hybrid["trace"]
    assert dense["metrics"] == hybrid["metrics"]


def test_incremental_does_less_filling_work():
    """On a component-partitioned workload the incremental solver must
    assign strictly fewer rates than the dense oracle."""
    script = _random_script(99, ops=80, groups=8)
    dense = _run_script("dense", script, groups=8)
    incremental = _run_script("incremental", script, groups=8)
    assert dense["finished"] == incremental["finished"]
    assert incremental["rate_computations"] < dense["rate_computations"]


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
    """BFS from a seed flow returns exactly its connected component."""
    engine = SimulationEngine()
    sched = FlowScheduler(engine, solver="incremental")
    sched.solver.small_cutoff = 0  # force component search at any size
    shared = Resource("shared", 100.0)
    left = Resource("left", 50.0)
    right = Resource("right", 50.0)
    isolated = Resource("isolated", 10.0)
    a = sched.start_flow(1e9, [left, shared])
    b = sched.start_flow(1e9, [shared, right])
    c = sched.start_flow(1e9, [isolated])
    component = sched.solver.select([a], [])
    assert set(component) == {a, b}
    assert set(sched.solver.select([c], [])) == {c}
    assert set(sched.solver.select([], [right])) == {a, b}
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
