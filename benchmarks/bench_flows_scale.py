"""Wall-clock scaling of the flow scheduler: dense vs incremental.

Drives a sustained flow churn — N concurrent transfers, each completion
immediately starting a replacement — through both solvers at 10/100/1000
concurrent flows, measuring real elapsed time, simulator events/second,
progressive-filling work (rate assignments), and the Python-heap peak
(tracemalloc). Emits ``BENCH_perf.json`` at the repository root so the
perf trajectory is measured, not asserted.

The churn topology is rack-like: every 10 concurrency slots share one
uplink, so the flow↔resource graph splits into ~N/10 components. The
incremental solver re-fills one component per event while the dense
solver re-fills all N flows — the gap is the tentpole's payoff and is
asserted below (``OCTOPUS_PERF_MIN_SPEEDUP``, and ≥5× at the
1000-flow point when running at full scale).

One more point is the opposite regime, the one ``fault_repair`` exposed:
400 pipeline-shaped flows (4–9 hops) over one 18-node, 3-rack cluster
form a *single* component, so component-local filling saves nothing and
the dense solver's work *is* a component fill from round 0. There the
incremental solver's saving is the round journal's alone, and the count
that shows it is asserted: at most half the dense rate assignments.

Both solvers must also agree bit-for-bit on the simulated makespan;
the bench asserts that too, so the speedup can never come from
computing a different (cheaper) answer.
"""

import json
import os
import pathlib
import time
import tracemalloc

from repro.sim import FlowScheduler, Resource, SimulationEngine
from repro.util.rng import DeterministicRng
from repro.util.units import MB

SEED_FILE = pathlib.Path(__file__).parent.parent / "BENCH_perf.json"

CONCURRENCIES = (10, 100, 1000)
#: Concurrency slots sharing one uplink (one graph component per group).
SLOTS_PER_GROUP = 10
#: The single-component point: flows in flight, nodes, racks.
CLUSTER_CONCURRENCY, CLUSTER_NODES, CLUSTER_RACKS = 400, 18, 3


def _churn(solver: str, concurrency: int, total_flows: int, path_for) -> dict:
    """Sustain ``concurrency`` flows until ``total_flows`` have run.

    ``path_for(index, slot)`` gives flow ``index``'s ``(size, resources)``;
    each completion starts the next flow in the slot it frees.
    """
    engine = SimulationEngine()
    sched = FlowScheduler(engine, solver=solver)
    state = {"started": 0}

    def start_one(slot: int) -> None:
        index = state["started"]
        if index >= total_flows:
            return
        state["started"] = index + 1
        flow = sched.start_flow(*path_for(index, slot))
        flow.completed.add_callback(lambda _event, slot=slot: start_one(slot))

    start = time.perf_counter()
    for slot in range(concurrency):
        start_one(slot)
    engine.run()
    wall = time.perf_counter() - start
    assert state["started"] == total_flows
    return {
        "wall_s": wall,
        "events_processed": engine.events_processed,
        "events_per_sec": engine.events_processed / wall if wall > 0 else 0.0,
        "rate_computations": sched.rate_computations,
        "sim_makespan_s": engine.now,
        "flows_completed": total_flows,
    }


def run_flow_churn(
    solver: str, concurrency: int, total_flows: int, seed: int = 0
) -> dict:
    """The partitioned churn: one uplink per ``SLOTS_PER_GROUP`` slots."""
    groups = max(1, concurrency // SLOTS_PER_GROUP)
    uplinks = [
        Resource(f"up{g}", capacity=1000 * MB, congestion_overhead=0.01)
        for g in range(groups)
    ]
    privates = [
        Resource(f"priv{i}", capacity=400 * MB) for i in range(concurrency)
    ]
    rng = DeterministicRng(seed, "bench-flows-scale")
    sizes = [rng.uniform(1.0, 64.0) * MB for _ in range(total_flows)]
    return _churn(
        solver, concurrency, total_flows,
        lambda index, slot: (
            sizes[index], [uplinks[slot % groups], privates[slot]]
        ),
    )


def run_cluster_churn(
    solver: str, concurrency: int, total_flows: int, seed: int = 0
) -> dict:
    """The single-component churn: a repair burst over one small cluster.

    Every node has a NIC in and out and three media with a read and a
    write channel each; every rack has one uplink. A flow reads a medium
    and writes one or two replicas down a pipeline, crossing both racks'
    uplinks when a stage leaves the rack: 4–9 resources, and with 400 of
    them in flight over 147 resources, one connected component. Three
    slots in four are repair slots, whose pipelines end on one of two
    nodes — ``fault_repair``'s waves herd the same way — so the fill has
    a few fat, slow early rounds under a fast churn of late ones.
    """
    uplinks = [
        Resource(f"rack{r}/up", capacity=4000 * MB, congestion_overhead=0.01)
        for r in range(CLUSTER_RACKS)
    ]
    nodes = []
    for n in range(CLUSTER_NODES):
        nic = {
            way: Resource(f"node{n}/{way}", 1250 * MB, congestion_overhead=0.01)
            for way in ("in", "out")
        }
        media = [
            {
                way: Resource(f"node{n}/{tier}/{way}", capacity=rate * MB)
                for way, rate in (("r", read), ("w", write))
            }
            for tier, read, write in (
                ("mem", 3200, 1900), ("ssd", 420, 340), ("hdd", 160, 126)
            )
        ]
        nodes.append((uplinks[n % CLUSTER_RACKS], nic, media))
    # Drawn as flows start: both solvers start them in the same order
    # (the makespan assertion would catch it if they ever did not).
    rng = DeterministicRng(seed, "bench-flows-cluster")

    def path_for(_index: int, slot: int) -> tuple[float, list[Resource]]:
        stops = rng.sample(range(CLUSTER_NODES), rng.randint(2, 3))
        if slot % 4 and slot % 2 not in stops:
            stops[-1] = slot % 2
        uplink, nic, media = nodes[stops[0]]
        path = [rng.choice(media)["r"]]
        for stop in stops[1:]:
            path.append(nic["out"])
            next_uplink, nic, media = nodes[stop]
            if next_uplink is not uplink:
                path += [uplink, next_uplink]
            uplink = next_uplink
            path += [nic["in"], rng.choice(media)["w"]]
        return rng.uniform(1.0, 64.0) * MB, path

    return _churn(solver, concurrency, total_flows, path_for)


def measure_peak_memory(churn, solver: str, concurrency: int, total_flows: int) -> int:
    """Python-heap peak (bytes) for a shorter churn at the same width.

    Peak footprint is set by the standing structures (N in-flight flows,
    resource sets, heaps), not by churn length, so the memory pass runs
    fewer flows to keep tracemalloc's ~3× slowdown off the timing runs.
    """
    tracemalloc.start()
    try:
        churn(solver, concurrency, total_flows)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def measure_point(churn, topology: str, concurrency: int, scale: float) -> dict:
    """Both solvers on one churn; asserts they simulate the same thing."""
    total_flows = max(concurrency + SLOTS_PER_GROUP, int(concurrency * 4 * scale))
    memory_flows = max(concurrency + SLOTS_PER_GROUP, total_flows // 4)
    # The small points finish in milliseconds, where timer noise
    # dwarfs the solver difference — report the best of 3 there.
    repeats = 3 if concurrency <= 100 else 1
    solvers = {}
    for solver in ("dense", "incremental"):
        stats = min(
            (churn(solver, concurrency, total_flows) for _ in range(repeats)),
            key=lambda s: s["wall_s"],
        )
        stats["peak_heap_kb"] = round(
            measure_peak_memory(churn, solver, concurrency, memory_flows) / 1024, 1
        )
        solvers[solver] = stats
    # The speedup must never come from computing a different answer.
    assert (
        solvers["dense"]["sim_makespan_s"]
        == solvers["incremental"]["sim_makespan_s"]
    )
    return {
        "topology": topology,
        "concurrency": concurrency,
        "total_flows": total_flows,
        "speedup": round(
            solvers["dense"]["wall_s"] / solvers["incremental"]["wall_s"], 2
        ),
        "fill_work_ratio": round(
            solvers["dense"]["rate_computations"]
            / max(1, solvers["incremental"]["rate_computations"]),
            2,
        ),
        "solvers": {
            name: {
                "wall_s": round(stats["wall_s"], 4),
                "events_per_sec": round(stats["events_per_sec"]),
                "events_processed": stats["events_processed"],
                "rate_computations": stats["rate_computations"],
                "peak_heap_kb": stats["peak_heap_kb"],
                "sim_makespan_s": stats["sim_makespan_s"],
            }
            for name, stats in solvers.items()
        },
    }


def test_flow_scheduler_scaling(bench_scale):
    min_speedup = float(os.environ.get("OCTOPUS_PERF_MIN_SPEEDUP", "1.0"))
    points = [
        measure_point(run_flow_churn, "partitioned", concurrency, bench_scale)
        for concurrency in CONCURRENCIES
    ]
    smallest, largest = points[0], points[-1]
    cluster = measure_point(
        run_cluster_churn, "single_component", CLUSTER_CONCURRENCY, bench_scale
    )
    points.append(cluster)
    data = {
        "benchmark": "flows_scale",
        "scale": bench_scale,
        "slots_per_group": SLOTS_PER_GROUP,
        "points": points,
    }
    payload = json.dumps(data, sort_keys=True, indent=2) + "\n"
    SEED_FILE.write_text(payload)
    print("\n" + payload)

    # Algorithmic win, independent of timer noise: the incremental
    # solver must do a fraction of the dense filling work at scale.
    assert largest["fill_work_ratio"] > 5.0
    assert largest["speedup"] >= min_speedup
    if bench_scale >= 1.0:
        # The acceptance bar: ≥5× wall-clock at 1000 concurrent flows.
        assert largest["speedup"] >= 5.0
    # No regression where components are few and fills are tiny
    # (generous bound: this point runs in milliseconds and is noisy).
    assert smallest["speedup"] >= 0.7
    # One component: the dense work is a component fill from round 0, so
    # this ratio is the round journal's saving and nothing else's.
    assert cluster["fill_work_ratio"] >= 2.0
