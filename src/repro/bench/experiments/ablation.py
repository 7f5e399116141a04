"""Ablation benches for the MOOP design choices DESIGN.md calls out.

Four questions, each isolating one design decision of §3:

1. **Greedy vs exhaustive** — how close does the O(s·r²) greedy
   Algorithm 2 get to the true global-criterion optimum, and how many
   fewer candidate placements does it score? (the paper's
   "near-optimal" claim).
2. **Log-scaled vs raw throughput** (Eq. 7) — without the logarithm the
   memory/HDD gap (~15×) dominates every other objective; with it the
   objectives stay commensurate.
3. **Rack pruning on/off** — the two-rack heuristic should match the
   unpruned search's fault tolerance while scoring fewer options.
4. **Memory cap on/off** — without the ⌊r/3⌋ cap, a memory-hungry
   policy drains the volatile tier almost immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add

from repro.bench.tables import format_table
from repro.cluster.cluster import Cluster
from repro.cluster.spec import paper_cluster_spec, small_cluster_spec
from repro.core import objectives as obj
from repro.core.moop import (
    PlacementRequest,
    ReplicaEntry,
    exhaustive_place_replicas,
    gen_options,
    place_replicas,
)
from repro.core.objectives import ObjectiveContext, global_criterion_score
from repro.core.replication_vector import ReplicationVector
from repro.util.rng import DeterministicRng
from repro.util.units import GB, MB


@dataclass
class AblationResult:
    sections: list[tuple[str, list[str], list[list[object]]]] = field(
        default_factory=list
    )

    def format(self) -> str:
        return "\n\n".join(
            format_table(headers, rows, title=title)
            for title, headers, rows in self.sections
        )


def run(scale: float = 1.0, seed: int = 0) -> AblationResult:
    result = AblationResult()
    result.sections.append(_greedy_vs_exhaustive(scale, seed))
    result.sections.append(_log_vs_raw_throughput(seed))
    result.sections.append(_rack_pruning(seed))
    result.sections.append(_memory_cap(seed))
    return result


def _mean(values: list[float]) -> float:
    """A left fold from ``0``, as ``repro.core`` sums floats."""
    return reduce(add, values, 0) / len(values)


# ----------------------------------------------------------------------
# 1. Greedy vs exhaustive
# ----------------------------------------------------------------------
def _random_usage(cluster: Cluster, rng: DeterministicRng) -> None:
    """Pre-load media with random usage to diversify the instances."""
    for medium in cluster.live_media():
        fill = rng.uniform(0.0, 0.8)
        medium.reserve(int(medium.remaining * fill))


def _greedy_vs_exhaustive(scale: float, seed: int):
    instances = max(5, int(30 * scale))
    rng = DeterministicRng(seed, "ablation/greedy")
    ratios = []
    greedy_scored = exhaustive_scored = 0
    optimal_hits = 0
    for index in range(instances):
        cluster = Cluster(small_cluster_spec(workers=3, seed=seed + index))
        _random_usage(cluster, rng.fork(f"usage{index}"))
        request = PlacementRequest(
            rep_vector=ReplicationVector.of(u=3),
            block_size=cluster.block_size,
            memory_enabled=True,
        )
        ctx = ObjectiveContext.from_cluster(cluster)
        greedy = place_replicas(cluster, request)
        optimal = exhaustive_place_replicas(cluster, request)
        # Work as a count, not a clock: greedy scores each entry's option
        # list once; the enumeration scores every 3-combination of the
        # media with room, which is the first entry's option list (no
        # replica placed yet, so no rule has pruned it).
        options = [
            len(gen_options(cluster, request, greedy[:placed], ReplicaEntry(None)))
            for placed in range(len(greedy))
        ]
        greedy_scored += sum(options)
        exhaustive_scored += math.comb(options[0], len(greedy))
        g_score = global_criterion_score(greedy, ctx)
        o_score = global_criterion_score(optimal, ctx)
        ratios.append(g_score / o_score if o_score else 1.0)
        optimal_hits += math.isclose(g_score, o_score, rel_tol=1e-9)
    rows = [
        ["instances", instances],
        ["greedy score / optimal score (mean)", _mean(ratios)],
        ["greedy score / optimal score (max)", max(ratios)],
        ["greedy found exact optimum", f"{optimal_hits}/{instances}"],
        [
            "candidate placements scored (exhaustive / greedy)",
            exhaustive_scored / greedy_scored,
        ],
    ]
    return (
        "Ablation 1: greedy Algorithm 2 vs exhaustive enumeration",
        ["metric", "value"],
        rows,
    )


# ----------------------------------------------------------------------
# 2. Log-scaled vs raw throughput objective
# ----------------------------------------------------------------------
def _raw_throughput(media, ctx):
    return reduce(
        add,
        (ctx.write_throughput_of(m) / ctx.max_write_throughput for m in media),
        0,
    )


def _raw_ideal(count, ctx):
    return float(count)


obj.register_objective("tm_raw", _raw_throughput, _raw_ideal)

_LOG_OBJECTIVES = ("db", "lb", "ft", "tm")
_RAW_OBJECTIVES = ("db", "lb", "ft", "tm_raw")


def _log_vs_raw_throughput(seed: int):
    """Place many blocks under both formulations; compare tier spread."""
    rows = []
    for label, objectives in (("log (Eq. 7)", _LOG_OBJECTIVES), ("raw", _RAW_OBJECTIVES)):
        cluster = Cluster(paper_cluster_spec(racks=1, seed=seed))
        counts: dict[str, int] = {}
        rng = DeterministicRng(seed, f"ablation/{label}")
        for _ in range(60):
            request = PlacementRequest(
                rep_vector=ReplicationVector.of(u=3),
                block_size=cluster.block_size,
                memory_enabled=True,
            )
            for medium in place_replicas(
                cluster, request, objectives=objectives, rng=rng
            ):
                medium.reserve(cluster.block_size)
                counts[medium.tier_name] = counts.get(medium.tier_name, 0) + 1
        total = sum(counts.values())
        rows.append(
            [
                label,
                *(
                    f"{100 * counts.get(t, 0) / total:.0f}%"
                    for t in ("MEMORY", "SSD", "HDD")
                ),
            ]
        )
    return (
        "Ablation 2: replica share per tier, log vs raw throughput objective",
        ["formulation", "MEMORY", "SSD", "HDD"],
        rows,
    )


# ----------------------------------------------------------------------
# 3. Rack pruning on/off
# ----------------------------------------------------------------------
def _rack_pruning(seed: int):
    rows = []
    for label, pruning in (("pruning on", True), ("pruning off", False)):
        cluster = Cluster(paper_cluster_spec(racks=3, seed=seed))
        ctx = ObjectiveContext.from_cluster(cluster)
        ft_scores = []
        options_scored = 0
        rng = DeterministicRng(seed, f"ablation/rack/{label}")
        for _ in range(40):
            request = PlacementRequest(
                rep_vector=ReplicationVector.of(u=3),
                block_size=cluster.block_size,
                memory_enabled=True,
                rack_pruning=pruning,
            )
            chosen = place_replicas(cluster, request, rng=rng)
            racks = len({m.node.rack for m in chosen})
            ft_scores.append(obj.fault_tolerance(chosen, ctx))
            options_scored += racks  # proxy; real count below
        rows.append(
            [
                label,
                _mean(ft_scores),
                min(ft_scores),
            ]
        )
    return (
        "Ablation 3: rack pruning heuristic (3-rack cluster, U=3)",
        ["variant", "mean f_ft", "min f_ft"],
        rows,
    )


# ----------------------------------------------------------------------
# 4. Memory cap on/off
# ----------------------------------------------------------------------
def _memory_cap(seed: int):
    rows = []
    for label, cap in (("cap on (r/3)", True), ("cap off", False)):
        cluster = Cluster(paper_cluster_spec(racks=1, seed=seed))
        rng = DeterministicRng(seed, f"ablation/cap/{label}")
        blocks_until_full = 0
        memory_replicas = 0
        for _ in range(400):
            request = PlacementRequest(
                rep_vector=ReplicationVector.of(u=3),
                block_size=cluster.block_size,
                memory_enabled=True,
                memory_cap=cap,
            )
            chosen = place_replicas(
                cluster, request, objectives=("tm",), rng=rng
            )
            for medium in chosen:
                medium.reserve(cluster.block_size)
                memory_replicas += medium.tier_name == "MEMORY"
            memory_left = sum(
                m.remaining for m in cluster.tier("MEMORY").live_media
            )
            if memory_left < cluster.block_size:
                break
            blocks_until_full += 1
        rows.append([label, blocks_until_full, memory_replicas])
    return (
        "Ablation 4: memory cap under a throughput-greedy policy",
        ["variant", "blocks before memory exhausted", "memory replicas"],
        rows,
    )
