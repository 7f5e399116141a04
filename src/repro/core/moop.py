"""MOOP solver and greedy placement (paper §3.3, Algorithms 1 and 2).

``solve_moop`` is Algorithm 1: given the media options for one replica
and the media already chosen, it returns the option whose addition
minimizes the global-criterion score ``‖f − z*‖``.

``place_replicas`` is Algorithm 2: it expands a replication vector into
per-replica entries (explicit tiers first, then the U entries), and for
each entry generates a pruned option list (``gen_options``) and solves
the MOOP. Greedy construction exploits the optimal-substructure property
each individual objective exhibits, giving ``O(s·r²)`` instead of the
exponential ``O(r·sʳ)`` enumeration.

``gen_options`` implements the §3.3 pruning heuristics:

* hard constraints — media already holding the block, media without room
  for the block, media on dead nodes, and the entry's tier requirement;
* rack pruning — after the first pick, exclude its rack; after the
  second, restrict to the two racks already used (replicas on exactly
  two racks maximize Eq. 5's rack term);
* client colocation — a client running on a worker gets its first
  replica locally when possible;
* the memory rule — for U entries, memory is skipped unless enabled,
  and never holds more than ⌊r/3⌋ of a block's replicas.

Heuristics are *soft*: if a pruning step would empty the option list it
is skipped, so pruning can never cause a spurious placement failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.objectives import (
    ALL_OBJECTIVES,
    MediumRow,
    ObjectiveContext,
    global_criterion_score,
    ideal_vector,
    objective_vector,
    prefix_scorer,
    snapshot_cluster,
)
from repro.core.replication_vector import ReplicationVector
from repro.errors import InsufficientStorageError, PlacementError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.media import StorageMedium
    from repro.cluster.topology import Node


@dataclass
class PlacementRequest:
    """One block-placement decision.

    ``existing_replicas`` carries already-placed replicas when the
    request repairs under-replication (§5) or extends a vector; they
    count toward rack pruning and the memory cap but are not re-placed.
    """

    rep_vector: ReplicationVector
    block_size: int
    client_node: "Node | None" = None
    existing_replicas: tuple["StorageMedium", ...] = ()
    excluded_media: frozenset[str] = frozenset()
    memory_enabled: bool = False
    #: Heuristic toggles (§3.3); exposed for the ablation benchmarks.
    rack_pruning: bool = True
    client_colocation: bool = True
    memory_cap: bool = True

    @property
    def total_replicas(self) -> int:
        """Replicas that will exist after this placement completes."""
        return self.rep_vector.total_replicas + len(self.existing_replicas)


@dataclass(frozen=True)
class ReplicaEntry:
    """One replica to place: a tier requirement or an unspecified slot."""

    required_tier: str | None  # None == the paper's "U" entry


#: Memo for :func:`expand_vector`. A workload places the same handful of
#: replication vectors for every block, so the expansion is pure,
#: tiny-keyed, and endlessly repeated. Bounded defensively; entries are
#: frozen dataclasses shared across all returned lists.
_EXPAND_CACHE: dict[tuple, tuple[ReplicaEntry, ...]] = {}
_EXPAND_CACHE_LIMIT = 1024


def expand_vector(vector: ReplicationVector, tier_rank: dict[str, int]) -> list[ReplicaEntry]:
    """Expand a replication vector into per-replica entries.

    Explicit tiers come first (fastest tier first, so the write pipeline
    head lands on the fastest requested medium, matching the paper's
    pipeline example ⟨W1,M⟩→⟨W3,H⟩→⟨W6,H⟩), then the U entries.
    Memoized on ``(vector, tier_rank)``; both are value-hashable.
    """
    key = (vector, tuple(sorted(tier_rank.items())))
    cached = _EXPAND_CACHE.get(key)
    if cached is None:
        entries: list[ReplicaEntry] = []
        explicit = sorted(
            vector.tier_counts.items(),
            key=lambda item: tier_rank.get(item[0], len(tier_rank)),
        )
        for tier, count in explicit:
            entries.extend(ReplicaEntry(tier) for _ in range(count))
        entries.extend(ReplicaEntry(None) for _ in range(vector.unspecified))
        if len(_EXPAND_CACHE) >= _EXPAND_CACHE_LIMIT:
            _EXPAND_CACHE.clear()
        cached = _EXPAND_CACHE[key] = tuple(entries)
    return list(cached)


def solve_moop(
    media_options: Sequence["StorageMedium"],
    chosen_media: list["StorageMedium"],
    ctx: ObjectiveContext,
    objectives: Sequence[str] = ALL_OBJECTIVES,
    capture: list | None = None,
    rows: dict["StorageMedium", MediumRow] | None = None,
) -> "StorageMedium":
    """Algorithm 1: pick the option minimizing ``‖f − z*‖``.

    Ties keep the first (deterministic) option. The stock objectives are
    scored through :func:`~repro.core.objectives.prefix_scorer`, one
    call for the whole option list; custom registered objectives are
    scored one ``chosen_media + [option]`` list at a time.

    ``rows`` are those of the snapshot :func:`place_replicas` took for
    the decision this call belongs to. Without them every medium is read
    as it is scored, so a ``ctx`` built earlier, or by hand, still meets
    the media's present state.

    ``capture``, when given, receives every ``(option, score)`` pair in
    evaluation order — the provenance ledger uses it to record the
    rejected candidates.
    """
    if not media_options:
        raise InsufficientStorageError("solve_moop called with no options")
    scorer = prefix_scorer(chosen_media, ctx, objectives, rows)
    if scorer is not None:
        scores = scorer(media_options)
    else:
        # Custom registered objectives are not separable into prefix +
        # option terms.
        scores = [
            global_criterion_score([*chosen_media, option], ctx, objectives)
            for option in media_options
        ]
    if capture is not None:
        capture.extend(zip(media_options, scores))
    return media_options[scores.index(min(scores))]


def gen_options(
    cluster: "Cluster",
    request: PlacementRequest,
    chosen: Sequence["StorageMedium"],
    entry: ReplicaEntry,
    pool: Sequence["StorageMedium"] | None = None,
) -> list["StorageMedium"]:
    """Generate the pruned option list for the next replica (§3.3).

    ``pool`` is the placeable media with room for the block, which
    Algorithm 2 reads once per placement instead of once per replica
    entry; nothing placed mid-decision changes it (allocation happens
    after the whole vector is resolved).
    """
    placed = list(request.existing_replicas) + list(chosen)
    placed_ids = {m.medium_id for m in placed} | set(request.excluded_media)

    # Hard constraints: liveness (placeable excludes decommissioning
    # nodes) and capacity make the pool; uniqueness and the tier
    # requirement are the entry's.
    if pool is None:
        pool = [
            medium
            for medium in cluster.placeable_media()
            if medium.remaining >= request.block_size
        ]
    options = [medium for medium in pool if medium.medium_id not in placed_ids]
    if entry.required_tier is not None:
        options = [m for m in options if m.tier_name == entry.required_tier]
        if not options:
            raise InsufficientStorageError(
                f"no medium in tier {entry.required_tier!r} can hold "
                f"{request.block_size} bytes"
            )
    else:
        options = _apply_memory_rule(options, placed, request, cluster)
    if not options:
        raise InsufficientStorageError(
            f"no storage medium can hold a {request.block_size}-byte replica"
        )

    # Soft heuristics, each skipped rather than allowed to empty the list.
    if request.rack_pruning:
        options = _apply_rack_pruning(options, placed)
    if request.client_colocation:
        options = _apply_client_colocation(options, placed, request)
    return options


def _apply_memory_rule(
    options: list["StorageMedium"],
    placed: Sequence["StorageMedium"],
    request: PlacementRequest,
    cluster: "Cluster",
) -> list["StorageMedium"]:
    """Volatile (memory) tiers are opt-in for U entries and capped at
    ⌊r/3⌋ of a block's replicas (§3.3, final paragraph)."""
    volatile_tiers = {t.name for t in cluster.tiers.values() if t.volatile}
    if not volatile_tiers:
        return options
    if not request.memory_enabled:
        return [m for m in options if m.tier_name not in volatile_tiers]
    if not request.memory_cap:
        return options
    max_volatile = request.total_replicas // 3
    volatile_used = sum(1 for m in placed if m.tier_name in volatile_tiers)
    if volatile_used >= max_volatile:
        return [m for m in options if m.tier_name not in volatile_tiers]
    return options


def _apply_rack_pruning(
    options: list["StorageMedium"],
    placed: Sequence["StorageMedium"],
) -> list["StorageMedium"]:
    """Steer toward exactly two racks, as Eq. 5's rack term rewards."""
    racks = []
    for medium in placed:
        rack = medium.node.rack
        if rack not in racks:
            racks.append(rack)
    if not racks:
        return options
    if len(racks) == 1:
        pruned = [m for m in options if m.node.rack is not racks[0]]
    else:
        allowed = set(racks[:2])
        pruned = [m for m in options if m.node.rack in allowed]
    return pruned or options


def _apply_client_colocation(
    options: list["StorageMedium"],
    placed: Sequence["StorageMedium"],
    request: PlacementRequest,
) -> list["StorageMedium"]:
    """First replica goes to the client's own worker when possible."""
    if placed or request.client_node is None:
        return options
    local = [m for m in options if m.node is request.client_node]
    return local or options


def place_replicas(
    cluster: "Cluster",
    request: PlacementRequest,
    objectives: Sequence[str] = ALL_OBJECTIVES,
    ctx: ObjectiveContext | None = None,
    rng=None,
) -> list["StorageMedium"]:
    """Algorithm 2: greedily choose media for every entry of the vector.

    Returns the chosen media in pipeline order. Raises
    :class:`~repro.errors.InsufficientStorageError` when a replica
    cannot be placed anywhere.

    The cluster is read once, up front
    (:func:`~repro.core.objectives.snapshot_cluster`): the context, the
    pool and the media's rows serve every entry, and none of them
    survives the call.

    ``rng`` (a :class:`~repro.util.rng.DeterministicRng`) shuffles each
    entry's option list before scoring. ``solve_moop`` keeps the first
    of equally scored options, so without shuffling a policy whose
    objective ties across media (e.g. pure throughput maximization,
    where every SSD scores identically) would pile replicas onto the
    list head; shuffling turns exact ties into an even spread.
    """
    entries = expand_vector(
        request.rep_vector, {t.name: t.rank for t in cluster.tiers.values()}
    )
    if not entries:
        raise PlacementError("placement requested with an empty vector")
    snapshot = snapshot_cluster(cluster, request.block_size)
    pool = snapshot.pool
    # A caller's own ``ctx`` has its own block size and tier averages,
    # which the snapshot's rows would not match: it is scored from the
    # live media instead.
    rows = None
    if ctx is None:
        ctx, rows = snapshot.ctx, snapshot.rows
    chosen: list["StorageMedium"] = []
    base = list(request.existing_replicas)
    # When a provenance ledger is attached, capture every entry's scored
    # candidates so the decision record can carry the top rejected
    # alternatives (the "why-not" evidence). Detached: both stay None.
    obs = getattr(cluster, "obs", None)
    ledger_on = obs is not None and obs.ledger.enabled
    entries_detail: list[dict] | None = [] if ledger_on else None
    for entry in entries:
        try:
            options = gen_options(cluster, request, chosen, entry, pool=pool)
        except InsufficientStorageError:
            if entry.required_tier is None:
                raise
            # Requested tier is full: fall back to policy choice, like
            # HDFS storage-policy creation fallbacks. The replica still
            # gets placed; the tier preference degrades gracefully.
            options = gen_options(
                cluster, request, chosen, ReplicaEntry(None), pool=pool
            )
        if rng is not None:
            rng.shuffle(options)
        scored_against = base + chosen
        cap: list | None = [] if ledger_on else None
        best = solve_moop(options, scored_against, ctx, objectives,
                          capture=cap, rows=rows)
        chosen.append(best)
        if cap is not None:
            # Stable sort: the first minimal-score pair is the chosen
            # option (solve_moop only switches on strict improvement).
            ranked = sorted(cap, key=lambda pair: pair[1])
            entries_detail.append(
                {
                    "medium": best.medium_id,
                    "tier": best.tier_name,
                    "node": best.node.name,
                    "required_tier": entry.required_tier,
                    "score": ranked[0][1],
                    "options_considered": len(cap),
                    "alternatives": [
                        {
                            "medium": m.medium_id,
                            "tier": m.tier_name,
                            "node": m.node.name,
                            "score": s,
                        }
                        for m, s in ranked[1:4]
                    ],
                }
            )
    _record_decision(
        cluster, request, objectives, ctx, base, chosen, entries_detail
    )
    return chosen


def _record_decision(
    cluster: "Cluster",
    request: PlacementRequest,
    objectives: Sequence[str],
    ctx: ObjectiveContext,
    base: list["StorageMedium"],
    chosen: list["StorageMedium"],
    entries_detail: list[dict] | None = None,
) -> None:
    """Publish the decision's per-objective scores to observability.

    Writes ``obs.last_placement`` (picked up by the client stream that
    triggered the allocation, across the master RPC boundary) and emits
    a ``placement.decision`` event parented to whatever span is current
    — inside :meth:`Master.allocate_block` that is the allocation span.
    """
    obs = getattr(cluster, "obs", None)
    if obs is None or not obs.enabled:
        return
    final = base + chosen
    actual = objective_vector(final, ctx, objectives)
    ideal = ideal_vector(len(final), ctx, objectives)
    score = math.sqrt(sum((a - z) ** 2 for a, z in zip(actual, ideal)))
    decision = {
        "objectives": {name: value for name, value in zip(objectives, actual)},
        "ideal": {name: value for name, value in zip(objectives, ideal)},
        "score": score,
        "chosen": [m.medium_id for m in chosen],
        "existing": [m.medium_id for m in base],
    }
    if entries_detail is not None:
        # Ledger-only payload; the placement.decision event below names
        # its attrs explicitly, so traces stay byte-identical.
        decision["entries"] = entries_detail
    obs.last_placement = decision
    obs.metrics.counter("placement_decisions_total").inc()
    for tier in sorted({m.tier_name for m in chosen}):
        obs.metrics.counter("placement_replicas_total", tier=tier).inc(
            sum(1 for m in chosen if m.tier_name == tier)
        )
    obs.metrics.histogram("placement_score").observe(score)
    obs.tracer.event(
        "placement.decision",
        replicas=len(chosen),
        score=score,
        chosen=decision["chosen"],
        **decision["objectives"],
    )


def exhaustive_place_replicas(
    cluster: "Cluster",
    request: PlacementRequest,
    objectives: Sequence[str] = ALL_OBJECTIVES,
) -> list["StorageMedium"]:
    """Reference implementation: enumerate every r-combination.

    Exponential (``O(r·sʳ)``); exists only so tests and the ablation
    bench can measure how close the greedy solution gets to the true
    global-criterion optimum on small instances.
    """
    from itertools import combinations

    entries = expand_vector(
        request.rep_vector, {t.name: t.rank for t in cluster.tiers.values()}
    )
    count = len(entries)
    ctx = ObjectiveContext.from_cluster(cluster, block_size=request.block_size)
    eligible = [
        m
        for m in cluster.live_media()
        if m.remaining >= request.block_size
        and m.medium_id not in request.excluded_media
    ]
    required = sorted(
        (e.required_tier for e in entries if e.required_tier), reverse=True
    )
    best: tuple[float, list["StorageMedium"]] | None = None
    for combo in combinations(eligible, count):
        tiers = sorted(
            (m.tier_name for m in combo if m.tier_name in required), reverse=True
        )
        if required and tiers[: len(required)] != required:
            continue
        if not _satisfies_tiers(combo, entries):
            continue
        score = global_criterion_score(
            list(request.existing_replicas) + list(combo), ctx, objectives
        )
        if best is None or score < best[0]:
            best = (score, list(combo))
    if best is None:
        raise InsufficientStorageError("no feasible combination exists")
    return best[1]


def _satisfies_tiers(
    combo: Sequence["StorageMedium"], entries: Sequence[ReplicaEntry]
) -> bool:
    """Check that a combination can cover all required-tier entries."""
    pool = [m.tier_name for m in combo]
    for entry in entries:
        if entry.required_tier is None:
            continue
        if entry.required_tier not in pool:
            return False
        pool.remove(entry.required_tier)
    return True
