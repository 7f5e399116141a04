"""The four placement objectives and the ideal vector (paper §3.2).

The data placement problem is formulated as a multi-objective
optimization problem (MOOP) over four simultaneously maximized
objectives — data balancing (Eq. 1), load balancing (Eq. 3), fault
tolerance (Eq. 5), and throughput maximization (Eq. 7) — each paired
with the theoretical upper bound of its Pareto-optimal value (Eqs. 2,
4, 6, 8). The global-criterion method (Eq. 11) then scores a candidate
replica set by its Euclidean distance to the ideal objective vector
``z*`` (Eq. 10); smaller is better.

All functions take the candidate list of :class:`~repro.cluster.media.
StorageMedium` and an :class:`ObjectiveContext` carrying the
cluster-wide statistics the formulas reference (block size, tier/node/
rack totals, maxima over all media). The context is built once per
placement decision, which mirrors the paper's Master computing against
its heartbeat-reported statistics.

A placement decision reads the cluster exactly once:
:func:`snapshot_cluster` turns one pass over the live media into the
context, the pool of media a replica could go to, and one *row* of
single-medium terms per medium; :func:`prefix_scorer` scores whole
option lists from those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from repro.errors import PlacementError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.media import StorageMedium
    from repro.cluster.topology import Node, Rack

#: Objective key names, in the paper's presentation order.
DATA_BALANCING = "db"
LOAD_BALANCING = "lb"
FAULT_TOLERANCE = "ft"
THROUGHPUT_MAX = "tm"
ALL_OBJECTIVES = (DATA_BALANCING, LOAD_BALANCING, FAULT_TOLERANCE, THROUGHPUT_MAX)


class MediaReads(NamedTuple):
    """The state of some media that changes between decisions, read at
    one moment, as parallel lists."""

    media: list["StorageMedium"]
    remaining: list[int]  # Rem[m]
    connections: list[int]  # NrConn[m]


def read_media(media: Iterable["StorageMedium"]) -> MediaReads:
    """Read each medium's remaining bytes and connection count, once."""
    media = list(media)
    return MediaReads(
        media,
        [m.remaining for m in media],
        [m.nr_connections for m in media],
    )


@dataclass
class ObjectiveContext:
    """Cluster-wide statistics referenced by the objective formulas."""

    block_size: int
    total_tiers: int  # k in Eq. 5
    total_nodes: int  # n in Eq. 5
    total_racks: int  # t in Eq. 5
    max_remaining_fraction: float  # max_m Rem[m]/Cap[m] in Eq. 2
    min_connections: int  # min_m NrConn[m] in Eq. 4
    max_write_throughput: float  # max_m WThru[m] in Eqs. 7-8
    tier_write_throughput: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_cluster(
        cls,
        cluster: "Cluster",
        block_size: int | None = None,
        media: Sequence["StorageMedium"] | None = None,
    ) -> "ObjectiveContext":
        """Snapshot the statistics the Master would hold from heartbeats.

        ``media`` defaults to every live medium in the cluster; passing
        a subset models a Master with a partial view (the per-tier
        throughput averages are the cluster's either way).
        """
        live = cluster.live_media()
        return cls._from_reads(
            cluster,
            cluster.block_size if block_size is None else block_size,
            read_media(live if media is None else media),
            live,
        )

    @classmethod
    def _from_reads(
        cls,
        cluster: "Cluster",
        block_size: int,
        reads: MediaReads,
        live: Sequence["StorageMedium"],
    ) -> "ObjectiveContext":
        """The statistics of ``reads``, with tier averages over ``live``."""
        media = reads.media
        if not media:
            raise PlacementError("no live storage media in the cluster")
        # A tier's live media in cluster order, as StorageTier.live_media
        # lists them; ``sum`` stays the builtin over the same operands in
        # the same order (it is compensated from Python 3.12).
        throughputs: dict[str, list[float]] = {}
        for medium in live:
            throughputs.setdefault(medium.tier_name, []).append(
                medium.write_throughput
            )
        tier_thru = {
            tier.name: sum(throughputs[tier.name]) / len(throughputs[tier.name])
            for tier in sorted(cluster.tiers.values(), key=lambda t: t.rank)
            if tier.name in throughputs
        }
        worker_nodes = {m.node for m in media}
        return cls(
            block_size=block_size,
            total_tiers=len({m.tier_name for m in media}),
            total_nodes=len(worker_nodes),
            total_racks=len({node.rack for node in worker_nodes}),
            max_remaining_fraction=max(
                remaining / m.capacity
                for remaining, m in zip(reads.remaining, media)
            ),
            min_connections=min(reads.connections),
            max_write_throughput=max(tier_thru.values()),
            tier_write_throughput=tier_thru,
        )

    def write_throughput_of(self, medium: "StorageMedium") -> float:
        """``WThru[m]``: the per-tier averaged value (paper §3.2)."""
        return self.tier_write_throughput.get(
            medium.tier_name, medium.write_throughput
        )


# ----------------------------------------------------------------------
# Objective functions (Eqs. 1, 3, 5, 7)
# ----------------------------------------------------------------------
def data_balancing(
    media: Sequence["StorageMedium"], ctx: ObjectiveContext
) -> float:
    """Eq. 1: sum of remaining-capacity fractions after the new block."""
    return sum(
        (m.remaining - ctx.block_size) / m.capacity for m in media
    )


def load_balancing(
    media: Sequence["StorageMedium"], ctx: ObjectiveContext
) -> float:
    """Eq. 3: sum of inverse (connections + 1)."""
    return sum(1.0 / (m.nr_connections + 1) for m in media)


def fault_tolerance(
    media: Sequence["StorageMedium"], ctx: ObjectiveContext
) -> float:
    """Eq. 5: distinct-tier, distinct-node, and two-rack terms."""
    if not media:
        return 0.0
    return _fault_tolerance_of(
        len(media),
        len({m.tier_name for m in media}),
        len({m.node for m in media}),
        len({m.node.rack for m in media}),
        ctx,
    )


def _fault_tolerance_of(
    count: int, nr_tiers: int, nr_nodes: int, nr_racks: int, ctx: ObjectiveContext
) -> float:
    """Eq. 5 for ``count`` media on that many tiers, nodes and racks."""
    tier_term = nr_tiers / min(count, ctx.total_tiers)
    node_term = nr_nodes / min(count, ctx.total_nodes)
    if ctx.total_racks == 1:
        rack_term = 1.0
    else:
        rack_term = 1.0 / (abs(nr_racks - 2) + 1)
    return tier_term + node_term + rack_term


def throughput_maximization(
    media: Sequence["StorageMedium"], ctx: ObjectiveContext
) -> float:
    """Eq. 7: sum of log-scaled throughput ratios.

    Throughputs are per-tier averages; the logarithm damps the large
    memory-vs-HDD gap as described in §3.2.
    """
    log_max = _log_max_throughput(ctx)
    total = 0.0
    for medium in media:
        total += _throughput_term(ctx.write_throughput_of(medium), log_max)
    return total


def _log_max_throughput(ctx: ObjectiveContext) -> float:
    return math.log(max(ctx.max_write_throughput, math.e))


def _throughput_term(write_throughput: float, log_max: float) -> float:
    """One medium's summand of Eq. 7."""
    return math.log(max(write_throughput, 1.0)) / log_max


# ----------------------------------------------------------------------
# Ideal (upper bound) functions (Eqs. 2, 4, 6, 8)
# ----------------------------------------------------------------------
def ideal_data_balancing(count: int, ctx: ObjectiveContext) -> float:
    """Eq. 2: ``|m| * max_m Rem[m]/Cap[m]``."""
    return count * ctx.max_remaining_fraction


def ideal_load_balancing(count: int, ctx: ObjectiveContext) -> float:
    """Eq. 4: ``|m| / (min_m NrConn[m] + 1)``."""
    return count / (ctx.min_connections + 1)


def ideal_fault_tolerance(count: int, ctx: ObjectiveContext) -> float:
    """Eq. 6: the constant 3."""
    return 3.0


def ideal_throughput_maximization(count: int, ctx: ObjectiveContext) -> float:
    """Eq. 8: ``|m|`` (all ratios equal to one)."""
    return float(count)


_OBJECTIVES: dict[str, Callable[[Sequence["StorageMedium"], ObjectiveContext], float]] = {
    DATA_BALANCING: data_balancing,
    LOAD_BALANCING: load_balancing,
    FAULT_TOLERANCE: fault_tolerance,
    THROUGHPUT_MAX: throughput_maximization,
}

_IDEALS: dict[str, Callable[[int, ObjectiveContext], float]] = {
    DATA_BALANCING: ideal_data_balancing,
    LOAD_BALANCING: ideal_load_balancing,
    FAULT_TOLERANCE: ideal_fault_tolerance,
    THROUGHPUT_MAX: ideal_throughput_maximization,
}

#: Frozen view of the stock registries; ``prefix_scorer`` only engages
#: when the live entries still point at these exact functions.
_BUILTIN_OBJECTIVES = dict(_OBJECTIVES)
_BUILTIN_IDEALS = dict(_IDEALS)


def register_objective(
    name: str,
    objective: Callable[[Sequence["StorageMedium"], ObjectiveContext], float],
    ideal: Callable[[int, ObjectiveContext], float],
) -> None:
    """Register a custom objective usable anywhere a name is accepted.

    This is the extension point for experimenting with alternative
    formulations (e.g. the ablation bench registers a raw, un-logged
    throughput objective to quantify Eq. 7's log scaling).
    """
    _OBJECTIVES[name] = objective
    _IDEALS[name] = ideal


def objective_vector(
    media: Sequence["StorageMedium"],
    ctx: ObjectiveContext,
    objectives: Sequence[str] = ALL_OBJECTIVES,
) -> list[float]:
    """Eq. 9: the vector-valued objective ``f(m⃗)`` (or a subset of it)."""
    return [_OBJECTIVES[name](media, ctx) for name in objectives]


def ideal_vector(
    count: int,
    ctx: ObjectiveContext,
    objectives: Sequence[str] = ALL_OBJECTIVES,
) -> list[float]:
    """Eq. 10: the ideal objective vector ``z*`` for ``count`` media."""
    return [_IDEALS[name](count, ctx) for name in objectives]


def global_criterion_score(
    media: Sequence["StorageMedium"],
    ctx: ObjectiveContext,
    objectives: Sequence[str] = ALL_OBJECTIVES,
) -> float:
    """Eq. 11: Euclidean distance ``‖f(m⃗) − z*(m⃗)‖`` (minimize)."""
    actual = objective_vector(media, ctx, objectives)
    ideal = ideal_vector(len(media), ctx, objectives)
    return math.sqrt(
        sum((a - z) ** 2 for a, z in zip(actual, ideal))
    )


#: One medium's terms, each computed once per decision: its summands of
#: Eqs. 1, 3 and 7, then the tier, node and rack that Eq. 5 counts.
MediumRow = tuple[float, float, float, str, "Node", "Rack"]

#: Where a separable objective's summand sits in a :data:`MediumRow`.
_ROW_COLUMN = {DATA_BALANCING: 0, LOAD_BALANCING: 1, THROUGHPUT_MAX: 2}


def medium_rows(reads: MediaReads, ctx: ObjectiveContext) -> list[MediumRow]:
    """The row of each read: the only place the scorer's terms are formed."""
    block_size = ctx.block_size
    log_max = _log_max_throughput(ctx)
    tier_terms = {
        tier: _throughput_term(thru, log_max)
        for tier, thru in ctx.tier_write_throughput.items()
    }
    rows = []
    for medium, remaining, conns in zip(*reads):
        tier, node = medium.tier_name, medium.node
        tm_term = tier_terms.get(tier)
        if tm_term is None:  # a tier the context holds no average for
            tm_term = _throughput_term(ctx.write_throughput_of(medium), log_max)
        db_term = (remaining - block_size) / medium.capacity
        rows.append((db_term, 1.0 / (conns + 1), tm_term, tier, node, node.rack))
    return rows


class DecisionSnapshot(NamedTuple):
    """Everything one placement decision reads from the cluster.

    Built by one pass over the live media and dropped when the decision
    returns: nothing placed mid-decision changes a medium (allocation
    happens after the whole vector is resolved), and nothing outlives
    the decision, so there is nothing to invalidate.
    """

    ctx: ObjectiveContext
    #: Media a new replica of the block could go to (live, not draining,
    #: with room), in ``cluster.live_media()`` order.
    pool: list["StorageMedium"]
    rows: dict["StorageMedium", MediumRow]


def snapshot_cluster(cluster: "Cluster", block_size: int) -> DecisionSnapshot:
    """Read every live medium once, for one decision about one block."""
    live = cluster.live_media()
    reads = read_media(live)
    ctx = ObjectiveContext._from_reads(cluster, block_size, reads, live)
    pool = [
        medium
        for medium, remaining in zip(live, reads.remaining)
        if remaining >= block_size and not medium.node.decommissioning
    ]
    return DecisionSnapshot(ctx, pool, dict(zip(live, medium_rows(reads, ctx))))


def prefix_scorer(
    chosen: Sequence["StorageMedium"],
    ctx: ObjectiveContext,
    objectives: Sequence[str] = ALL_OBJECTIVES,
    rows: dict["StorageMedium", MediumRow] | None = None,
) -> Callable[[Sequence["StorageMedium"]], list[float]] | None:
    """Scorer of ``global_criterion_score(chosen + [option])`` per option.

    Algorithm 1 evaluates every candidate option against the same chosen
    prefix, so the prefix's partial sums and fault tolerance's
    tier/node/rack sets are formed once, and the returned callable
    scores a whole option list from the media's rows: per objective, in
    ``objectives`` order, ``prefix + row term − ideal`` squared and
    accumulated. Fault tolerance takes one of the eight values its three
    membership tests can produce.

    ``rows`` are those of the decision's :class:`DecisionSnapshot`; a
    medium they do not hold (every medium, when ``rows`` is ``None``) is
    read where it is scored, through the same :func:`medium_rows`.

    The float operations are the generic path's, in its order, wherever
    that path adds one term at a time. Where it calls the builtin
    ``sum`` — over a set's media in Eqs. 1 and 3, over the objectives in
    Eq. 11 — that holds before Python 3.12 only: from 3.12 on ``sum`` is
    compensated (Neumaier) and exact for at most two summands. So the
    scores **equal** :func:`global_criterion_score`'s on 3.11 and
    earlier, and from 3.12 for a prefix of at most one medium under at
    most two objectives; otherwise they may differ from it in the last
    few places (4 ulp seen). What is exact on every interpreter is this
    scorer against the per-option closure it replaced: the prefix sums
    are the same builtin ``sum`` over the same operands in the same
    order, the rest the same additions.

    Returns ``None`` when any requested objective (or its ideal) has
    been replaced via :func:`register_objective` — custom formulas are
    not separable, and the caller must fall back to the generic path.
    """
    for name in objectives:
        if (
            _OBJECTIVES.get(name) is not _BUILTIN_OBJECTIVES.get(name)
            or _IDEALS.get(name) is not _BUILTIN_IDEALS.get(name)
        ):
            return None

    def rows_of(media: Sequence["StorageMedium"]) -> list[MediumRow]:
        if rows is None:
            return medium_rows(read_media(media), ctx)
        return [
            rows.get(m) or medium_rows(read_media((m,)), ctx)[0] for m in media
        ]

    count = len(chosen) + 1
    ideal = ideal_vector(count, ctx, objectives)
    chosen_rows = rows_of(chosen)
    # Accumulated exactly like the generic sums: sum() starts from int 0,
    # throughput_maximization from float 0.0.
    tm_prefix = 0.0
    for row in chosen_rows:
        tm_prefix += row[2]
    prefix = (
        sum(row[0] for row in chosen_rows),
        sum(row[1] for row in chosen_rows),
        tm_prefix,
    )
    tiers = {row[3] for row in chosen_rows}
    nodes = {row[4] for row in chosen_rows}
    racks = {row[5] for row in chosen_rows}

    def score(options: Sequence["StorageMedium"]) -> list[float]:
        option_rows = rows_of(options)
        totals = [0.0] * len(option_rows)
        for name, z in zip(objectives, ideal):
            if name == FAULT_TOLERANCE:
                # Indexed by 4·(new tier) + 2·(new node) + (new rack).
                shapes = [
                    (len(tiers) + tier, len(nodes) + node, len(racks) + rack)
                    for tier in (0, 1) for node in (0, 1) for rack in (0, 1)
                ]
                squares = [
                    (_fault_tolerance_of(count, *shape, ctx) - z) ** 2
                    for shape in shapes
                ]
                totals = [
                    total + squares[
                        4 * (row[3] not in tiers)
                        + 2 * (row[4] not in nodes)
                        + (row[5] not in racks)
                    ]
                    for total, row in zip(totals, option_rows)
                ]
            else:
                column = _ROW_COLUMN[name]
                base = prefix[column]
                totals = [
                    total + (base + row[column] - z) ** 2
                    for total, row in zip(totals, option_rows)
                ]
        return list(map(math.sqrt, totals))

    return score
