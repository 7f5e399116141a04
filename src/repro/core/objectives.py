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
:func:`snapshot_cluster` asks the cluster's :class:`PlacementView` for
the context, the pool of media a replica could go to, and one *row* of
single-medium terms per medium; :func:`prefix_scorer` scores a whole
option list from those rows, each option in one pass over the
objectives. The view re-reads every live medium's ``Rem`` and ``NrConn``
for each decision and re-forms the rows of the media whose pair moved
since the last one.

Every float sum here is a left fold from ``0``: the builtin ``sum`` is
compensated from Python 3.12, so it would round differently on 3.11 and
on 3.12+, and the scorer could not equal :func:`global_criterion_score`
on both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations, compress, repeat
from math import sqrt
from operator import add, attrgetter, ge, truediv
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from repro.cluster.media import StorageMedium
from repro.errors import PlacementError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.topology import Node, Rack

#: Objective key names, in the paper's presentation order.
DATA_BALANCING = "db"
LOAD_BALANCING = "lb"
FAULT_TOLERANCE = "ft"
THROUGHPUT_MAX = "tm"
ALL_OBJECTIVES = (DATA_BALANCING, LOAD_BALANCING, FAULT_TOLERANCE, THROUGHPUT_MAX)


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
        block_size = cluster.block_size if block_size is None else block_size
        ctx = cluster.placement_view.context(block_size)
        if media is None:
            return ctx
        view = read_media(media, block_size, cluster=cluster).ctx
        view.tier_write_throughput = ctx.tier_write_throughput
        view.max_write_throughput = ctx.max_write_throughput
        return view

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
    return reduce(add, ((m.remaining - ctx.block_size) / m.capacity for m in media), 0)


def load_balancing(
    media: Sequence["StorageMedium"], ctx: ObjectiveContext
) -> float:
    """Eq. 3: sum of inverse (connections + 1)."""
    return reduce(add, (1.0 / (m.nr_connections + 1) for m in media), 0)


def fault_tolerance(
    media: Sequence["StorageMedium"], ctx: ObjectiveContext
) -> float:
    """Eq. 5: distinct-tier, distinct-node, and two-rack terms."""
    if not media:
        return 0.0
    tier_term, node_term, rack_term = _fault_tolerance_terms(
        len(media),
        len({m.tier_name for m in media}),
        len({m.node for m in media}),
        len({m.node.rack for m in media}),
        ctx.total_tiers, ctx.total_nodes, ctx.total_racks,
    )
    return tier_term + node_term + rack_term


def _fault_tolerance_terms(
    count: int, nr_tiers: int, nr_nodes: int, nr_racks: int,
    total_tiers: int, total_nodes: int, total_racks: int,
) -> tuple[float, float, float]:
    """Eq. 5's three terms for ``count`` media on that many tiers, nodes
    and racks, of the cluster's totals."""
    tier_term = nr_tiers / min(count, total_tiers)
    node_term = nr_nodes / min(count, total_nodes)
    if total_racks == 1:
        rack_term = 1.0
    else:
        rack_term = 1.0 / (abs(nr_racks - 2) + 1)
    return tier_term, node_term, rack_term


@lru_cache(maxsize=64)
def _fault_tolerance_squares(
    count: int, nr_tiers: int, nr_nodes: int, nr_racks: int,
    total_tiers: int, total_nodes: int, total_racks: int, ideal: float,
) -> tuple[float, ...]:
    """Eq. 11's fault-tolerance square for each of the eight ways one
    more medium can join a prefix on that many tiers, nodes and racks,
    indexed by 4·(new tier) + 2·(new node) + (new rack)."""
    totals = total_tiers, total_nodes, total_racks
    tier_pair, node_pair, rack_pair = zip(
        _fault_tolerance_terms(count, nr_tiers, nr_nodes, nr_racks, *totals),
        _fault_tolerance_terms(count, nr_tiers + 1, nr_nodes + 1, nr_racks + 1, *totals),
    )
    return tuple(
        (tier + node + rack - ideal) ** 2
        for tier in tier_pair for node in node_pair for rack in rack_pair
    )


def throughput_maximization(
    media: Sequence["StorageMedium"], ctx: ObjectiveContext
) -> float:
    """Eq. 7: sum of log-scaled throughput ratios.

    Throughputs are per-tier averages; the logarithm damps the large
    memory-vs-HDD gap as described in §3.2.
    """
    log_max = _log_max_throughput(ctx.max_write_throughput)
    total = 0.0
    for medium in media:
        total += _throughput_term(ctx.write_throughput_of(medium), log_max)
    return total


def _log_max_throughput(max_write_throughput: float) -> float:
    return math.log(max(max_write_throughput, math.e))


def _throughput_term(write_throughput: float, log_max: float) -> float:
    """One medium's summand of Eq. 7."""
    return math.log(max(write_throughput, 1.0)) / log_max


@lru_cache(maxsize=16)
def _tier_terms(max_write_throughput: float, tier_write_throughput: tuple) -> tuple:
    """Eq. 7's log of the maximum and each tier's summand, once per set
    of tier averages (they move only with liveness and ``degrade()``).
    Every caller shares the dict: read it, never write it."""
    log_max = _log_max_throughput(max_write_throughput)
    return log_max, {tier: _throughput_term(thru, log_max) for tier, thru in tier_write_throughput}


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
#: The names whose live entries do not: checked at registration, so a
#: scorer's check is one set operation.
_REPLACED: set[str] = set()


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
    if objective is _BUILTIN_OBJECTIVES.get(name) and ideal is _BUILTIN_IDEALS.get(name):
        _REPLACED.discard(name)
    else:
        _REPLACED.add(name)


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
    return sqrt(reduce(add, ((a - z) ** 2 for a, z in zip(actual, ideal)), 0))


#: One medium's terms, each computed once per decision: its summands of
#: Eqs. 1 and 3, its own write throughput, then the tier, node and rack
#: that Eq. 5 counts (and whose average Eq. 7 takes).
MediumRow = tuple[float, float, float, str, "Node", "Rack"]

#: The objective tuples :func:`prefix_scorer` takes, every non-empty
#: subset of the stock four in the paper's order, and which of the four
#: each one holds.
_PAPER_ORDERS = {
    subset: tuple(name in subset for name in ALL_OBJECTIVES)
    for size in range(1, 5) for subset in combinations(ALL_OBJECTIVES, size)
}


class DecisionSnapshot(NamedTuple):
    """Everything one placement decision reads from the cluster.

    Read once per decision and dropped when it returns: nothing placed
    mid-decision changes a medium (allocation happens after the whole
    vector is resolved). The next decision reads again, through the
    :class:`PlacementView`, which re-reads what can have moved.
    """

    #: ``None`` from a :func:`read_media` that was given no cluster.
    ctx: ObjectiveContext | None
    #: Media a new replica of the block could go to (live, with room), in
    #: walk order.
    pool: list["StorageMedium"]
    rows: dict["StorageMedium", MediumRow]


def read_media(
    media: Iterable["StorageMedium"],
    block_size: int,
    cluster: "Cluster | None" = None,
) -> DecisionSnapshot:
    """One walk over ``media``, reading each one's ``Rem`` and ``NrConn``
    once: the only place a row is formed.

    Given the ``cluster``, the walk also forms the context: statistics
    over ``media``, tier averages in the cluster's rank order. Without
    one, ``ctx`` is ``None``.
    """
    fractions, connections, throughputs, pool, rows = [], [], {}, [], {}
    for medium in media:
        remaining, conns, node = medium.remaining, medium.nr_connections, medium.node
        tier, capacity, thru = medium.tier_name, medium.capacity, medium.write_throughput
        fractions.append(remaining / capacity)
        connections.append(conns)
        # A tier's media in walk order, as StorageTier.live_media lists
        # them: the average below folds the same operands in the same
        # order as StorageTier.avg_write_throughput.
        throughputs.setdefault(tier, []).append(thru)
        if remaining >= block_size:
            pool.append(medium)
        rows[medium] = ((remaining - block_size) / capacity, 1.0 / (conns + 1),
                        thru, tier, node, node.rack)
    if cluster is None:
        return DecisionSnapshot(None, pool, rows)
    if not rows:
        raise PlacementError("no live storage media in the cluster")
    tier_thru = {
        tier.name: reduce(add, throughputs[tier.name], 0) / len(throughputs[tier.name])
        for tier in sorted(cluster.tiers.values(), key=lambda t: t.rank)
        if tier.name in throughputs
    }
    nodes = {row[4] for row in rows.values()}
    ctx = ObjectiveContext(
        block_size, len(throughputs), len(nodes), len({node.rack for node in nodes}),
        max(fractions), min(connections), max(tier_thru.values()), tier_thru,
    )
    return DecisionSnapshot(ctx, pool, rows)


# The properties' own getters: one definition of each, called without
# the attribute lookup.
_REMAINING = StorageMedium.remaining.fget
_CONNECTIONS = StorageMedium.nr_connections.fget
_WRITE_THROUGHPUT = attrgetter("write_throughput")
#: Block sizes a view keeps rows for at once, the least recently read
#: dropped first: a file may set its own, and a repair uses its block's.
_ROW_SETS = 4


class PlacementView:
    """The cluster as its placement decisions read it, kept between them.

    Its key is the live media, by identity and in walk order, and their
    write throughputs, by value: only liveness and ``degrade()`` move it.
    Every read checks the key, and a moved key re-forms what hangs off it
    (the tier averages; the tier, node and rack counts) through
    :func:`read_media`. ``Rem`` and ``NrConn`` are re-read every time, as
    two columns; a block size's rows are re-formed, through
    :func:`read_media` again, only for the media whose pair moved since
    that block size was last read. Nobody invalidates anything, and a
    read sees what a fresh walk would.
    """

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        #: Fixed for the cluster's life: the tiers the memory rule guards,
        #: every tier's rank (the order a vector's entries are placed in),
        #: and the nodes, all and by rack, where rack pruning steers (§3.3).
        self.volatile_tiers = frozenset(t.name for t in cluster.tiers.values() if t.volatile)
        self.tier_rank = {t.name: t.rank for t in cluster.tiers.values()}
        self.nodes = frozenset(cluster.topology.nodes.values())
        self.rack_nodes = {rack: frozenset(rack.nodes) for rack in cluster.topology.racks.values()}
        #: The nodes rack pruning steers to, formed on first use: off one
        #: rack (keyed by it), or on two (keyed by the pair, in order).
        self.steer: dict["Rack | tuple[Rack, Rack]", frozenset["Node"]] = {}
        #: The key and what hangs off it: the context's fixed fields, and
        #: the capacities ``Rem`` is a fraction of.
        self._key, self._stats, self._capacities = (), None, []
        #: Block size -> the ``Rem`` and ``NrConn`` columns its rows were
        #: formed at, and the rows.
        self._rows: dict[int, tuple[list[int], list[int], dict]] = {}

    def _read(self, block_size: int) -> tuple[list, list[int], list[int], ObjectiveContext]:
        """Check the key and re-read the two columns; the live media, the
        columns and the context."""
        live = self.cluster.live_media()
        key = (live, list(map(_WRITE_THROUGHPUT, live)))
        remaining, connections = list(map(_REMAINING, live)), list(map(_CONNECTIONS, live))
        if key != self._key:
            snapshot = read_media(live, block_size, self.cluster)  # raises on no media
            self._key, self._stats = key, snapshot.ctx
            self._capacities = [medium.capacity for medium in live]
            self._rows = {block_size: (remaining, connections, snapshot.rows)}
        stats = self._stats
        ctx = ObjectiveContext(
            block_size, stats.total_tiers, stats.total_nodes, stats.total_racks,
            max(map(truediv, remaining, self._capacities)), min(connections),
            stats.max_write_throughput, dict(stats.tier_write_throughput),
        )
        return live, remaining, connections, ctx

    def context(self, block_size: int) -> ObjectiveContext:
        """The statistics of every live medium, as read now."""
        return self._read(block_size)[3]

    def snapshot(self, block_size: int) -> DecisionSnapshot:
        """What one decision about one ``block_size`` block reads."""
        live, remaining, connections, ctx = self._read(block_size)
        kept = self._rows.pop(block_size, None)
        if kept is None:
            rows = read_media(live, block_size).rows
        else:
            rows, pairs = kept[2], zip(live, remaining, connections, kept[0], kept[1])
            changed = [medium for medium, rem, conns, rem0, conns0 in pairs
                       if rem != rem0 or conns != conns0]
            if changed:
                rows.update(read_media(changed, block_size).rows)
        self._rows[block_size] = (remaining, connections, rows)
        if len(self._rows) > _ROW_SETS:
            del self._rows[next(iter(self._rows))]
        pool = list(compress(live, map(ge, remaining, repeat(block_size))))
        return DecisionSnapshot(ctx, pool, dict(rows))


def snapshot_cluster(cluster: "Cluster", block_size: int) -> DecisionSnapshot:
    """What one decision about one block reads, through the cluster's
    :class:`PlacementView`."""
    return cluster.placement_view.snapshot(block_size)


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
    scores a whole option list from the media's rows in one pass:
    ``sqrt(((DB + LB) + FT) + TM)`` per option, each term ``(prefix +
    row term − ideal) ** 2`` and an absent objective ``0.0``. Fault
    tolerance takes one of the eight values its three membership tests
    can produce, throughput one value per tier.

    ``rows`` are those of the decision's :class:`DecisionSnapshot`; a
    list with a medium they do not hold (every list, when ``rows`` is
    ``None``) is read where it is scored, through the same
    :func:`read_media`.

    The float operations are :func:`global_criterion_score`'s, in its
    order: its sums are left folds from ``0``, as the prefix's are, and
    ``0.0`` added to a square is exact. So the scores **equal** it on
    every interpreter.

    Returns ``None`` — the caller scores through
    :func:`global_criterion_score` — unless ``objectives`` are stock
    objectives in the paper's order: one replaced via
    :func:`register_objective`, or an order of Eq. 11's terms other than
    the paper's, has no single pass.
    """
    uses = _PAPER_ORDERS.get(tuple(objectives))
    if uses is None or not _REPLACED.isdisjoint(objectives):
        return None
    use_db, use_lb, use_ft, use_tm = uses

    known = rows or {}

    def rows_of(media: Sequence["StorageMedium"]) -> list[MediumRow]:
        try:
            return list(map(known.__getitem__, media))
        except KeyError:  # a medium the decision's rows do not hold
            read = read_media(media, ctx.block_size).rows
            return [read[m] for m in media]

    # Eq. 7's summand is the tier's; a tier the context holds no average
    # for takes the medium's own throughput.
    log_max, tier_terms = _tier_terms(
        ctx.max_write_throughput, tuple(ctx.tier_write_throughput.items())
    )
    count = len(chosen) + 1
    z_db, z_lb = ideal_data_balancing(count, ctx), ideal_load_balancing(count, ctx)
    z_ft, z_tm = ideal_fault_tolerance(count, ctx), ideal_throughput_maximization(count, ctx)
    chosen_rows = rows_of(chosen)
    # Left folds like the generic sums: Eqs. 1 and 3 from int 0,
    # throughput_maximization from float 0.0.
    db_prefix = lb_prefix = 0
    tm_prefix = 0.0
    for db, lb, thru, tier, _, _ in chosen_rows:
        db_prefix += db
        lb_prefix += lb
        tm_prefix += tier_terms[tier] if tier in tier_terms else _throughput_term(thru, log_max)
    tiers = {row[3] for row in chosen_rows}
    nodes = {row[4] for row in chosen_rows}
    racks = {row[5] for row in chosen_rows}
    ft_squares, tm_squares = (), {}
    if use_ft:
        ft_squares = _fault_tolerance_squares(
            count, len(tiers), len(nodes), len(racks),
            ctx.total_tiers, ctx.total_nodes, ctx.total_racks, z_ft,
        )
    if use_tm:
        tm_squares = {tier: (tm_prefix + term - z_tm) ** 2 for tier, term in tier_terms.items()}

    def score(options: Sequence["StorageMedium"]) -> list[float]:
        return [
            sqrt(
                ((db_prefix + db - z_db) ** 2 if use_db else 0.0)
                + ((lb_prefix + lb - z_lb) ** 2 if use_lb else 0.0)
                + (ft_squares[4 * (tier not in tiers) + 2 * (node not in nodes)
                              + (rack not in racks)] if use_ft else 0.0)
                + ((tm_squares[tier] if tier in tm_squares
                    else (tm_prefix + _throughput_term(thru, log_max) - z_tm) ** 2)
                   if use_tm else 0.0)
            )
            for db, lb, thru, tier, node, rack in rows_of(options)
        ]

    return score
