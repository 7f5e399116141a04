"""One read of the cluster per placement decision (``snapshot_cluster``).

Two families of tests:

* **Differential.** The one-pass scorer against
  :func:`global_criterion_score`, ``==`` on every interpreter, and
  ``place_replicas`` against itself with the stock scorer forced off,
  over randomized clusters, every subset of the objectives in the
  paper's order and prefixes of 0–3 media.
* **Staleness.** The snapshot lives for one ``place_replicas`` call, so a
  change between two calls is seen by the second, and a context built
  before a change still scores the media as they are.
"""

import hashlib
import itertools
import json
import math
import random
from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.cluster import Cluster, paper_cluster_spec
from repro.core import objectives as obj
from repro.core.moop import PlacementRequest, place_replicas, solve_moop
from repro.core.objectives import (
    ALL_OBJECTIVES,
    ObjectiveContext,
    global_criterion_score,
    prefix_scorer,
    snapshot_cluster,
)
from repro.core.placement import (
    MoopPlacementPolicy,
    SingleObjectivePolicy,
    make_policy,
)
from repro.core.replication_vector import ReplicationVector
from repro.errors import InsufficientStorageError
from repro.util.rng import DeterministicRng
from repro.util.units import MB

#: Every non-empty ordered subset of the four objectives (64 of them).
OBJECTIVE_ORDERS = [
    order
    for size in range(1, len(ALL_OBJECTIVES) + 1)
    for order in itertools.permutations(ALL_OBJECTIVES, size)
]
#: The 15 of them in the paper's order: the ones the scorer takes.
PAPER_SUBSETS = [
    subset
    for size in range(1, len(ALL_OBJECTIVES) + 1)
    for subset in itertools.combinations(ALL_OBJECTIVES, size)
]


def random_cluster(seed: int, racks: int) -> tuple[Cluster, random.Random]:
    """A cluster in the middle of its life: data stored and reserved,
    reads and writes in flight, and one of every kind of trouble."""
    rng = random.Random(seed)
    cluster = Cluster(
        paper_cluster_spec(workers=rng.choice((6, 9, 12)), racks=racks, seed=seed)
    )
    media = list(cluster.media.values())
    for medium in media:
        if rng.random() < 0.7:
            medium.used = rng.randrange(medium.capacity)
            medium.reserved = rng.randrange(medium.remaining + 1)
    for medium in rng.sample(media, 3):  # nothing more fits
        medium.reserved = medium.capacity - medium.used
    for _ in range(rng.randrange(10, 60)):
        medium = rng.choice(media)
        channel = rng.choice((medium.write_channel, medium.read_channel))
        cluster.flows.start_flow(64 * MB, [channel])
    for medium in rng.sample(media, 3):
        medium.degrade(rng.uniform(0.05, 0.9))
        cluster.flows.refresh([medium.read_channel, medium.write_channel])
    for medium in rng.sample(media, 2):
        medium.failed = True
    dead, silent = rng.sample(cluster.worker_nodes, 2)
    dead.failed = True
    silent.unreachable = True
    return cluster, rng


@contextmanager
def stock_scorer_off():
    """Re-register every objective under its own name through a
    pass-through wrapper: the formulas are unchanged, but
    ``prefix_scorer`` no longer recognizes them and declines, so
    ``solve_moop`` scores through ``global_criterion_score``."""
    stock = {
        name: (obj._OBJECTIVES[name], obj._IDEALS[name]) for name in ALL_OBJECTIVES
    }
    try:
        for name, (objective, ideal) in stock.items():
            obj.register_objective(
                name, lambda media, ctx, f=objective: f(media, ctx), ideal
            )
        assert prefix_scorer([], None, ALL_OBJECTIVES) is None
        yield
    finally:
        for name, (objective, ideal) in stock.items():
            obj.register_objective(name, objective, ideal)


CLUSTERS = [(seed, racks) for seed in (11, 12, 13) for racks in (1, 3)]


@pytest.mark.parametrize("seed,racks", CLUSTERS)
class TestScorerDifferential:
    def test_snapshot_agrees_with_the_cluster(self, seed, racks):
        cluster, _ = random_cluster(seed, racks)
        block_size = cluster.block_size
        snapshot = snapshot_cluster(cluster, block_size)
        live = cluster.live_media()
        ctx = snapshot.ctx
        assert ctx == ObjectiveContext.from_cluster(cluster, block_size)
        # The statistics as the formulas' own accessors give them.
        assert ctx.tier_write_throughput == {
            tier.name: tier.avg_write_throughput() for tier in cluster.active_tiers()
        }
        assert list(ctx.tier_write_throughput) == [
            tier.name for tier in cluster.active_tiers()
        ]
        assert ctx.max_write_throughput == max(ctx.tier_write_throughput.values())
        assert ctx.max_remaining_fraction == max(m.remaining_fraction for m in live)
        assert ctx.min_connections == min(m.nr_connections for m in live)
        assert ctx.total_tiers == len({m.tier_name for m in live})
        assert ctx.total_nodes == len({m.node for m in live})
        assert ctx.total_racks == len({m.node.rack for m in live})
        assert (ctx.total_racks == 1) == (racks == 1)
        assert snapshot.pool == [
            m for m in live if m.remaining >= block_size
        ]
        assert list(snapshot.rows) == live

    def test_partial_view_counts_the_view_and_averages_the_cluster(self, seed, racks):
        cluster, rng = random_cluster(seed, racks)
        live = cluster.live_media()
        view = rng.sample(live, 7)
        ctx = ObjectiveContext.from_cluster(cluster, 5 * MB, media=view)
        whole = ObjectiveContext.from_cluster(cluster, 5 * MB)
        assert ctx.block_size == 5 * MB
        assert ctx.tier_write_throughput == whole.tier_write_throughput
        assert ctx.max_write_throughput == whole.max_write_throughput
        assert ctx.max_remaining_fraction == max(m.remaining_fraction for m in view)
        assert ctx.min_connections == min(m.nr_connections for m in view)
        assert ctx.total_tiers == len({m.tier_name for m in view})
        assert ctx.total_nodes == len({m.node for m in view})
        assert ctx.total_racks == len({m.node.rack for m in view})

    def test_scores_equal_the_generic_criterion(self, seed, racks):
        cluster, rng = random_cluster(seed, racks)
        snapshot = snapshot_cluster(cluster, cluster.block_size)
        everything = list(cluster.media.values())  # dead and full media too
        live = cluster.live_media()
        # A context that holds no average for one tier: its media take
        # their own throughput (Eq. 7's fallback).
        averages = dict(snapshot.ctx.tier_write_throughput)
        del averages[rng.choice(sorted(averages))]
        unaveraged = replace(snapshot.ctx, tier_write_throughput=averages)
        assert len(unaveraged.tier_write_throughput) == snapshot.ctx.total_tiers - 1
        for ctx in (snapshot.ctx, unaveraged):
            for objectives in PAPER_SUBSETS:
                for size in range(4):
                    prefix = rng.sample(everything, size)
                    options = rng.sample(live, 12)
                    expected = [
                        global_criterion_score(prefix + [option], ctx, objectives)
                        for option in options
                    ]
                    for rows in (snapshot.rows, None):
                        assert prefix_scorer(prefix, ctx, objectives, rows)(options) == expected

    def test_other_orders_and_registered_objectives_take_the_generic_path(self, seed, racks):
        cluster, rng = random_cluster(seed, racks)
        snapshot = snapshot_cluster(cluster, cluster.block_size)
        for objectives in OBJECTIVE_ORDERS:
            scorer = prefix_scorer([], snapshot.ctx, objectives, snapshot.rows)
            assert (scorer is None) == (objectives not in PAPER_SUBSETS)
        with stock_scorer_off():
            for objectives in PAPER_SUBSETS:
                assert prefix_scorer([], snapshot.ctx, objectives) is None
        # Such an order is scored one option set at a time.
        options = rng.sample(cluster.live_media(), 12)
        prefix = rng.sample(list(cluster.media.values()), 2)
        capture = []
        solve_moop(options, prefix, snapshot.ctx, ("tm", "db"), capture=capture)
        assert [score for _, score in capture] == [
            global_criterion_score(prefix + [option], snapshot.ctx, ("tm", "db"))
            for option in options
        ]

    def test_a_handmade_context_is_scored_from_the_media(self, seed, racks):
        """No tier averages: ``WThru[m]`` falls back to each medium's own
        throughput, degraded ones included."""
        cluster, rng = random_cluster(seed, racks)
        ctx = ObjectiveContext(
            block_size=3 * MB, total_tiers=2, total_nodes=4, total_racks=2,
            max_remaining_fraction=0.9, min_connections=1,
            max_write_throughput=1900.0 * MB,
        )
        options = rng.sample(cluster.live_media(), 12)
        for size in (0, 1, 3):
            prefix = options[:size]
            assert prefix_scorer(prefix, ctx)(options[size:]) == [
                global_criterion_score(prefix + [option], ctx) for option in options[size:]
            ]

    def test_placements_equal_the_generic_path(self, seed, racks):
        cluster, rng = random_cluster(seed, racks)
        workers = cluster.worker_nodes
        requests = [
            PlacementRequest(
                rep_vector=vector,
                block_size=cluster.block_size,
                client_node=rng.choice(workers + [None]),
                existing_replicas=tuple(
                    rng.sample(cluster.live_media(), rng.randrange(3))
                ),
                memory_enabled=rng.random() < 0.7,
            )
            for vector in (
                ReplicationVector.of(u=3),
                ReplicationVector.of(memory=1, u=2),
                ReplicationVector.of(ssd=1, hdd=2),
                ReplicationVector.of(u=4),
            )
        ]
        for objectives in PAPER_SUBSETS:
            for index, request in enumerate(requests):
                def place():
                    return place_replicas(
                        cluster, request, objectives,
                        rng=DeterministicRng(seed, f"ties/{index}"),
                    )

                chosen = place()
                with stock_scorer_off():
                    assert place() == chosen


# ----------------------------------------------------------------------
# The snapshot cannot go stale
# ----------------------------------------------------------------------
@pytest.fixture
def cluster():
    return Cluster(paper_cluster_spec())


def one_replica(cluster, objective, **kwargs):
    request = PlacementRequest(
        rep_vector=ReplicationVector.of(u=1),
        block_size=cluster.block_size,
        memory_enabled=True,
        **kwargs,
    )
    (chosen,) = place_replicas(cluster, request, objectives=(objective,))
    return chosen


class TestNothingOutlivesADecision:
    def test_a_reservation_between_two_calls_is_seen(self, cluster):
        first = one_replica(cluster, "db")
        first.reserve(first.remaining // 2)
        second = one_replica(cluster, "db")
        assert second is not first
        first.release_reservation(first.reserved)
        assert one_replica(cluster, "db") is first

    def test_a_flow_started_between_two_calls_is_seen(self, cluster):
        first = one_replica(cluster, "lb")
        flow = cluster.flows.start_flow(64 * MB, [first.write_channel])
        assert one_replica(cluster, "lb") is not first
        cluster.engine.run(flow.completed)
        assert one_replica(cluster, "lb") is first

    def test_a_failure_between_two_calls_is_seen(self, cluster):
        first = one_replica(cluster, "tm")
        first.failed = True
        second = one_replica(cluster, "tm")
        assert second is not first

    def test_an_old_context_meets_the_media_as_they_are(self, cluster):
        """``solve_moop`` without a snapshot, as ``check_replication``-style
        callers use it: the statistics are the context's, the single-medium
        terms are read when the option is scored."""
        ctx = ObjectiveContext.from_cluster(cluster)
        options = cluster.live_media()[:8]
        chosen = [cluster.live_media()[20]]

        def scored():
            capture = []
            best = solve_moop(options, chosen, ctx, capture=capture)
            assert [option for option, _ in capture] == options
            scores = [score for _, score in capture]
            assert scores == [
                global_criterion_score(chosen + [option], ctx) for option in options
            ]
            assert best is options[scores.index(min(scores))]
            return scores

        before = scored()
        options[0].reserve(options[0].remaining // 3)
        cluster.flows.start_flow(64 * MB, [options[1].read_channel])
        options[2].degrade(0.5)
        cluster.flows.refresh([options[2].read_channel, options[2].write_channel])
        chosen[0].reserve(cluster.block_size)
        after = scored()
        assert all(a != b for a, b in zip(after, before))

    def test_a_callers_context_overrides_the_snapshots(self, cluster):
        """``place_replicas(ctx=...)``: the caller's statistics and block
        size score the decision, the cluster is still read for the pool."""
        request = PlacementRequest(
            rep_vector=ReplicationVector.of(u=3),
            block_size=cluster.block_size,
            memory_enabled=True,
        )
        for medium in cluster.tier("MEMORY").media:
            medium.reserve(medium.remaining // 2)
        ctx = ObjectiveContext.from_cluster(cluster, block_size=cluster.block_size * 40)
        ctx.max_remaining_fraction = 0.25
        chosen = place_replicas(cluster, request, ctx=ctx)
        with stock_scorer_off():
            assert place_replicas(cluster, request, ctx=ctx) == chosen
        assert chosen != place_replicas(cluster, request)

    def test_a_full_required_tier_falls_back_then_fails(self, cluster):
        request = PlacementRequest(
            rep_vector=ReplicationVector.of(ssd=1, u=1),
            block_size=cluster.block_size,
        )
        for medium in cluster.tier("SSD").media:
            medium.reserve(medium.remaining)
        chosen = place_replicas(cluster, request)
        assert [m.tier_name for m in chosen] == ["HDD", "HDD"]
        for medium in cluster.tier("HDD").media:
            medium.reserve(medium.remaining - cluster.block_size + 1)
        with pytest.raises(InsufficientStorageError):
            place_replicas(cluster, request)  # memory is not enabled
        with pytest.raises(InsufficientStorageError):
            place_replicas(
                cluster,
                PlacementRequest(
                    rep_vector=ReplicationVector.of(u=1),
                    block_size=cluster.block_size * 10_000,
                    memory_enabled=True,
                ),
            )


# ----------------------------------------------------------------------
# The shuffle still sees the same lists: picks recorded at the parent
# ----------------------------------------------------------------------
VECTORS = (
    ReplicationVector.of(u=3),
    ReplicationVector.of(memory=1, u=2),
    ReplicationVector.of(ssd=1, hdd=1, u=1),
    ReplicationVector.of(u=2),
)

#: Recorded at the parent of the PR that introduced the snapshot, where
#: ``place_replicas`` read the live media option by option. They agree
#: across hash seeds and between Python 3.11 and 3.12.
PINNED_PICKS = {
    "moop": [
        "w1:memory0 w4:ssd1 w3:hdd3", "w6:memory0 w1:ssd1 w5:hdd2",
        "w2:ssd1 w3:hdd4 w4:memory0", "w7:ssd1 w2:hdd2",
        "w3:memory0 w6:ssd1 w1:hdd4", "w8:memory0 w3:ssd1 w4:hdd2",
        "w4:ssd1 w7:hdd4 w5:memory0", "w9:ssd1 w8:hdd4",
        "w5:ssd1 w2:memory0 w6:hdd4", "w1:memory0 w8:ssd1 w7:hdd3",
        "w6:ssd1 w1:hdd2 w9:memory0", "w2:hdd4 w1:ssd1",
        "w7:memory0 w6:hdd2 w9:hdd4", "w3:memory0 w8:hdd3 w4:hdd4",
        "w8:ssd1 w5:hdd4 w9:hdd3", "w4:hdd3 w5:ssd1",
        "w9:hdd2 w4:memory0 w2:hdd3", "w5:memory0 w8:hdd2 w1:hdd3",
        "w1:ssd1 w6:hdd3 w7:hdd2", "w6:hdd2 w3:hdd2",
    ],
    "tm": [
        "w1:memory0 w4:ssd1 w8:ssd1", "w6:memory0 w3:ssd1 w9:ssd1",
        "w2:ssd1 w3:hdd4 w1:memory0", "w7:ssd1 w6:ssd1",
        "w3:memory0 w6:ssd1 w1:ssd1", "w8:memory0 w1:ssd1 w9:ssd1",
        "w4:ssd1 w3:hdd3 w3:memory0", "w9:ssd1 w8:ssd1",
        "w5:memory0 w6:ssd1 w4:ssd1", "w1:memory0 w6:ssd1 w1:ssd1",
        "w6:ssd1 w9:hdd3 w2:memory0", "w2:ssd1 w5:ssd1",
        "w7:memory0 w4:ssd1 w9:ssd1", "w3:memory0 w2:ssd1 w1:ssd1",
        "w8:ssd1 w7:hdd3 w2:memory0", "w4:ssd1 w9:ssd1",
        "w9:memory0 w2:ssd1 w8:ssd1", "w5:memory0 w4:ssd1 w8:ssd1",
        "w1:ssd1 w8:hdd3 w7:memory0", "w6:ssd1 w3:ssd1",
    ],
    "lb": [
        "w1:hdd4 w6:hdd3 w6:memory0", "w6:memory0 w5:ssd1 w2:hdd3",
        "w2:ssd1 w7:hdd3 w1:ssd1", "w7:ssd1 w8:hdd4",
        "w3:ssd1 w4:hdd4 w1:hdd2", "w8:memory0 w7:hdd2 w3:hdd4",
        "w4:ssd1 w9:hdd4 w7:memory0", "w9:hdd2 w8:hdd3",
        "w5:hdd2 w4:memory0 w9:ssd1", "w1:memory0 w8:hdd2 w2:hdd2",
        "w6:ssd1 w3:hdd2 w4:hdd2", "w2:hdd4 w1:hdd3",
        "w7:hdd4 w8:ssd1 w3:hdd3", "w3:memory0 w4:hdd3 w5:hdd3",
        "w8:ssd1 w5:hdd4 w6:hdd2", "w4:hdd3 w9:hdd3",
        "w9:memory0 w6:hdd4 w9:ssd1", "w5:memory0 w2:ssd1 w8:hdd3",
        "w1:ssd1 w2:hdd3 w2:memory0", "w6:hdd3 w1:hdd4",
    ],
}


def twenty_blocks(policy):
    """Place 20 blocks, each one reserved and given a write pipeline
    before the next is placed."""
    cluster = Cluster(paper_cluster_spec())
    workers = cluster.worker_nodes
    picks = []
    for block in range(20):
        request = PlacementRequest(
            rep_vector=VECTORS[block % len(VECTORS)],
            block_size=cluster.block_size,
            client_node=workers[(5 * block) % len(workers)],
        )
        chosen = policy.choose_targets(cluster, request)
        for medium in chosen:
            medium.reserve(request.block_size)
        cluster.flows.start_flow(
            request.block_size, [medium.write_channel for medium in chosen]
        )
        picks.append(" ".join(m.medium_id.replace("worker", "w") for m in chosen))
    return picks


@pytest.mark.parametrize("name", sorted(PINNED_PICKS))
def test_shuffled_policies_pick_what_they_picked_at_the_parent(name):
    if name == "moop":
        policy = MoopPlacementPolicy(
            memory_enabled=True, rng=DeterministicRng(7, "pin")
        )
    else:
        policy = SingleObjectivePolicy(name)
    assert twenty_blocks(policy) == PINNED_PICKS[name]


#: The model-free policies over 400 blocks that fill a 12-worker cluster
#: until placements fail, one node silent and one dying on the way:
#: (md5 of the picks, the policy's next random number), recorded at the
#: parent. Every ``rng.choice`` / ``rng.sample`` got the same argument at
#: the same position of the stream.
PINNED_MODEL_FREE = {
    "rule": ("36f243f69bb1e875377563501381f2e3", 0.19671125090565955),
    "hdfs": ("ec0138a25e66838ce7f582bc74916379", 0.8283227148054814),
    "hdfs+ssd": ("89558222935ed5bfaf4e6857ee73ac69", 0.12169568201285141),
}


@pytest.mark.parametrize("name", sorted(PINNED_MODEL_FREE))
def test_model_free_policies_pick_what_they_picked_at_the_parent(name):
    policy = make_policy(name, DeterministicRng(3, name))
    cluster = Cluster(paper_cluster_spec(workers=12, racks=3))
    workers = cluster.worker_nodes
    workers[4].unreachable = True
    picks = []
    for block in range(400):
        vector = (VECTORS + (ReplicationVector.of(u=5),))[block % 5]
        if name != "rule":  # stock HDFS knows no tiers
            vector = ReplicationVector.of(u=vector.total_replicas)
        first = block % 40
        request = PlacementRequest(
            rep_vector=vector,
            block_size=cluster.block_size * 40,
            client_node=workers[(5 * block) % len(workers)] if block % 4 else None,
            existing_replicas=tuple(cluster.live_media()[first:first + block % 3]),
        )
        try:
            chosen = policy.choose_targets(cluster, request)
        except InsufficientStorageError:
            picks.append("full")
            continue
        for medium in chosen:
            medium.reserve(request.block_size)
        if block == 200:
            workers[7].failed = True
        picks.append([m.medium_id for m in chosen])
    assert "full" in picks
    digest = hashlib.md5(json.dumps(picks).encode()).hexdigest()
    assert (digest, policy.rng.random()) == PINNED_MODEL_FREE[name]
