"""Unit tests for the MOOP solver and Algorithm 2 (paper §3.3)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, paper_cluster_spec, small_cluster_spec
from repro.core.moop import (
    PlacementRequest,
    ReplicaEntry,
    exhaustive_place_replicas,
    expand_vector,
    gen_options,
    place_replicas,
    solve_moop,
)
from repro.core.objectives import ObjectiveContext, global_criterion_score
from repro.core.replication_vector import ReplicationVector
from repro.errors import InsufficientStorageError, PlacementError
from repro.util.units import GB, MB


@pytest.fixture
def cluster():
    return Cluster(paper_cluster_spec())


def request_of(cluster, vector, client=None, memory=True, existing=()):
    return PlacementRequest(
        rep_vector=vector,
        block_size=cluster.block_size,
        client_node=cluster.node(client) if client else None,
        memory_enabled=memory,
        existing_replicas=tuple(existing),
    )


class TestExpandVector:
    def test_explicit_fastest_first(self, cluster):
        rank = {t.name: t.rank for t in cluster.tiers.values()}
        entries = expand_vector(ReplicationVector.of(hdd=2, memory=1), rank)
        assert [e.required_tier for e in entries] == ["MEMORY", "HDD", "HDD"]

    def test_unspecified_last(self, cluster):
        rank = {t.name: t.rank for t in cluster.tiers.values()}
        entries = expand_vector(ReplicationVector.of(ssd=1, u=2), rank)
        assert [e.required_tier for e in entries] == ["SSD", None, None]


class TestSolveMoop:
    def test_empty_options_rejected(self, cluster):
        ctx = ObjectiveContext.from_cluster(cluster)
        with pytest.raises(InsufficientStorageError):
            solve_moop([], [], ctx)

    def test_picks_lowest_score(self, cluster):
        ctx = ObjectiveContext.from_cluster(cluster)
        options = cluster.live_media()
        best = solve_moop(options, [], ctx)
        best_score = global_criterion_score([best], ctx)
        for option in options:
            assert best_score <= global_criterion_score([option], ctx) + 1e-12

    def test_chosen_list_restored(self, cluster):
        ctx = ObjectiveContext.from_cluster(cluster)
        chosen = [cluster.node("worker1").medium_for_tier("SSD")[0]]
        before = list(chosen)
        solve_moop(cluster.live_media()[:5], chosen, ctx)
        assert chosen == before


class TestGenOptions:
    def test_excludes_chosen_media(self, cluster):
        request = request_of(cluster, ReplicationVector.of(u=3))
        chosen = [cluster.node("worker1").medium_for_tier("SSD")[0]]
        options = gen_options(cluster, request, chosen, ReplicaEntry(None))
        assert chosen[0] not in options

    def test_excludes_full_media(self, cluster):
        request = request_of(cluster, ReplicationVector.of(u=1))
        for node in cluster.worker_nodes:
            for medium in node.medium_for_tier("MEMORY"):
                medium.reserve(medium.remaining)
        options = gen_options(cluster, request, [], ReplicaEntry(None))
        assert all(m.tier_name != "MEMORY" for m in options)

    def test_tier_requirement_filters(self, cluster):
        request = request_of(cluster, ReplicationVector.of(ssd=1))
        options = gen_options(cluster, request, [], ReplicaEntry("SSD"))
        assert options
        assert all(m.tier_name == "SSD" for m in options)

    def test_tier_requirement_unsatisfiable_raises(self, cluster):
        request = request_of(cluster, ReplicationVector.of(ssd=1))
        for node in cluster.worker_nodes:
            for medium in node.medium_for_tier("SSD"):
                medium.reserve(medium.remaining)
        with pytest.raises(InsufficientStorageError):
            gen_options(cluster, request, [], ReplicaEntry("SSD"))

    def test_rack_pruning_second_replica_off_rack(self, cluster):
        request = request_of(cluster, ReplicationVector.of(u=3))
        first = cluster.node("worker1").medium_for_tier("SSD")[0]  # rack0
        options = gen_options(cluster, request, [first], ReplicaEntry(None))
        assert all(m.node.rack.name == "rack1" for m in options)

    def test_rack_pruning_third_replica_two_racks(self):
        cluster = Cluster(paper_cluster_spec(workers=9, racks=3))
        request = request_of(cluster, ReplicationVector.of(u=3))
        first = cluster.node("worker1").medium_for_tier("SSD")[0]  # rack0
        second = cluster.node("worker2").medium_for_tier("SSD")[0]  # rack1
        options = gen_options(
            cluster, request, [first, second], ReplicaEntry(None)
        )
        assert options
        assert all(m.node.rack.name in ("rack0", "rack1") for m in options)

    def test_rack_pruning_relaxes_when_empty(self):
        """A one-rack cluster must still place multi-replica blocks."""
        cluster = Cluster(paper_cluster_spec(workers=3, racks=1))
        request = request_of(cluster, ReplicationVector.of(u=2))
        first = cluster.node("worker1").medium_for_tier("SSD")[0]
        options = gen_options(cluster, request, [first], ReplicaEntry(None))
        assert options  # pruning skipped rather than failing

    def test_client_colocation_first_replica(self, cluster):
        request = request_of(cluster, ReplicationVector.of(u=3), client="worker5")
        options = gen_options(cluster, request, [], ReplicaEntry(None))
        assert all(m.node.name == "worker5" for m in options)

    def test_no_colocation_for_off_cluster_client(self, cluster):
        request = request_of(cluster, ReplicationVector.of(u=3))
        options = gen_options(cluster, request, [], ReplicaEntry(None))
        nodes = {m.node.name for m in options}
        assert len(nodes) == 9

    def test_memory_disabled_excludes_memory_for_u(self, cluster):
        request = request_of(cluster, ReplicationVector.of(u=3), memory=False)
        options = gen_options(cluster, request, [], ReplicaEntry(None))
        assert all(m.tier_name != "MEMORY" for m in options)

    def test_memory_explicit_entry_bypasses_disable(self, cluster):
        request = request_of(cluster, ReplicationVector.of(memory=1), memory=False)
        options = gen_options(cluster, request, [], ReplicaEntry("MEMORY"))
        assert options
        assert all(m.tier_name == "MEMORY" for m in options)

    def test_memory_cap_one_third(self, cluster):
        """With r=3 and one memory replica placed, U entries avoid memory."""
        request = request_of(cluster, ReplicationVector.of(u=3), memory=True)
        first = cluster.node("worker1").medium_for_tier("MEMORY")[0]
        options = gen_options(cluster, request, [first], ReplicaEntry(None))
        assert all(m.tier_name != "MEMORY" for m in options)

    def test_memory_cap_scales_with_replicas(self, cluster):
        """r=6 allows two memory replicas."""
        request = request_of(cluster, ReplicationVector.of(u=6), memory=True)
        first = cluster.node("worker1").medium_for_tier("MEMORY")[0]
        options = gen_options(cluster, request, [first], ReplicaEntry(None))
        assert any(m.tier_name == "MEMORY" for m in options)


class TestPlaceReplicas:
    def test_u3_spreads_tiers_nodes_racks(self, cluster):
        request = request_of(cluster, ReplicationVector.of(u=3))
        chosen = place_replicas(cluster, request)
        assert len(chosen) == 3
        assert len({m.medium_id for m in chosen}) == 3
        assert len({m.node for m in chosen}) == 3
        assert len({m.node.rack for m in chosen}) == 2
        assert {m.tier_name for m in chosen} == {"MEMORY", "SSD", "HDD"}

    def test_explicit_vector_respected(self, cluster):
        request = request_of(cluster, ReplicationVector.of(memory=1, hdd=2))
        chosen = place_replicas(cluster, request)
        tiers = sorted(m.tier_name for m in chosen)
        assert tiers == ["HDD", "HDD", "MEMORY"]

    def test_mixed_vector(self, cluster):
        request = request_of(cluster, ReplicationVector.of(ssd=1, u=2))
        chosen = place_replicas(cluster, request)
        assert sum(1 for m in chosen if m.tier_name == "SSD") >= 1

    def test_empty_vector_rejected(self, cluster):
        request = request_of(cluster, ReplicationVector())
        with pytest.raises(PlacementError):
            place_replicas(cluster, request)

    def test_existing_replicas_influence_racks(self, cluster):
        existing = [cluster.node("worker1").medium_for_tier("HDD")[0]]  # rack0
        request = request_of(
            cluster, ReplicationVector.of(u=1), existing=existing
        )
        chosen = place_replicas(cluster, request)
        assert chosen[0].node.rack.name == "rack1"

    def test_client_local_first_replica(self, cluster):
        request = request_of(cluster, ReplicationVector.of(u=3), client="worker4")
        chosen = place_replicas(cluster, request)
        assert chosen[0].node.name == "worker4"

    def test_greedy_near_optimal_on_small_cluster(self):
        """§3.3: the greedy solution should approach the exhaustive one."""
        cluster = Cluster(small_cluster_spec(workers=3))
        request = PlacementRequest(
            rep_vector=ReplicationVector.of(u=3),
            block_size=cluster.block_size,
            memory_enabled=True,
        )
        greedy = place_replicas(cluster, request)
        optimal = exhaustive_place_replicas(cluster, request)
        ctx = ObjectiveContext.from_cluster(cluster)
        greedy_score = global_criterion_score(greedy, ctx)
        optimal_score = global_criterion_score(optimal, ctx)
        assert greedy_score <= optimal_score * 1.25 + 1e-9

    def test_capacity_constraint_forces_spill(self, cluster):
        """Full SSDs push U replicas to other tiers."""
        for node in cluster.worker_nodes:
            for medium in node.medium_for_tier("SSD"):
                medium.reserve(medium.remaining)
        request = request_of(cluster, ReplicationVector.of(u=3), memory=False)
        chosen = place_replicas(cluster, request)
        assert all(m.tier_name == "HDD" for m in chosen)

    def test_single_objective_placements_differ(self, cluster):
        request = request_of(cluster, ReplicationVector.of(u=3))
        tm = place_replicas(cluster, request, objectives=("tm",))
        db = place_replicas(cluster, request, objectives=("db",))
        # TM chases fast tiers; DB chases big (HDD) capacity.
        assert any(m.tier_name in ("MEMORY", "SSD") for m in tm)
        assert all(m.tier_name == "HDD" for m in db)


class TestExhaustiveEnumeratesWhatGreedyMay:
    """The reference optimum is taken over the placements Algorithm 2's
    hard rules allow, so it can never beat greedy by breaking one."""

    def test_no_memory_unless_enabled(self):
        cluster = Cluster(small_cluster_spec(workers=4, seed=1))
        request = PlacementRequest(ReplicationVector.of(u=3), cluster.block_size)
        optimal = exhaustive_place_replicas(cluster, request)
        assert [m.tier_name for m in optimal if m.tier_name == "MEMORY"] == []

    def test_a_medium_holding_the_block_is_not_enumerated_again(self):
        cluster = Cluster(small_cluster_spec(workers=3, seed=2))
        request = request_of(cluster, ReplicationVector.of(u=1))
        (emptiest,) = exhaustive_place_replicas(cluster, request, ("db",))
        again = replace(request, existing_replicas=(emptiest,))
        assert exhaustive_place_replicas(cluster, again, ("db",)) != [emptiest]
        excluded = replace(request, excluded_media=frozenset({emptiest.medium_id}))
        assert exhaustive_place_replicas(cluster, excluded, ("db",)) != [emptiest]

    def test_memory_holds_at_most_a_third_of_the_replicas(self):
        cluster = Cluster(small_cluster_spec(workers=3, seed=0))
        request = request_of(cluster, ReplicationVector.of(u=3))
        optimal = exhaustive_place_replicas(cluster, request, ("tm",))
        assert sorted(m.tier_name for m in optimal) == ["MEMORY", "SSD", "SSD"]

    def test_a_u_entry_may_share_a_required_tier(self):
        """``ssd=1, hdd=1, u=1`` may end as SSD, SSD, HDD."""
        cluster = Cluster(small_cluster_spec(workers=3, seed=0))
        request = request_of(
            cluster, ReplicationVector.of(ssd=1, hdd=1, u=1), memory=False
        )
        optimal = exhaustive_place_replicas(cluster, request, ("tm",))
        assert sorted(m.tier_name for m in optimal) == ["HDD", "SSD", "SSD"]

    @pytest.mark.parametrize("seed", range(4))
    def test_greedy_is_one_of_the_enumerated_placements(self, seed):
        cluster = Cluster(small_cluster_spec(workers=3, seed=seed))
        existing = (cluster.live_media()[seed],)
        ctx = ObjectiveContext.from_cluster(cluster)
        for vector in (
            ReplicationVector.of(u=3),
            ReplicationVector.of(memory=1, u=1),
            ReplicationVector.of(ssd=1, u=1),
        ):
            for memory in (True, False):
                request = request_of(cluster, vector, memory=memory, existing=existing)
                greedy = place_replicas(cluster, request)
                optimal = exhaustive_place_replicas(cluster, request)
                score = global_criterion_score([*existing, *optimal], ctx)
                assert score <= global_criterion_score([*existing, *greedy], ctx) + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    u=st.integers(min_value=1, max_value=5),
    mem=st.integers(min_value=0, max_value=2),
    hdd=st.integers(min_value=0, max_value=3),
)
def test_property_placement_satisfies_vector(u, mem, hdd):
    """Any satisfiable vector yields unique media honouring explicit tiers."""
    cluster = Cluster(paper_cluster_spec())
    vector = ReplicationVector({"MEMORY": mem, "HDD": hdd}, unspecified=u)
    request = PlacementRequest(
        rep_vector=vector, block_size=cluster.block_size, memory_enabled=True
    )
    chosen = place_replicas(cluster, request)
    assert len(chosen) == vector.total_replicas
    assert len({m.medium_id for m in chosen}) == len(chosen)
    tier_counts = {}
    for medium in chosen:
        tier_counts[medium.tier_name] = tier_counts.get(medium.tier_name, 0) + 1
    assert tier_counts.get("MEMORY", 0) >= mem
    assert tier_counts.get("HDD", 0) >= hdd
    assert all(m.remaining >= 0 for m in chosen)
