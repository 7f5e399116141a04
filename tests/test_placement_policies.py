"""Unit tests for the eight placement policies of paper §7.2."""

import pytest

from repro.cluster import Cluster, paper_cluster_spec
from repro.core.moop import PlacementRequest
from repro.core.placement import (
    DataBalancingPolicy,
    FaultTolerancePolicy,
    LoadBalancingPolicy,
    MoopPlacementPolicy,
    OriginalHdfsPolicy,
    RuleBasedPolicy,
    ThroughputMaximizationPolicy,
    make_policy,
)
from repro.core.replication_vector import ReplicationVector
from repro.errors import ConfigurationError, InsufficientStorageError
from repro.util.rng import DeterministicRng


@pytest.fixture
def cluster():
    return Cluster(paper_cluster_spec())


def u3_request(cluster, client=None):
    return PlacementRequest(
        rep_vector=ReplicationVector.of(u=3),
        block_size=cluster.block_size,
        client_node=cluster.node(client) if client else None,
    )


class TestMoopPolicy:
    def test_memory_disabled_by_default(self, cluster):
        policy = MoopPlacementPolicy()  # paper: disabled by default
        chosen = policy.choose_targets(cluster, u3_request(cluster))
        assert all(m.tier_name != "MEMORY" for m in chosen)

    def test_memory_enabled_uses_memory(self, cluster):
        policy = MoopPlacementPolicy(memory_enabled=True)
        chosen = policy.choose_targets(cluster, u3_request(cluster))
        assert sum(1 for m in chosen if m.tier_name == "MEMORY") == 1

    def test_distinct_nodes_for_u3(self, cluster):
        policy = MoopPlacementPolicy(memory_enabled=True)
        chosen = policy.choose_targets(cluster, u3_request(cluster))
        assert len({m.node for m in chosen}) == 3


class TestSingleObjectivePolicies:
    def test_tm_prefers_fast_tiers(self, cluster):
        chosen = ThroughputMaximizationPolicy().choose_targets(
            cluster, u3_request(cluster)
        )
        # 1 memory (cap), rest on the next-fastest tier.
        tiers = sorted(m.tier_name for m in chosen)
        assert tiers == ["MEMORY", "SSD", "SSD"]

    def test_db_prefers_big_capacity(self, cluster):
        chosen = DataBalancingPolicy().choose_targets(cluster, u3_request(cluster))
        assert all(m.tier_name == "HDD" for m in chosen)

    def test_lb_spreads_away_from_load(self, cluster):
        busy = cluster.node("worker1").medium_for_tier("SSD")[0]
        stub = object()
        busy.write_channel.flows.add(stub)
        try:
            chosen = LoadBalancingPolicy().choose_targets(
                cluster, u3_request(cluster)
            )
            assert busy not in chosen
        finally:
            busy.write_channel.flows.discard(stub)

    def test_ft_covers_all_tiers_and_two_racks(self, cluster):
        chosen = FaultTolerancePolicy().choose_targets(cluster, u3_request(cluster))
        assert {m.tier_name for m in chosen} == {"MEMORY", "SSD", "HDD"}
        assert len({m.node.rack for m in chosen}) == 2

    def test_unknown_objective_rejected(self):
        from repro.core.placement import SingleObjectivePolicy

        with pytest.raises(ConfigurationError):
            SingleObjectivePolicy("speed")


class TestRuleBasedPolicy:
    def test_round_robin_cycles_tiers(self, cluster):
        policy = RuleBasedPolicy(DeterministicRng(1))
        first = policy.choose_targets(cluster, u3_request(cluster))
        assert [m.tier_name for m in first] == ["MEMORY", "SSD", "HDD"]
        second = policy.choose_targets(cluster, u3_request(cluster))
        # Cursor advanced by 3 -> wraps back to MEMORY on a 3-tier cluster.
        assert [m.tier_name for m in second] == ["MEMORY", "SSD", "HDD"]

    def test_cursor_persists_across_blocks(self, cluster):
        policy = RuleBasedPolicy(DeterministicRng(1))
        request = PlacementRequest(
            rep_vector=ReplicationVector.of(u=1),
            block_size=cluster.block_size,
        )
        tiers = [
            policy.choose_targets(cluster, request)[0].tier_name
            for _ in range(6)
        ]
        assert tiers == ["MEMORY", "SSD", "HDD", "MEMORY", "SSD", "HDD"]

    def test_two_racks_and_distinct_nodes(self, cluster):
        policy = RuleBasedPolicy(DeterministicRng(2))
        chosen = policy.choose_targets(cluster, u3_request(cluster))
        assert len({m.node for m in chosen}) == 3
        assert len({m.node.rack for m in chosen}) <= 2

    def test_a_rack_with_no_live_medium_is_not_picked(self):
        """Every node of rack1 unreachable: the two racks a block is spread
        over are drawn from the two racks that can still take it, so no
        block lands wholly on one rack because its second rack was dead."""
        cluster = Cluster(paper_cluster_spec(workers=9, racks=3))
        silent = cluster.topology.racks["rack1"]
        for node in silent.nodes:
            node.unreachable = True
        policy = RuleBasedPolicy(DeterministicRng(5))
        one_rack = 0
        for _ in range(300):
            assert silent not in policy._pick_racks(cluster)
            chosen = policy.choose_targets(cluster, u3_request(cluster))
            for medium in chosen:
                medium.reserve(cluster.block_size)
            assert silent not in {m.node.rack for m in chosen}
            one_rack += len({m.node.rack for m in chosen}) == 1
        # A healthy cluster puts about a tenth of its blocks on one rack.
        assert one_rack < 60

    def test_skips_full_tier(self, cluster):
        for node in cluster.worker_nodes:
            for medium in node.medium_for_tier("MEMORY"):
                medium.reserve(medium.remaining)
        policy = RuleBasedPolicy(DeterministicRng(3))
        chosen = policy.choose_targets(cluster, u3_request(cluster))
        assert all(m.tier_name != "MEMORY" for m in chosen)

    def test_explicit_tier_honoured(self, cluster):
        policy = RuleBasedPolicy(DeterministicRng(4))
        request = PlacementRequest(
            rep_vector=ReplicationVector.of(ssd=2, hdd=1),
            block_size=cluster.block_size,
        )
        chosen = policy.choose_targets(cluster, request)
        assert sorted(m.tier_name for m in chosen) == ["HDD", "SSD", "SSD"]


class TestOriginalHdfsPolicy:
    def test_hdd_only_by_default(self, cluster):
        policy = OriginalHdfsPolicy(rng=DeterministicRng(5))
        chosen = policy.choose_targets(cluster, u3_request(cluster))
        assert all(m.tier_name == "HDD" for m in chosen)

    def test_rack_layout_local_remote_remote(self, cluster):
        policy = OriginalHdfsPolicy(rng=DeterministicRng(6))
        chosen = policy.choose_targets(cluster, u3_request(cluster, client="worker1"))
        # Replica 1 local; replica 2 off-rack; replica 3 on replica 2's rack.
        assert chosen[0].node.name == "worker1"
        assert chosen[1].node.rack is not chosen[0].node.rack
        assert chosen[2].node.rack is chosen[1].node.rack
        assert chosen[2].node is not chosen[1].node

    def test_with_ssd_mixes_blindly(self, cluster):
        policy = OriginalHdfsPolicy(("HDD", "SSD"), DeterministicRng(7))
        seen_tiers = set()
        for _ in range(30):
            for medium in policy.choose_targets(cluster, u3_request(cluster)):
                seen_tiers.add(medium.tier_name)
        assert seen_tiers == {"HDD", "SSD"}

    def test_ssd_share_approaches_one_quarter(self, cluster):
        """1 SSD vs 3 HDDs per node -> ~25% of replicas on SSD (§7.2)."""
        policy = OriginalHdfsPolicy(("HDD", "SSD"), DeterministicRng(8))
        ssd = total = 0
        for _ in range(200):
            for medium in policy.choose_targets(cluster, u3_request(cluster)):
                total += 1
                ssd += medium.tier_name == "SSD"
        assert 0.17 <= ssd / total <= 0.33

    def test_never_memory(self, cluster):
        policy = OriginalHdfsPolicy(("HDD", "SSD"), DeterministicRng(9))
        for _ in range(20):
            chosen = policy.choose_targets(cluster, u3_request(cluster))
            assert all(m.tier_name != "MEMORY" for m in chosen)

    def test_raises_when_tier_full(self, cluster):
        for node in cluster.worker_nodes:
            for medium in node.medium_for_tier("HDD"):
                medium.reserve(medium.remaining)
        policy = OriginalHdfsPolicy(rng=DeterministicRng(10))
        with pytest.raises(InsufficientStorageError):
            policy.choose_targets(cluster, u3_request(cluster))


class TestFactory:
    @pytest.mark.parametrize(
        "name", ["moop", "db", "lb", "ft", "tm", "rule", "hdfs", "hdfs+ssd"]
    )
    def test_all_paper_policies_constructible(self, name, cluster):
        policy = make_policy(name, DeterministicRng(0))
        chosen = policy.choose_targets(cluster, u3_request(cluster))
        assert len(chosen) == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("quantum")
