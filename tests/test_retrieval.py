"""Unit tests for the data retrieval policies (paper §4.2)."""

import pytest

from repro.cluster import Cluster, paper_cluster_spec
from repro.core.retrieval import (
    HdfsLocalityRetrievalPolicy,
    OctopusRetrievalPolicy,
    estimate_transfer_rate,
)
from repro.util.rng import DeterministicRng
from repro.util.units import MB


@pytest.fixture
def cluster():
    return Cluster(paper_cluster_spec())


def medium(cluster, node, tier, index=0):
    return cluster.node(node).medium_for_tier(tier)[index]


def load(medium_or_node, connections, channel="read"):
    """Attach fake active connections to a medium or a node NIC."""
    stubs = [object() for _ in range(connections)]
    if hasattr(medium_or_node, "read_channel"):
        target = (
            medium_or_node.read_channel
            if channel == "read"
            else medium_or_node.write_channel
        )
    else:
        target = medium_or_node.nic_out if channel == "out" else medium_or_node.nic_in
    for stub in stubs:
        target.flows.add(stub)
    return stubs


class TestEstimateTransferRate:
    def test_local_read_skips_network(self, cluster):
        m = medium(cluster, "worker1", "HDD")
        rate = estimate_transfer_rate(m, cluster.node("worker1"))
        assert rate == pytest.approx(177.1 * MB)

    def test_remote_read_caps_at_network(self, cluster):
        m = medium(cluster, "worker1", "MEMORY")
        rate = estimate_transfer_rate(m, cluster.node("worker2"))
        # Memory reads 3224.8 MB/s but the 10GbE NIC caps at 1250 MB/s.
        assert rate == pytest.approx(1250 * MB)

    def test_media_connections_divide_rate(self, cluster):
        m = medium(cluster, "worker1", "HDD")
        load(m, 1)
        rate = estimate_transfer_rate(m, cluster.node("worker1"))
        assert rate == pytest.approx(177.1 * MB / 2)

    def test_network_connections_divide_rate(self, cluster):
        """The paper's example: 10 connections turn 10Gbps into ~1Gbps."""
        m = medium(cluster, "worker1", "MEMORY")
        load(m.node, 9, channel="out")
        rate = estimate_transfer_rate(m, cluster.node("worker2"))
        assert rate == pytest.approx(1250 * MB / 10)


class TestOctopusRetrievalPolicy:
    def test_remote_memory_beats_local_hdd(self, cluster):
        """The §4.2 worked example: with a fast network, a nearby
        in-memory replica wins over a local HDD replica."""
        local_hdd = medium(cluster, "worker1", "HDD")
        remote_mem = medium(cluster, "worker2", "MEMORY")
        policy = OctopusRetrievalPolicy(DeterministicRng(0))
        ordered = policy.order_replicas(
            [local_hdd, remote_mem], cluster.node("worker1"), cluster.topology
        )
        assert ordered[0] is remote_mem

    def test_congested_network_flips_to_local(self, cluster):
        """...but once the remote node is saturated, local wins (§4.2)."""
        local_hdd = medium(cluster, "worker1", "HDD")
        remote_mem = medium(cluster, "worker2", "MEMORY")
        load(remote_mem.node, 20, channel="out")
        policy = OctopusRetrievalPolicy(DeterministicRng(0))
        ordered = policy.order_replicas(
            [local_hdd, remote_mem], cluster.node("worker1"), cluster.topology
        )
        assert ordered[0] is local_hdd

    def test_faster_tier_first_all_remote(self, cluster):
        replicas = [
            medium(cluster, "worker2", "HDD"),
            medium(cluster, "worker3", "SSD"),
            medium(cluster, "worker4", "MEMORY"),
        ]
        policy = OctopusRetrievalPolicy(DeterministicRng(0))
        ordered = policy.order_replicas(
            replicas, cluster.node("worker1"), cluster.topology
        )
        # Memory and SSD both cap at the NIC (1250); the tie-break on raw
        # media throughput puts memory first; HDD (177) is last.
        assert [m.tier_name for m in ordered] == ["MEMORY", "SSD", "HDD"]

    def test_full_ties_shuffled_for_load_spread(self, cluster):
        replicas = [
            medium(cluster, "worker2", "HDD"),
            medium(cluster, "worker3", "HDD"),
            medium(cluster, "worker4", "HDD"),
        ]
        firsts = set()
        for seed in range(10):
            policy = OctopusRetrievalPolicy(DeterministicRng(seed))
            ordered = policy.order_replicas(
                replicas, cluster.node("worker1"), cluster.topology
            )
            firsts.add(ordered[0].medium_id)
        assert len(firsts) > 1  # not always the same head

    def test_tie_break_deterministic_under_fixed_rng(self, cluster):
        """Replicas with byte-equal estimated rates (Eq. 12 full ties)
        order identically across same-seeded policies — the property the
        observability layer's byte-identical exports lean on."""
        replicas = [
            medium(cluster, "worker2", "HDD"),
            medium(cluster, "worker3", "HDD"),
            medium(cluster, "worker4", "HDD"),
        ]
        client_node = cluster.node("worker1")
        rates = {
            estimate_transfer_rate(m, client_node) for m in replicas
        }
        assert len(rates) == 1  # genuinely a full tie
        policy_a = OctopusRetrievalPolicy(DeterministicRng(42))
        policy_b = OctopusRetrievalPolicy(DeterministicRng(42))
        # The rng advances per call, so compare call-by-call sequences.
        for _ in range(5):
            ordered_a = policy_a.order_replicas(
                replicas, client_node, cluster.topology
            )
            ordered_b = policy_b.order_replicas(
                replicas, client_node, cluster.topology
            )
            assert [m.medium_id for m in ordered_a] == [
                m.medium_id for m in ordered_b
            ]

    def test_partial_tie_break_falls_back_to_media_rate(self, cluster):
        """When the NIC caps two replicas at the same estimated rate, the
        raw media throughput breaks the tie without consulting the rng:
        every seed must produce the same order."""
        idle_mem = medium(cluster, "worker2", "MEMORY")
        busy_mem = medium(cluster, "worker3", "MEMORY")
        # One extra reader halves worker3's media rate (3224.8 -> 1612.4)
        # but both still exceed the 1250 MB/s NIC: Eq. 12 ties.
        load(busy_mem, 1)
        client_node = cluster.node("worker1")
        assert estimate_transfer_rate(
            idle_mem, client_node
        ) == estimate_transfer_rate(busy_mem, client_node)
        orders = {
            tuple(
                m.node.name
                for m in OctopusRetrievalPolicy(
                    DeterministicRng(seed)
                ).order_replicas(
                    [busy_mem, idle_mem], client_node, cluster.topology
                )
            )
            for seed in range(8)
        }
        assert orders == {("worker2", "worker3")}

    def test_permutation_invariant(self, cluster):
        replicas = [
            medium(cluster, "worker2", "HDD"),
            medium(cluster, "worker3", "SSD"),
        ]
        policy = OctopusRetrievalPolicy(DeterministicRng(1))
        ordered = policy.order_replicas(replicas, None, cluster.topology)
        assert sorted(m.medium_id for m in ordered) == sorted(
            m.medium_id for m in replicas
        )

    @pytest.mark.parametrize("client", ["worker1", "worker5", None])
    def test_matches_eq12_transcription_on_loaded_cluster(self, cluster, client):
        """Same permutation and same RNG draws as Eq. 12 written out per
        sort key — for a client holding a replica, one holding none and
        one off the cluster — with media and NICs unevenly loaded."""
        replicas = [
            medium(cluster, "worker1", "HDD"),
            medium(cluster, "worker1", "MEMORY"),
            medium(cluster, "worker2", "MEMORY"),
            medium(cluster, "worker2", "SSD"),
            medium(cluster, "worker3", "SSD"),
            medium(cluster, "worker3", "HDD"),
            medium(cluster, "worker4", "HDD"),
            medium(cluster, "worker4", "HDD", 1),
        ]
        for count, target in enumerate(replicas):
            load(target, count % 4)
        load(cluster.node("worker2"), 12, channel="out")
        load(cluster.node("worker3"), 3, channel="out")
        client_node = None if client is None else cluster.node(client)

        def eq12_key(m):
            media_rate = m.read_throughput / (m.nr_connections + 1)
            if client_node is not None and m.node is client_node:
                rate = media_rate
            else:
                network_rate = m.node.nic_bandwidth / (m.node.nr_connections + 1)
                rate = min(network_rate, media_rate)
            return (-rate, -(m.read_throughput / (m.nr_connections + 1)))

        policy = OctopusRetrievalPolicy(DeterministicRng(7))
        reference_rng = DeterministicRng(7)
        for _ in range(6):
            expected = reference_rng.shuffled(replicas)
            expected.sort(key=eq12_key)
            ordered = policy.order_replicas(
                replicas, client_node, cluster.topology
            )
            assert [m.medium_id for m in ordered] == [
                m.medium_id for m in expected
            ]
            assert (
                policy.rng._random.getstate()
                == reference_rng._random.getstate()
            )
            load(ordered[0], 1)  # the read that follows shifts the load


class TestHdfsRetrievalPolicy:
    def test_locality_order(self, cluster):
        local = medium(cluster, "worker1", "HDD")
        same_rack = medium(cluster, "worker3", "HDD")  # rack0
        off_rack = medium(cluster, "worker2", "HDD")  # rack1
        policy = HdfsLocalityRetrievalPolicy(DeterministicRng(0))
        ordered = policy.order_replicas(
            [off_rack, same_rack, local], cluster.node("worker1"), cluster.topology
        )
        assert [m.node.name for m in ordered] == ["worker1", "worker3", "worker2"]

    def test_blind_to_tiers(self, cluster):
        """The HDFS policy prefers a local HDD over remote memory — the
        gap Figure 5 quantifies."""
        local_hdd = medium(cluster, "worker1", "HDD")
        remote_mem = medium(cluster, "worker2", "MEMORY")
        policy = HdfsLocalityRetrievalPolicy(DeterministicRng(0))
        ordered = policy.order_replicas(
            [remote_mem, local_hdd], cluster.node("worker1"), cluster.topology
        )
        assert ordered[0] is local_hdd

    def test_off_cluster_client_all_equal(self, cluster):
        replicas = [
            medium(cluster, "worker1", "HDD"),
            medium(cluster, "worker2", "HDD"),
        ]
        policy = HdfsLocalityRetrievalPolicy(DeterministicRng(0))
        ordered = policy.order_replicas(replicas, None, cluster.topology)
        assert len(ordered) == 2
