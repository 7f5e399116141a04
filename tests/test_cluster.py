"""Unit tests for the cluster model: media, tiers, topology, specs."""

import pytest

from repro.cluster import Cluster, paper_cluster_spec, small_cluster_spec
from repro.cluster.spec import (
    HDD,
    MEMORY,
    PAPER_MEDIA_THROUGHPUT,
    SSD,
    ClusterSpec,
    MediumSpec,
    NodeSpec,
    TierSpec,
)
from repro.cluster.topology import (
    DISTANCE_LOCAL,
    DISTANCE_OFF_RACK,
    DISTANCE_SAME_RACK,
)
from repro.errors import ConfigurationError, InsufficientStorageError
from repro.util.units import GB, MB


@pytest.fixture
def cluster():
    return Cluster(paper_cluster_spec())


class TestSpec:
    def test_paper_cluster_shape(self, cluster):
        assert len(cluster.topology.nodes) == 10  # master + 9 workers
        assert len(cluster.worker_nodes) == 9
        assert len(cluster.topology.racks) == 2
        assert cluster.block_size == 128 * MB

    def test_paper_worker_media_mix(self, cluster):
        worker = cluster.node("worker1")
        tiers = sorted(m.tier_name for m in worker.media)
        assert tiers == ["HDD", "HDD", "HDD", "MEMORY", "SSD"]

    def test_paper_capacities(self, cluster):
        worker = cluster.node("worker1")
        by_tier = {}
        for medium in worker.media:
            by_tier[medium.tier_name] = by_tier.get(medium.tier_name, 0) + medium.capacity
        assert by_tier["MEMORY"] == 4 * GB
        assert by_tier["SSD"] == 64 * GB
        assert by_tier["HDD"] == pytest.approx(400 * GB, rel=0.01)

    def test_table2_throughputs_applied(self, cluster):
        ssd = cluster.node("worker1").medium_for_tier("SSD")[0]
        assert ssd.write_throughput == pytest.approx(340.6 * MB)
        assert ssd.read_throughput == pytest.approx(419.5 * MB)

    def test_master_has_no_media(self, cluster):
        assert cluster.node("master").media == []

    def test_tier_order_fastest_first(self, cluster):
        assert cluster.tier_order == ["MEMORY", "SSD", "HDD"]

    def test_duplicate_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(
                tiers=(TierSpec("A", 0), TierSpec("A", 1)),
                nodes=(),
                rack_uplink_bandwidth=1.0,
            )

    def test_undeclared_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(
                tiers=(TierSpec("SSD", 0),),
                nodes=(
                    NodeSpec("n1", "r1", 1.0, (MediumSpec.of("HDD", GB),)),
                ),
                rack_uplink_bandwidth=1.0,
            )

    def test_medium_spec_defaults_from_table2(self):
        spec = MediumSpec.of(MEMORY, "4GB")
        assert spec.write_throughput == PAPER_MEDIA_THROUGHPUT[MEMORY][0]

    def test_medium_spec_unknown_tier_needs_throughput(self):
        with pytest.raises(ConfigurationError):
            MediumSpec.of("NVRAM", GB)
        ok = MediumSpec.of("NVRAM", GB, "900MB/s", "1000MB/s")
        assert ok.write_throughput == pytest.approx(900 * MB)


class TestTopology:
    def test_distances(self, cluster):
        w1 = cluster.node("worker1")  # rack0
        w2 = cluster.node("worker2")  # rack1
        w3 = cluster.node("worker3")  # rack0
        assert cluster.topology.distance(w1, w1) == DISTANCE_LOCAL
        assert cluster.topology.distance(w1, w3) == DISTANCE_SAME_RACK
        assert cluster.topology.distance(w1, w2) == DISTANCE_OFF_RACK

    def test_off_cluster_client_is_distant(self, cluster):
        w1 = cluster.node("worker1")
        assert cluster.topology.distance(None, w1) == DISTANCE_OFF_RACK

    def test_local_path_has_no_resources(self, cluster):
        w1 = cluster.node("worker1")
        assert cluster.topology.path_resources(w1, w1) == []

    def test_same_rack_path_skips_uplinks(self, cluster):
        w1, w3 = cluster.node("worker1"), cluster.node("worker3")
        names = [r.name for r in cluster.topology.path_resources(w1, w3)]
        assert names == ["node:worker1/out", "node:worker3/in"]

    def test_cross_rack_path_includes_uplinks(self, cluster):
        w1, w2 = cluster.node("worker1"), cluster.node("worker2")
        names = [r.name for r in cluster.topology.path_resources(w1, w2)]
        assert names == [
            "node:worker1/out",
            "rack:rack0/up",
            "rack:rack1/down",
            "node:worker2/in",
        ]

    def test_off_cluster_path(self, cluster):
        w1 = cluster.node("worker1")
        names = [r.name for r in cluster.topology.path_resources(None, w1)]
        assert names == ["rack:rack0/down", "node:worker1/in"]


class TestMediumAccounting:
    def test_reserve_commit_cycle(self, cluster):
        medium = cluster.node("worker1").medium_for_tier("SSD")[0]
        start = medium.remaining
        medium.reserve(128 * MB)
        assert medium.remaining == start - 128 * MB
        medium.commit(128 * MB, 100 * MB)  # tail block smaller than reserved
        assert medium.used == 100 * MB
        assert medium.reserved == 0

    def test_reserve_beyond_capacity_rejected(self, cluster):
        medium = cluster.node("worker1").medium_for_tier("MEMORY")[0]
        with pytest.raises(InsufficientStorageError):
            medium.reserve(5 * GB)

    def test_free_returns_space(self, cluster):
        medium = cluster.node("worker1").medium_for_tier("HDD")[0]
        medium.reserve(MB)
        medium.commit(MB, MB)
        medium.free(MB)
        assert medium.used == 0

    def test_a_double_free_or_release_raises(self, cluster):
        """Like ``commit``: an accounting violation is an error, never
        clamped to zero, where it would leave ``Rem`` silently too high."""
        medium = cluster.node("worker1").medium_for_tier("HDD")[0]
        medium.reserve(2 * MB)
        medium.release_reservation(MB)
        with pytest.raises(InsufficientStorageError, match="accounting violated"):
            medium.release_reservation(2 * MB)
        medium = cluster.node("worker2").medium_for_tier("HDD")[0]
        medium.reserve(MB)
        medium.commit(MB, MB)
        medium.free(MB)
        with pytest.raises(InsufficientStorageError, match="accounting violated"):
            medium.free(MB)

    def test_remaining_fraction(self, cluster):
        medium = cluster.node("worker1").medium_for_tier("MEMORY")[0]
        assert medium.remaining_fraction == 1.0
        medium.reserve(2 * GB)
        assert medium.remaining_fraction == pytest.approx(0.5)


class TestTiers:
    def test_tier_grouping_cluster_wide(self, cluster):
        assert len(cluster.tier("MEMORY").media) == 9
        assert len(cluster.tier("SSD").media) == 9
        assert len(cluster.tier("HDD").media) == 27

    def test_tier_statistics(self, cluster):
        stats = cluster.tier("HDD").statistics()
        assert stats.media_count == 27
        assert stats.total_capacity == pytest.approx(9 * 400 * GB, rel=0.01)
        assert stats.remaining_percent == pytest.approx(100.0)
        assert stats.avg_write_throughput == pytest.approx(126.3 * MB)

    def test_failed_node_leaves_tier(self, cluster):
        cluster.node("worker1").failed = True
        assert len(cluster.tier("MEMORY").live_media) == 8
        assert len(cluster.live_media()) == 40

    def test_active_tiers_sorted_by_rank(self, cluster):
        assert [t.name for t in cluster.active_tiers()] == [
            "MEMORY",
            "SSD",
            "HDD",
        ]

    def test_volatility_flag(self, cluster):
        assert cluster.tier("MEMORY").volatile
        assert not cluster.tier("HDD").volatile


class TestSmallCluster:
    def test_small_cluster_builds(self):
        cluster = Cluster(small_cluster_spec())
        assert len(cluster.worker_nodes) == 4
        assert cluster.block_size == 4 * MB

    def test_unknown_node_lookup(self):
        cluster = Cluster(small_cluster_spec())
        with pytest.raises(ConfigurationError):
            cluster.node("worker99")
