"""Single-device (disk) failure: node survives, one medium dies."""

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.errors import QuotaExceededError, WorkerError
from repro.fs.backup import BackupMaster
from repro.fs.invariants import check_system_invariants
from repro.util.units import MB


@pytest.fixture
def fs():
    return OctopusFileSystem(small_cluster_spec())


@pytest.fixture
def client(fs):
    return fs.client(on="worker1")


class TestMediumFailure:
    def test_unknown_medium_rejected(self, fs):
        with pytest.raises(WorkerError):
            fs.fail_medium("worker9:floppy0")

    def test_replicas_rereplicated_elsewhere(self, fs, client):
        client.write_file("/d", data=b"disk" * 100_000, rep_vector=2)
        loc = client.get_file_block_locations("/d")[0]
        fs.fail_medium(loc.media[0])
        fs.await_replication()
        new_loc = fs.client().get_file_block_locations("/d")[0]
        assert len(new_loc.hosts) == 2
        assert loc.media[0] not in new_loc.media
        assert fs.client(on="worker2").read_file("/d") == b"disk" * 100_000

    def test_repair_refunds_the_lost_replica(
        self, fs, client, assert_usage_exact
    ):
        client.write_file(
            "/q/d", size=8 * MB, rep_vector=ReplicationVector.of(hdd=3)
        )
        loc = client.get_file_block_locations("/q/d")[0]
        fs.fail_medium(loc.media[0])
        fs.await_replication()
        assert_usage_exact(fs, "/q/d")
        assert fs.master.namespace.get_file("/q/d").tier_bytes == {
            "HDD": 3 * 8 * MB
        }

    def test_quota_holds_across_repair_rounds_and_failover(self, fs, client):
        """Repairs must not eat quota, and a failover must not lift it."""
        backup = BackupMaster(fs.master)
        client.mkdir("/tenant")
        client.set_quota("/tenant", tier_space_quota={"HDD": 12 * MB})
        two_hdd = ReplicationVector.of(hdd=2)
        client.write_file("/tenant/a", size=4 * MB, rep_vector=two_hdd)
        for _round in range(5):
            victim = client.get_file_block_locations("/tenant/a")[0].media[0]
            fs.fail_medium(victim)
            fs.await_replication()
            fs.repair_medium(victim)
        # 8 MB stored, 4 MB of quota left: this fits exactly.
        one_hdd = ReplicationVector.of(hdd=1)
        client.write_file("/tenant/b", size=4 * MB, rep_vector=one_hdd)
        backup.promote(fs)
        with pytest.raises(QuotaExceededError):
            fs.client(on="worker1").write_file(
                "/tenant/c", size=4 * MB, rep_vector=one_hdd
            )
        check_system_invariants(fs)

    def test_node_keeps_serving_other_media(self, fs, client):
        node = fs.cluster.node("worker1")
        hdds = node.medium_for_tier("HDD")
        fs.fail_medium(hdds[0].medium_id)
        assert not node.failed
        # The node's other media still accept writes.
        client.write_file(
            "/still", size=4 * MB, rep_vector=ReplicationVector.of(hdd=1)
        )

    def test_failed_medium_excluded_from_placement(self, fs, client):
        victim = fs.cluster.node("worker2").medium_for_tier("SSD")[0]
        fs.fail_medium(victim.medium_id)
        for index in range(8):
            client.write_file(
                f"/s{index}", size=4 * MB,
                rep_vector=ReplicationVector.of(ssd=1),
            )
            media = fs.client().get_file_block_locations(f"/s{index}")[0].media
            assert victim.medium_id not in media

    def test_inflight_write_survives_medium_loss(self, fs, client):
        stream = client.create("/io", rep_vector=ReplicationVector.of(hdd=2))

        def writer():
            yield from stream.write_size_proc(8 * MB)
            yield from stream.close_proc()

        proc = fs.engine.process(writer())

        def killer():
            yield fs.engine.timeout(0.01)
            for medium in fs.cluster.live_media():
                if medium.write_channel.active_count:
                    fs.fail_medium(medium.medium_id)
                    return

        fs.engine.process(killer())
        fs.engine.run(proc)
        assert fs.master.namespace.get_file("/io").length == 8 * MB

    def test_tier_stats_exclude_failed_media(self, fs):
        before = fs.cluster.tier("HDD").statistics().media_count
        victim = fs.cluster.node("worker3").medium_for_tier("HDD")[0]
        fs.fail_medium(victim.medium_id)
        after = fs.cluster.tier("HDD").statistics().media_count
        assert after == before - 1
