"""Integration tests: client ↔ master ↔ workers over the simulator."""

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.errors import (
    FileAlreadyExistsError,
    InsufficientStorageError,
    LeaseError,
    QuotaExceededError,
    RetrievalError,
)
from repro.util.units import MB


@pytest.fixture
def fs():
    return OctopusFileSystem(small_cluster_spec())


@pytest.fixture
def client(fs):
    return fs.client(on="worker1")


class TestWriteRead:
    def test_roundtrip_bytes(self, client):
        payload = bytes(range(256)) * 1000
        client.write_file("/f", data=payload)
        assert client.read_file("/f") == payload

    def test_multi_block_file(self, fs, client):
        # 4 MB blocks; write 10 MB -> 3 blocks (4+4+2).
        payload = b"x" * (10 * MB)
        client.write_file("/big", data=payload)
        inode = fs.master.namespace.get_file("/big")
        assert [b.size for b in inode.blocks] == [4 * MB, 4 * MB, 2 * MB]
        assert client.read_file("/big") == payload

    def test_size_only_write_and_read(self, fs, client):
        client.write_file("/sim", size=9 * MB)
        stream = client.open("/sim")
        assert stream.read_size() == 9 * MB
        assert client.read_file("/sim") is None  # no materialized bytes

    def test_write_advances_simulated_time(self, fs, client):
        t0 = fs.engine.now
        client.write_file("/timed", size=8 * MB)
        assert fs.engine.now > t0

    def test_replication_vector_honoured(self, fs, client):
        client.write_file(
            "/v", size=4 * MB, rep_vector=ReplicationVector.of(memory=1, hdd=2)
        )
        locs = client.get_file_block_locations("/v")
        assert sorted(locs[0].tiers) == ["HDD", "HDD", "MEMORY"]

    def test_default_vector_is_u3(self, fs, client):
        client.write_file("/d", size=4 * MB)
        assert fs.master.namespace.get_file("/d").rep_vector.unspecified == 3

    def test_int_replication_backwards_compat(self, fs, client):
        client.write_file("/compat", size=4 * MB, rep_vector=2)
        locs = client.get_file_block_locations("/compat")
        assert len(locs[0].hosts) == 2

    def test_streaming_writes_accumulate(self, client):
        stream = client.create("/streamed")
        stream.write(b"a" * MB)
        stream.write(b"b" * MB)
        stream.close()
        data = client.read_file("/streamed")
        assert data == b"a" * MB + b"b" * MB

    def test_unknown_tier_vector_rejected(self, client):
        with pytest.raises(InsufficientStorageError):
            client.create("/bad", rep_vector=ReplicationVector.of(remote=1))

    def test_create_without_overwrite_conflicts(self, client):
        client.write_file("/dup", size=MB)
        with pytest.raises(FileAlreadyExistsError):
            client.create("/dup")

    def test_overwrite_frees_old_replicas(self, fs, client):
        client.write_file("/ow", size=8 * MB)
        used_before = sum(m.used for m in fs.cluster.live_media())
        client.write_file("/ow", size=4 * MB, overwrite=True)
        used_after = sum(m.used for m in fs.cluster.live_media())
        assert used_after < used_before

    def test_cannot_write_completed_file(self, fs, client):
        client.write_file("/done", size=MB)
        with pytest.raises(LeaseError):
            fs.master.allocate_block("/done")


class TestLocations:
    def test_locations_cover_ranges(self, client):
        client.write_file("/r", size=10 * MB)
        all_locs = client.get_file_block_locations("/r")
        assert [l.offset for l in all_locs] == [0, 4 * MB, 8 * MB]
        # Ranged query returns only overlapping blocks.
        middle = client.get_file_block_locations("/r", start=5 * MB, length=MB)
        assert len(middle) == 1
        assert middle[0].offset == 4 * MB

    def test_ranged_query_orders_only_the_blocks_in_range(self, fs, client):
        """A block outside the range is neither ordered nor checked: its
        having no live replica fails only the queries that cover it."""
        client.write_file("/r", size=10 * MB)
        last = fs.master.namespace.get_file("/r").blocks[2]
        for replica in fs.master.block_map[last.block_id].replicas:
            fs.master.report_corrupt_replica(last.block_id, replica.medium.medium_id)
        head = client.get_file_block_locations("/r", start=0, length=MB)
        assert [l.offset for l in head] == [0]
        with pytest.raises(RetrievalError):
            client.get_file_block_locations("/r", start=8 * MB, length=MB)
        with pytest.raises(RetrievalError):
            client.get_file_block_locations("/r")

    @pytest.mark.parametrize("start, length", [(-100, None), (0, -1), (-1, MB)])
    def test_negative_range_rejected(self, client, start, length):
        client.write_file("/r", size=10 * MB)
        with pytest.raises(ValueError, match="negative range"):
            client.get_file_block_locations("/r", start=start, length=length)

    def test_locations_report_tiers_and_hosts(self, client):
        client.write_file("/t", size=MB, rep_vector=ReplicationVector.of(ssd=1))
        loc = client.get_file_block_locations("/t")[0]
        assert loc.tiers == ("SSD",)
        assert loc.hosts[0].startswith("worker")

    def test_retrieval_order_prefers_fast_tiers(self, client):
        client.write_file(
            "/fast", size=MB, rep_vector=ReplicationVector.of(memory=1, hdd=2)
        )
        loc = client.get_file_block_locations("/fast")[0]
        assert loc.tiers[0] == "MEMORY"


class TestTierReports:
    def test_reports_reflect_usage(self, fs, client):
        client.write_file("/u", size=4 * MB, rep_vector=ReplicationVector.of(ssd=3))
        report = {r.tier_name: r for r in client.get_storage_tier_reports()}
        assert report["SSD"].used == 3 * 4 * MB
        assert report["MEMORY"].used == 0
        assert report["SSD"].remaining_percent < 100.0

    def test_reports_include_throughput(self, client):
        report = client.get_storage_tier_reports()[0]
        assert report.avg_write_throughput > 0
        assert report.avg_read_throughput > 0


class TestNamespaceOps:
    def test_mkdir_list_rename_delete(self, client):
        client.mkdir("/a/b")
        client.write_file("/a/b/f", size=MB)
        assert [s.path for s in client.list_status("/a/b")] == ["/a/b/f"]
        client.rename("/a/b/f", "/a/b/g")
        assert client.exists("/a/b/g")
        client.delete("/a", recursive=True)
        assert not client.exists("/a")

    def test_delete_frees_media_space(self, fs, client):
        client.write_file("/gone", size=8 * MB)
        assert sum(m.used for m in fs.cluster.live_media()) > 0
        client.delete("/gone")
        assert sum(m.used for m in fs.cluster.live_media()) == 0
        assert fs.master.block_map == {}


class TestQuotaIntegration:
    def test_memory_tier_quota_blocks_allocation(self, fs, client):
        client.mkdir("/tenant")
        client.set_quota("/tenant", tier_space_quota={"MEMORY": 4 * MB})
        client.write_file(
            "/tenant/ok", size=4 * MB, rep_vector=ReplicationVector.of(memory=1)
        )
        with pytest.raises(QuotaExceededError):
            client.write_file(
                "/tenant/over",
                size=4 * MB,
                rep_vector=ReplicationVector.of(memory=1),
            )

    def test_quota_only_counts_that_tier(self, client):
        client.mkdir("/tenant2")
        client.set_quota("/tenant2", tier_space_quota={"MEMORY": MB})
        # HDD replicas unaffected by the memory quota.
        client.write_file(
            "/tenant2/hdd", size=8 * MB, rep_vector=ReplicationVector.of(hdd=2)
        )


class TestConcurrentWriters:
    def test_parallel_writers_share_bandwidth(self, fs):
        """Two concurrent writers finish later than one alone would."""
        def writer(client, path):
            stream = client.create(path, rep_vector=ReplicationVector.of(ssd=3))
            yield from stream.write_size_proc(8 * MB)
            yield from stream.close_proc()

        solo_fs = OctopusFileSystem(small_cluster_spec())
        solo_client = solo_fs.client(on="worker1")
        solo_fs.run_to_completion(writer(solo_client, "/solo"))
        solo_time = solo_fs.engine.now

        c1 = fs.client(on="worker1")
        c2 = fs.client(on="worker2")
        p1 = fs.engine.process(writer(c1, "/p1"))
        p2 = fs.engine.process(writer(c2, "/p2"))
        fs.engine.run(fs.engine.all_of([p1, p2]))
        assert fs.engine.now > solo_time

    def test_many_files_all_readable(self, fs):
        clients = [fs.client(on=f"worker{i+1}") for i in range(4)]
        procs = []
        for index, client in enumerate(clients):
            stream = client.create(f"/many/f{index}")
            def run(stream=stream):
                yield from stream.write_size_proc(4 * MB)
                yield from stream.close_proc()
            procs.append(fs.engine.process(run()))
        fs.engine.run(fs.engine.all_of(procs))
        for index in range(4):
            assert fs.master.namespace.get_file(f"/many/f{index}").length == 4 * MB


class TestReadFailover:
    def test_corrupt_replica_skipped_and_reported(self, fs, client):
        client.write_file("/c", data=b"z" * MB, rep_vector=3)
        loc = client.get_file_block_locations("/c")[0]
        # Corrupt the best replica.
        worker = fs.workers[loc.hosts[0]]
        worker.corrupt_replica(loc.block_id, loc.media[0])
        assert client.read_file("/c") == b"z" * MB  # failover worked
        meta = fs.master.block_map[loc.block_id]
        assert any(r.corrupt for r in meta.replicas)
        assert fs.master.pending_replication > 0  # repair queued

    def test_all_replicas_corrupt_raises(self, fs, client):
        client.write_file("/dead", data=b"q" * MB, rep_vector=2)
        loc = client.get_file_block_locations("/dead")[0]
        for host, medium in zip(loc.hosts, loc.media):
            fs.workers[host].corrupt_replica(loc.block_id, medium)
        with pytest.raises(RetrievalError):
            client.read_file("/dead")
