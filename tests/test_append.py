"""Tests for file append (HDFS-style: fill the tail, then new blocks)."""

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.errors import LeaseError, PermissionDeniedError
from repro.fs.backup import BackupMaster
from repro.fs.namespace import UserContext
from repro.util.units import MB


@pytest.fixture
def fs():
    return OctopusFileSystem(small_cluster_spec())


@pytest.fixture
def client(fs):
    return fs.client(on="worker1")


class TestAppendSemantics:
    def test_append_bytes_roundtrip(self, client):
        client.write_file("/log", data=b"line1\n")
        with client.append("/log") as stream:
            stream.write(b"line2\n")
        assert client.read_file("/log") == b"line1\nline2\n"

    def test_append_fills_tail_block_first(self, fs, client):
        client.write_file("/t", size=3 * MB)  # tail block: 3 of 4 MB
        with client.append("/t") as stream:
            stream.write_size(2 * MB)
        inode = fs.master.namespace.get_file("/t")
        # 5 MB total: the old tail grew to 4 MB, one new 1 MB block.
        assert [b.size for b in inode.blocks] == [4 * MB, 1 * MB]
        assert inode.length == 5 * MB

    def test_small_append_stays_in_tail(self, fs, client):
        client.write_file("/small", size=MB)
        with client.append("/small") as stream:
            stream.write_size(MB)
        inode = fs.master.namespace.get_file("/small")
        assert [b.size for b in inode.blocks] == [2 * MB]

    def test_append_to_block_aligned_file_adds_blocks(self, fs, client):
        client.write_file("/aligned", size=4 * MB)
        with client.append("/aligned") as stream:
            stream.write_size(4 * MB)
        inode = fs.master.namespace.get_file("/aligned")
        assert [b.size for b in inode.blocks] == [4 * MB, 4 * MB]

    def test_append_grows_all_tail_replicas(self, fs, client):
        client.write_file("/r", size=MB, rep_vector=ReplicationVector.of(hdd=2))
        with client.append("/r") as stream:
            stream.write_size(MB)
        inode = fs.master.namespace.get_file("/r")
        meta = fs.master.block_map[inode.blocks[0].block_id]
        for replica in meta.live_replicas():
            assert replica.block.size == 2 * MB
        used = sum(m.used for m in fs.cluster.live_media())
        assert used == 2 * (2 * MB)  # 2 replicas x 2 MB

    def test_append_leaves_the_tail_replicas_sharing_one_object(self, fs, client):
        """Replicas that shared the tail's bytes share the grown bytes:
        one object per block, as a fresh write leaves it."""
        a = bytes(range(256)) * (6 * MB // 256)  # 1.5 blocks
        b = bytes(reversed(range(256))) * (4 * MB // 256)  # one block
        client.write_file("/shared", data=a, rep_vector=3)
        with client.append("/shared") as stream:
            stream.write(b)
        inode = fs.master.namespace.get_file("/shared")
        assert [block.size for block in inode.blocks] == [4 * MB, 4 * MB, 2 * MB]
        for block in inode.blocks:
            meta = fs.master.block_map[block.block_id]
            assert len(meta.replicas) == 3
            assert len({id(r.data) for r in meta.replicas}) == 1
        assert client.read_file("/shared") == a + b

    def test_append_while_open_rejected(self, client):
        stream = client.create("/busy")
        with pytest.raises(LeaseError):
            client.append("/busy")
        stream.close()
        client.append("/busy").close()

    def test_append_permission_checked(self, fs, client):
        client.write_file("/secure", data=b"x")
        client.set_permission("/secure", 0o644)
        eve = fs.client(on="worker2", user=UserContext("eve"))
        with pytest.raises(PermissionDeniedError):
            eve.append("/secure")

    def test_append_advances_simulated_time(self, fs, client):
        client.write_file("/timed", size=2 * MB)
        before = fs.engine.now
        with client.append("/timed") as stream:
            stream.write_size(8 * MB)
        assert fs.engine.now > before

    def test_multiple_appends(self, client):
        client.write_file("/multi", data=b"a")
        for char in (b"b", b"c", b"d"):
            with client.append("/multi") as stream:
                stream.write(char)
        assert client.read_file("/multi") == b"abcd"


class TestAppendDurability:
    def test_backup_master_sees_appended_length(self, fs, client):
        backup = BackupMaster(fs.master)
        client.write_file("/journal", size=3 * MB)
        with client.append("/journal") as stream:
            stream.write_size(3 * MB)
        image = backup.image.get_file("/journal")
        assert image.length == 6 * MB
        assert not image.under_construction

    def test_quota_charged_for_append(self, fs, client):
        from repro.errors import QuotaExceededError

        client.mkdir("/q")
        client.write_file(
            "/q/f", size=3 * MB, rep_vector=ReplicationVector.of(ssd=1)
        )
        # Quota set below what the pending append needs (HDFS allows
        # setting a quota under current usage; it only blocks growth).
        client.set_quota("/q", tier_space_quota={"SSD": int(3.5 * MB)})
        with pytest.raises(QuotaExceededError):
            with client.append("/q/f") as stream:
                stream.write_size(MB)  # tail extension breaks the quota
