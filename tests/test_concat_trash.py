"""Tests for concat (metadata-only merge) and trash (recoverable deletes)."""

import pytest

from repro import OctopusFileSystem
from repro.cluster import small_cluster_spec
from repro.errors import FileSystemError, LeaseError
from repro.fs.backup import BackupMaster
from repro.util.units import MB


@pytest.fixture
def fs():
    return OctopusFileSystem(small_cluster_spec())


@pytest.fixture
def client(fs):
    return fs.client(on="worker1")


class TestConcat:
    def test_merges_content_in_order(self, fs, client):
        client.write_file("/a", data=b"A" * (4 * MB))  # full block
        client.write_file("/b", data=b"B" * (4 * MB))
        client.write_file("/c", data=b"C" * MB)  # partial tail ok last
        client.concat("/a", ["/b", "/c"])
        assert not client.exists("/b")
        assert not client.exists("/c")
        data = client.read_file("/a")
        assert data == b"A" * (4 * MB) + b"B" * (4 * MB) + b"C" * MB

    def test_no_data_movement(self, fs, client):
        client.write_file("/x", size=4 * MB)
        client.write_file("/y", size=4 * MB)
        before = fs.engine.now
        client.concat("/x", ["/y"])
        assert fs.engine.now == before  # pure metadata: zero sim time

    def test_block_count_and_offsets(self, fs, client):
        client.write_file("/x", size=8 * MB)
        client.write_file("/y", size=6 * MB)
        client.concat("/x", ["/y"])
        locs = client.get_file_block_locations("/x")
        assert [l.offset for l in locs] == [0, 4 * MB, 8 * MB, 12 * MB]
        assert fs.master.namespace.get_file("/x").length == 14 * MB

    def test_partial_middle_block_rejected(self, fs, client):
        client.write_file("/x", size=3 * MB)  # partial tail, not last piece
        client.write_file("/y", size=4 * MB)
        with pytest.raises(FileSystemError):
            client.concat("/x", ["/y"])

    def test_self_concat_rejected(self, client):
        client.write_file("/s", size=4 * MB)
        with pytest.raises(FileSystemError):
            client.concat("/s", ["/s"])

    def test_open_file_rejected(self, client):
        client.write_file("/t", size=4 * MB)
        stream = client.create("/open")
        with pytest.raises(LeaseError):
            client.concat("/t", ["/open"])
        stream.close()

    def test_mismatched_block_size_rejected(self, client):
        client.write_file("/bs1", size=4 * MB)
        client.create("/bs2", block_size=2 * MB).close()
        with pytest.raises(FileSystemError):
            client.concat("/bs1", ["/bs2"])

    def test_empty_sources_rejected(self, client):
        client.write_file("/t", size=MB)
        with pytest.raises(FileSystemError):
            client.concat("/t", [])

    def test_backup_image_tracks_concat(self, fs, client):
        backup = BackupMaster(fs.master)
        client.write_file("/p", size=4 * MB)
        client.write_file("/q", size=4 * MB)
        client.concat("/p", ["/q"])
        image_file = backup.image.get_file("/p")
        assert image_file.length == 8 * MB
        assert not backup.image.exists("/q")

    def test_replication_still_converges_after_concat(self, fs, client):
        from repro import ReplicationVector

        client.write_file("/r1", size=4 * MB, rep_vector=ReplicationVector.of(hdd=1))
        client.write_file("/r2", size=4 * MB, rep_vector=ReplicationVector.of(hdd=1))
        client.concat("/r1", ["/r2"])
        client.set_replication("/r1", ReplicationVector.of(hdd=2))
        fs.await_replication()
        for loc in client.get_file_block_locations("/r1"):
            assert len(loc.hosts) == 2


class TestTrash:
    def test_move_and_restore(self, fs, client):
        client.write_file("/doc", data=b"precious")
        trash_path = client.move_to_trash("/doc")
        assert not client.exists("/doc")
        assert client.exists(trash_path)
        client.restore_from_trash(trash_path, "/doc")
        assert client.read_file("/doc") == b"precious"

    def test_trash_is_per_user(self, fs):
        from repro.fs.namespace import UserContext

        root = fs.client(on="worker1")
        root.write_file("/shared-file", data=b"x")
        trash_path = root.move_to_trash("/shared-file")
        assert trash_path.startswith("/.Trash/root/")

    def test_name_collisions_get_suffixes(self, fs, client):
        client.write_file("/same", data=b"1")
        first = client.move_to_trash("/same")
        client.write_file("/same", data=b"2")
        second = client.move_to_trash("/same")
        assert first != second
        assert client.exists(first) and client.exists(second)

    def test_expunge_frees_space(self, fs, client):
        client.write_file("/bulky", size=8 * MB)
        client.move_to_trash("/bulky")
        assert sum(m.used for m in fs.cluster.live_media()) > 0
        removed = fs.expunge_trash(older_than=0.0)
        assert removed == 1
        assert sum(m.used for m in fs.cluster.live_media()) == 0

    def test_expunge_respects_age(self, fs, client):
        client.write_file("/young", size=MB)
        client.move_to_trash("/young")
        # Entries younger than the cutoff survive.
        assert fs.expunge_trash(older_than=3600.0) == 0

    def test_expunge_respects_age_after_failover(self, fs, client):
        """The promoted image knows when the entry was trashed."""
        backup = BackupMaster(fs.master)
        client.write_file("/young", size=MB)
        fs.engine.run(until=5000.0)
        client.move_to_trash("/young")
        fs.engine.run(until=5010.0)
        assert fs.expunge_trash(older_than=3600.0) == 0
        backup.promote(fs)
        assert fs.expunge_trash(older_than=3600.0) == 0
        fs.engine.run(until=5000.0 + 3600.0)
        assert fs.expunge_trash(older_than=3600.0) == 1

    def test_expunge_on_empty_trash(self, fs):
        assert fs.expunge_trash() == 0
