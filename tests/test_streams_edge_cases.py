"""Edge cases for the write pipeline and read path."""

import hashlib
import random

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.errors import (
    FileSystemError,
    InsufficientStorageError,
    PermissionDeniedError,
    RetrievalError,
)
from repro.fs.namespace import UserContext
from repro.util.units import MB


@pytest.fixture
def fs():
    return OctopusFileSystem(small_cluster_spec())


@pytest.fixture
def client(fs):
    return fs.client(on="worker1")


class TestWriteEdgeCases:
    def test_empty_file(self, fs, client):
        client.write_file("/empty", data=b"")
        assert client.read_file("/empty") == b""
        inode = fs.master.namespace.get_file("/empty")
        assert inode.blocks == []
        assert not inode.under_construction

    def test_exactly_one_block(self, fs, client):
        client.write_file("/exact", size=4 * MB)  # == block size
        inode = fs.master.namespace.get_file("/exact")
        assert [b.size for b in inode.blocks] == [4 * MB]

    def test_one_byte_over_block(self, fs, client):
        client.write_file("/over", size=4 * MB + 1)
        inode = fs.master.namespace.get_file("/over")
        assert [b.size for b in inode.blocks] == [4 * MB, 1]

    def test_tail_block_space_accounting(self, fs, client):
        """A 1-byte tail block must not hold a full block reservation."""
        client.write_file("/tail", size=4 * MB + 1, rep_vector=1)
        used = sum(m.used for m in fs.cluster.live_media())
        reserved = sum(m.reserved for m in fs.cluster.live_media())
        assert used == 4 * MB + 1
        assert reserved == 0

    def test_mixing_bytes_and_size_writes_rejected(self, client):
        stream = client.create("/mix")
        stream.write(b"abc")
        with pytest.raises(FileSystemError):
            stream.write_size(10)

    def test_write_file_with_bytes_and_a_size_creates_nothing(self, client):
        """Refused before the file exists, so none is left open for
        writing forever."""
        with pytest.raises(FileSystemError, match="cannot mix"):
            client.write_file("/x", data=b"abc", size=5)
        assert not client.exists("/x")

    def test_negative_size_only_write_rejected(self, fs, client):
        stream = client.create("/neg")
        with pytest.raises(FileSystemError):
            stream.write_size(-5)
        stream.write_size(5)
        stream.close()
        assert [b.size for b in fs.master.namespace.get_file("/neg").blocks] == [5]

    @pytest.mark.parametrize("block_size", [0, -1])
    def test_non_positive_block_size_rejected(self, fs, client, block_size):
        with pytest.raises(FileSystemError, match="block size"):
            client.create("/bs", block_size=block_size)
        assert not client.exists("/bs")
        client.write_file("/default", size=MB, block_size=None)
        assert fs.master.namespace.get_file("/default").block_size == 4 * MB

    def test_write_after_close_rejected(self, client):
        stream = client.create("/closed")
        stream.close()
        with pytest.raises(FileSystemError):
            stream.write(b"late")

    def test_double_close_is_idempotent(self, client):
        stream = client.create("/dbl")
        stream.write(b"x")
        stream.close()
        stream.close()  # no error

    def test_context_manager_closes(self, fs, client):
        with client.create("/ctx") as stream:
            stream.write(b"managed")
        assert not fs.master.namespace.get_file("/ctx").under_construction
        assert client.read_file("/ctx") == b"managed"

    def test_write_larger_than_cluster_memory_tier(self, fs, client):
        """Explicit memory vector falls back gracefully when the tier
        fills (HDFS storage-policy fallback semantics)."""
        # Memory tier: 4 nodes x 128 MB = 512 MB; ask for 600 MB.
        client.write_file(
            "/huge", size=600 * MB, rep_vector=ReplicationVector.of(memory=1)
        )
        report = {r.tier_name: r for r in client.get_storage_tier_reports()}
        assert report["MEMORY"].remaining < 128 * MB  # memory saturated
        # Overflow landed somewhere durable rather than failing.
        spill = report["SSD"].used + report["HDD"].used
        assert spill > 0

    def test_truly_full_cluster_raises(self, client):
        fs_small = OctopusFileSystem(small_cluster_spec())
        for medium in fs_small.cluster.live_media():
            medium.reserve(medium.remaining)
        c = fs_small.client(on="worker1")
        stream = c.create("/nospace")
        with pytest.raises(InsufficientStorageError):
            stream.write_size(4 * MB)

    def test_failed_pipeline_retries_on_other_nodes(self, fs, client):
        """Killing a pipeline worker mid-write must not lose the write."""
        stream = client.create("/retry", rep_vector=2)

        def writer():
            yield from stream.write_size_proc(8 * MB)
            yield from stream.close_proc()

        proc = fs.engine.process(writer())

        def killer():
            yield fs.engine.timeout(0.01)
            # Kill whichever worker is currently in a write pipeline.
            for node in fs.cluster.worker_nodes:
                if node.nic_in.active_count or any(
                    m.write_channel.active_count for m in node.media
                ):
                    fs.faults.crash(node.name)
                    return

        fs.engine.process(killer())
        fs.engine.run(proc)
        inode = fs.master.namespace.get_file("/retry")
        assert inode.length == 8 * MB
        # All finalized replicas live on surviving nodes.
        for block in inode.blocks:
            meta = fs.master.block_map[block.block_id]
            assert len(meta.live_replicas()) >= 1


class TestBytePath:
    """A written ``bytes`` object is held, not copied; a mutable buffer
    is copied once, when written."""

    @pytest.mark.parametrize("size", [4 * MB, 1000], ids=["block", "tail"])
    def test_one_block_bytes_write_is_held_by_reference(self, fs, client, size):
        data = random.Random(size).randbytes(size)
        with client.create("/held", rep_vector=3) as stream:
            stream.write(data)
        (block,) = fs.master.namespace.get_file("/held").blocks
        replicas = fs.master.block_map[block.block_id].replicas
        assert len(replicas) == 3
        assert all(replica.data is data for replica in replicas)

    @pytest.mark.parametrize(
        "wrap", [bytearray, lambda b: memoryview(bytearray(b))],
        ids=["bytearray", "memoryview"],
    )
    def test_mutable_buffer_reused_before_close(self, client, wrap):
        original = random.Random(3).randbytes(5 * MB)
        buffer = wrap(original)
        stream = client.create("/reused")
        stream.write(buffer)
        buffer[:] = bytes(len(original))
        stream.close()
        assert client.read_file("/reused") == original

    def test_scripted_writes_keep_block_sizes_and_content(self, fs, client):
        """Golden: block sizes and a sha256 per block, recorded from the
        stream that buffered into a ``bytearray``."""
        rng = random.Random(35)
        block_size = 64 * 1024
        stream = client.create("/golden", rep_vector=2, block_size=block_size)
        for size in (1000, 30000, 50000, 7):
            stream.write(rng.randbytes(size))
        stream.write(rng.randbytes(2 * block_size + 12345))
        stream.write(bytearray(rng.randbytes(40000)))
        stream.write(memoryview(rng.randbytes(3000)))
        stream.write(rng.randbytes(5000))
        stream.write(rng.randbytes(block_size + 100))
        stream.close()
        blocks = []
        for block in fs.master.namespace.get_file("/golden").blocks:
            (data,) = {r.data for r in fs.master.block_map[block.block_id].replicas}
            blocks.append((block.size, hashlib.sha256(data).hexdigest()[:16]))
        assert blocks == [
            (65536, "fc7e3412e144f0ed"),
            (65536, "fb30bc18e6f3fd5d"),
            (65536, "310a97ce10eabae8"),
            (65536, "c025e32a3f91b2c0"),
            (65536, "18f6a56a04da7389"),
            (10380, "eaf8b00fc693e5c1"),
        ]

    def test_size_only_write_after_a_held_piece_rejected(self, client):
        stream = client.create("/mix-held")
        stream.write(bytes(1000))  # one whole piece, held as written
        with pytest.raises(FileSystemError, match="cannot mix"):
            stream.write_size(10)

    def test_bytes_after_pending_size_only_data_rejected(self, client):
        """The reverse order is refused too: the bytes would otherwise
        land in a block ahead of the simulated data written before them."""
        stream = client.create("/mix-size")
        stream.write_size(10)
        stream.write(b"")  # an empty write is a no-op either way
        with pytest.raises(FileSystemError, match="cannot mix"):
            stream.write(b"abc")


class TestReadEdgeCases:
    def test_read_empty_file(self, client):
        client.write_file("/e", data=b"")
        assert client.open("/e").read_size() == 0

    def test_read_during_other_traffic(self, fs, client):
        client.write_file("/shared", size=8 * MB)
        other = fs.client(on="worker2")
        other_stream = other.create("/noise")

        def noisy():
            yield from other_stream.write_size_proc(16 * MB)
            yield from other_stream.close_proc()

        noise = fs.engine.process(noisy())
        n = client.open("/shared").read_size()
        assert n == 8 * MB
        fs.engine.run(noise)

    def test_read_fails_when_all_workers_with_replicas_die(self, fs, client):
        client.write_file("/fragile", size=4 * MB, rep_vector=1)
        host = client.get_file_block_locations("/fragile")[0].hosts[0]
        fs.faults.crash(host)
        reader = fs.client(
            on="worker1" if host != "worker1" else "worker2"
        )
        with pytest.raises(RetrievalError):
            reader.open("/fragile").read_size()

    def test_read_order_adapts_to_load(self, fs):
        """Two sequential readers of a 2-replica file spread across
        replicas when the first replica's medium is busy."""
        client = fs.client(on="worker1")
        client.write_file("/lb", size=4 * MB, rep_vector=ReplicationVector.of(hdd=2))
        first = client.get_file_block_locations("/lb")[0].media[0]
        # Saturate the first-choice medium with fake readers.
        medium = fs.cluster.media[first]
        stubs = [object() for _ in range(8)]
        for stub in stubs:
            medium.read_channel.flows.add(stub)
        try:
            reordered = client.get_file_block_locations("/lb")[0].media[0]
            assert reordered != first
        finally:
            for stub in stubs:
                medium.read_channel.flows.discard(stub)

    def test_unreadable_ancestor_denies_locations_and_reads(self, fs, client):
        client.mkdir("/vault", mode=0o700)
        client.write_file("/vault/f", data=b"secret")
        eve = fs.client(on="worker2", user=UserContext("eve"))
        with pytest.raises(PermissionDeniedError, match="'x'-class.*'/vault'"):
            eve.get_file_block_locations("/vault/f")
        with pytest.raises(PermissionDeniedError, match="'x'-class.*'/vault'"):
            eve.open("/vault/f").read()
        assert client.open("/vault/f").read() == b"secret"

    def test_locations_and_reads_walk_the_path_once(self, fs, client, monkeypatch):
        """Both facades of the read path order replicas from the inode
        one resolve (and one permission check) produced."""
        tiers = ReplicationVector.of(memory=1, ssd=1, hdd=1)
        client.write_file("/once", data=b"x" * (9 * MB), rep_vector=tiers)
        walks = []
        get_file = fs.master.namespace.get_file
        monkeypatch.setattr(
            fs.master.namespace, "get_file",
            lambda path, *args: walks.append(path) or get_file(path, *args),
        )
        locations = client.get_file_block_locations("/once")
        assert walks == ["/once"]
        # Distinct tiers, distinct rates: no tie for the RNG to break.
        assert [list(location.media) for location in locations] == [
            [replica.medium.medium_id for replica in replicas]
            for replicas in fs.master.get_block_replicas("/once", client.node)
        ]
        del walks[:]
        stream = client.open("/once")
        assert walks == ["/once"]  # existence + permission, at open
        assert stream.read() == b"x" * (9 * MB)
        assert walks == ["/once", "/once"]


class TestOffClusterClient:
    def test_off_cluster_write_and_read(self, fs):
        client = fs.client()  # no node: an off-cluster machine
        client.write_file("/remote-client", data=b"hello from afar")
        assert client.read_file("/remote-client") == b"hello from afar"

    def test_off_cluster_write_is_slower_than_local(self):
        fs1 = OctopusFileSystem(small_cluster_spec())
        fs1.client(on="worker1").write_file("/l", size=16 * MB, rep_vector=1)
        local_time = fs1.engine.now
        fs2 = OctopusFileSystem(small_cluster_spec())
        fs2.client().write_file("/r", size=16 * MB, rep_vector=1)
        remote_time = fs2.engine.now
        assert remote_time >= local_time
