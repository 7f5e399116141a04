"""What a namespace entry costs: no path memo, no empty per-inode dict.

The master holds the whole namespace in memory (§2.1), so the bytes of
one entry bound how large a namespace it can hold. Three things keep
that cost down, and each has a check here:

* ``repro.fs`` keeps no memo: a process-wide path cache outlived every
  cluster and held a normalised copy of every path ever seen;
* an inode has no instance dict (``__slots__``), and its per-tier usage,
  its quota and an empty directory's children are one shared, read-only
  :data:`repro.fs.inode.EMPTY` until the first write;
* a measured ceiling on the bytes per inode of a plain namespace.

Sharing the empty mapping must not cost exactness: quota checks and
:func:`~repro.fs.invariants.accounting_violations` are exercised through
charges, refunds, renames and deletes, and every container that empties
again goes back to the shared mapping.
"""

import ast
import gc
import tracemalloc
from pathlib import Path

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.errors import QuotaExceededError
from repro.fs.inode import EMPTY, INodeDirectory, INodeFile
from repro.fs.invariants import accounting_violations
from repro.fs.namespace import SUPERUSER, Namespace
from repro.util.units import MB

FS_SOURCES = Path(__file__).resolve().parents[1] / "src" / "repro" / "fs"
MEMO_NAMES = {"lru_cache", "cache", "cached_property"}

#: Ceiling on the bytes one inode of :func:`build_flat_namespace` costs.
#: Measured with tracemalloc: 250.1 on CPython 3.11 and 242.1 on 3.12 and
#: 3.13; the ceiling is 3.11's figure plus 10 %. With the path memo, an
#: instance dict per inode and an empty dict per usage mapping and per
#: empty directory it was 738.7 (3.11), 699.4 (3.12) and 707.6 (3.13); on
#: 3.11, 369.2 without the memo, and 299.4 with the shared empty mapping
#: but an instance dict per inode.
MAX_BYTES_PER_INODE = 275


def test_no_memo_under_repro_fs():
    found = []
    for source in sorted(FS_SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id in MEMO_NAMES:
                found.append(f"{source.name}:{node.lineno} {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in MEMO_NAMES:
                found.append(f"{source.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.alias) and node.name in MEMO_NAMES:
                found.append(f"{source.name} imports {node.name}")
    assert found == []


def build_flat_namespace(directories: int = 200, files_per_directory: int = 10):
    """``directories`` directories under the root, each holding
    ``files_per_directory`` empty, complete files; the namespace and the
    traced bytes its construction left live."""
    vector, block_size = ReplicationVector.from_replication_factor(3), 128 * MB
    dirs = [f"/d{d}" for d in range(directories)]
    files = [f"{path}/f{f}" for path in dirs for f in range(files_per_directory)]
    gc.collect()
    tracemalloc.start()
    try:
        namespace = Namespace()
        for path in dirs:
            namespace.mkdir(path)
        for path in files:
            namespace.create_file(path, vector, block_size)
            namespace.complete_file(path)
        gc.collect()
        live, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return namespace, live


def test_an_inode_costs_at_most_the_measured_ceiling():
    namespace, live = build_flat_namespace()
    inodes = namespace.total_inodes - 1  # the root predates the trace
    assert inodes == 2200
    assert live / inodes <= MAX_BYTES_PER_INODE, f"{live / inodes:.1f} bytes per inode"


class TestFreshInodesOwnNoDict:
    def test_a_file(self):
        inode = INodeFile("f", "u", "g", 0o644, ReplicationVector.of(u=3), MB)
        assert not hasattr(inode, "__dict__")
        assert inode.tier_bytes is EMPTY

    def test_a_directory(self):
        directory = INodeDirectory("d", "u", "g", 0o755)
        assert not hasattr(directory, "__dict__")
        assert directory.children is EMPTY
        assert directory.tier_space_quota is EMPTY
        assert directory.subtree_tier_bytes is EMPTY

    def test_the_shared_mapping_is_read_only(self):
        with pytest.raises(TypeError):
            EMPTY["HDD"] = 1

    def test_emptied_containers_return_to_the_shared_mapping(self):
        namespace = Namespace()
        namespace.mkdir("/q")
        inode, _ = namespace.create_file("/q/f", ReplicationVector.of(u=1), MB)
        namespace.set_quota("/q", tier_space_quota={"SSD": MB})
        namespace.charge_tier_space(inode, "SSD", MB)
        directory = namespace.root.children["q"]
        assert directory.subtree_tier_bytes == {"SSD": MB}
        assert namespace.root.subtree_tier_bytes == {"SSD": MB}
        namespace.charge_tier_space(inode, "SSD", -MB)
        assert inode.tier_bytes is EMPTY
        assert directory.subtree_tier_bytes is EMPTY
        assert namespace.root.subtree_tier_bytes is EMPTY
        namespace.set_quota("/q")
        assert directory.tier_space_quota is EMPTY
        namespace.delete("/q/f")
        assert directory.children is EMPTY
        namespace.rename("/q", "/r")
        assert namespace.root.children["r"] is directory
        namespace.delete("/r")
        assert namespace.root.children is EMPTY


class TestUsageStaysExact:
    """Quotas and the accounting invariant through the lifecycle of
    replicas on a live file system."""

    @pytest.fixture
    def fs(self):
        return OctopusFileSystem(small_cluster_spec())

    def usage(self, fs, path):
        node = fs.master.namespace._resolve(path, SUPERUSER)
        return dict(node.subtree_tier_bytes if node.is_directory else node.tier_bytes)

    def test_charges_refunds_renames_and_deletes(self, fs):
        client = fs.client(on="worker1")
        memory = ReplicationVector.of(memory=1)
        client.mkdir("/a")
        client.mkdir("/b")
        client.set_quota("/a", tier_space_quota={"MEMORY": 4 * MB})
        client.set_quota("/b", tier_space_quota={"MEMORY": 4 * MB})
        client.write_file("/a/one", size=4 * MB, rep_vector=memory)
        assert accounting_violations(fs) == []
        assert self.usage(fs, "/a") == {"MEMORY": 4 * MB}
        # The quota is full to the byte: one more is refused, and the
        # refused write leaves no file behind...
        with pytest.raises(QuotaExceededError):
            client.write_file("/a/two", size=MB, rep_vector=memory)
        assert not client.exists("/a/two")
        # ...and so is one byte more on a second full quota.
        client.write_file("/b/one", size=4 * MB, rep_vector=memory)
        namespace = fs.master.namespace
        with pytest.raises(QuotaExceededError):
            namespace.check_tier_space(namespace.get_file("/b/one"), "MEMORY", 1)
        # A rename carries the usage: /a empties, /c holds it.
        client.mkdir("/c")
        client.rename("/a/one", "/c/one")
        assert self.usage(fs, "/a") == {}
        assert self.usage(fs, "/c") == {"MEMORY": 4 * MB}
        assert accounting_violations(fs) == []
        # The freed quota admits exactly its size again.
        client.write_file("/a/three", size=4 * MB, rep_vector=memory)
        assert accounting_violations(fs) == []
        # A vector change refunds one tier and charges another.
        fs.master.set_replication("/a/three", ReplicationVector.of(hdd=1))
        fs.await_replication()
        assert self.usage(fs, "/a") == {"HDD": 4 * MB}
        assert accounting_violations(fs) == []
        # Deletes refund everything, up to the root.
        for path in ("/a/three", "/b/one", "/c/one"):
            client.delete(path)
        fs.await_replication()
        assert accounting_violations(fs) == []
        root = fs.master.namespace.root
        assert root.subtree_tier_bytes is EMPTY
        assert all(
            directory.subtree_tier_bytes is EMPTY and directory.children is EMPTY
            for directory in root.children.values()
        )

    def test_a_rename_into_a_full_tier_quota_is_refused(self, fs):
        """Only the namespace quota used to be checked on the target side
        of a rename, so a file's tier bytes could be moved into a quota
        that was already full."""
        client = fs.client(on="worker1")
        memory = ReplicationVector.of(memory=1)
        client.mkdir("/a")
        client.mkdir("/c")
        client.set_quota("/c", tier_space_quota={"MEMORY": 4 * MB})
        client.write_file("/c/one", size=4 * MB, rep_vector=memory)
        client.write_file("/a/two", size=4 * MB, rep_vector=memory)
        records = len(fs.master.edit_log.records)
        with pytest.raises(QuotaExceededError, match="MEMORY space quota of '/c'"):
            client.rename("/a/two", "/c/two")
        assert client.exists("/a/two") and not client.exists("/c/two")
        assert len(fs.master.edit_log.records) == records  # nothing journaled
        assert self.usage(fs, "/c") == {"MEMORY": 4 * MB}
        assert accounting_violations(fs) == []
        # Bytes on another tier still move in.
        client.write_file("/a/cold", size=4 * MB, rep_vector=ReplicationVector.of(hdd=1))
        client.rename("/a/cold", "/c/cold")
        assert self.usage(fs, "/c") == {"MEMORY": 4 * MB, "HDD": 4 * MB}

    def test_a_write_refused_by_a_tier_quota_can_be_retried(self, fs):
        """The refused write used to leave its empty file under
        construction, so the retry raised ``FileAlreadyExistsError``."""
        client = fs.client(on="worker1")
        memory = ReplicationVector.of(memory=1)
        client.mkdir("/q")
        client.set_quota("/q", tier_space_quota={"MEMORY": 4 * MB})
        client.write_file("/q/one", size=4 * MB, rep_vector=memory)
        with pytest.raises(QuotaExceededError):
            client.write_file("/q/two", size=4 * MB, rep_vector=memory)
        assert not client.exists("/q/two")
        client.set_quota("/q", tier_space_quota={"MEMORY": 8 * MB})
        client.write_file("/q/two", size=4 * MB, rep_vector=memory)
        assert client.get_status("/q/two").length == 4 * MB
        assert self.usage(fs, "/q") == {"MEMORY": 8 * MB}
        assert accounting_violations(fs) == []
