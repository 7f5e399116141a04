"""Tests for the S-Live stress test and its two namespace constructions."""

import pytest

from repro.cluster import small_cluster_spec
from repro.core.replication_vector import ReplicationVector
from repro.errors import (
    DirectoryNotEmptyError,
    FileAlreadyExistsError,
    FileNotFoundInNamespaceError,
    PermissionDeniedError,
    QuotaExceededError,
)
from repro.fs import OctopusFileSystem
from repro.fs.invariants import check_system_invariants
from repro.fs.namespace import UserContext
from repro.workloads.slive import (
    BLOCK_SIZE,
    OPERATIONS,
    HdfsNamespaceAdapter,
    OctopusNamespaceAdapter,
    SLive,
)

SHORT = ReplicationVector.from_replication_factor(2)


def create(ns, path, **kwargs):
    ns.create_file(path, SHORT, BLOCK_SIZE, **kwargs)


class TestHdfsBaseline:
    """The stock-HDFS side of Table 3 is ``Namespace`` on a one-tier
    axis; this is the NameNode surface on that construction. (Each
    behaviour's general test lives in ``tests/test_namespace.py``.)"""

    @pytest.fixture
    def ns(self):
        return HdfsNamespaceAdapter().namespace

    def test_mkdir_create_open(self, ns):
        create(ns, "/a/b/f")
        status = ns.get_status("/a/b/f")
        # The replication short is the vector U = r on the one-tier axis.
        assert status.rep_vector.encode(ns.tier_order) == 2
        assert not status.is_directory

    def test_list_sorted(self, ns):
        create(ns, "/d/b")
        create(ns, "/d/a")
        assert [s.path for s in ns.list_status("/d")] == ["/d/a", "/d/b"]

    def test_rename_and_delete(self, ns):
        create(ns, "/x/f")
        ns.rename("/x/f", "/x/g")
        assert ns.exists("/x/g")
        ns.delete("/x", recursive=True)
        assert not ns.exists("/x")

    def test_delete_nonrecursive_guard(self, ns):
        create(ns, "/d/f")
        with pytest.raises(DirectoryNotEmptyError):
            ns.delete("/d")

    def test_duplicate_create_rejected(self, ns):
        create(ns, "/f")
        with pytest.raises(FileAlreadyExistsError):
            create(ns, "/f")

    def test_missing_path(self, ns):
        with pytest.raises(FileNotFoundInNamespaceError):
            ns.get_status("/ghost")

    def test_permissions_enforced(self, ns):
        ns.mkdir("/private")
        # root-owned 0o755: others lack write.
        with pytest.raises(PermissionDeniedError):
            create(ns, "/private/f", user=UserContext("eve"))

    def test_namespace_quota(self, ns):
        ns.mkdir("/q")
        ns.set_quota("/q", namespace_quota=2)
        create(ns, "/q/one")
        with pytest.raises(QuotaExceededError):
            create(ns, "/q/two")

    def test_edit_emission(self, ns):
        records = []
        ns.add_listener(records.append)
        create(ns, "/j/f")
        ops = [r["op"] for r in records]
        assert ops == ["mkdir", "create_file"]

    def test_inode_counting(self, ns):
        before = ns.total_inodes
        create(ns, "/c/d/e")
        assert ns.total_inodes == before + 3
        ns.delete("/c", recursive=True)
        assert ns.total_inodes == before


class Recorded:
    """An adapter that also keeps the calls it was asked to make, and
    the tree as it stood when the delete phase began."""

    def __init__(self, adapter):
        self.adapter = adapter
        self.name = adapter.name
        self.calls = []
        self.tree_before_delete = None

    def __getattr__(self, op):
        fn = getattr(self.adapter, op)

        def call(*args):
            if op == "delete" and self.tree_before_delete is None:
                self.tree_before_delete = tree(self.adapter.namespace)
            self.calls.append((op, *args))
            return fn(*args)

        return call


def tree(namespace, path="/"):
    """Everything a recursive listing says that is not tier data."""
    entries = []
    for s in namespace.list_status(path):
        entries.append((s.path, s.is_directory, s.owner, s.group, s.mode))
        if s.is_directory:
            entries.extend(tree(namespace, s.path))
    return entries


class TestSLive:
    def test_runs_all_operation_types(self):
        slive = SLive(ops_per_type=50, dirs=5)
        result = slive.run(OctopusNamespaceAdapter())
        assert set(result.ops_per_second) == set(OPERATIONS)
        assert all(rate > 0 for rate in result.ops_per_second.values())
        assert all(count == 50 for count in result.op_counts.values())

    def test_hdfs_adapter_runs(self):
        slive = SLive(ops_per_type=50, dirs=5)
        result = slive.run(HdfsNamespaceAdapter())
        assert result.system == "HDFS"
        assert set(result.ops_per_second) == set(OPERATIONS)

    def test_namespace_drained_after_run(self):
        adapter = OctopusNamespaceAdapter()
        SLive(ops_per_type=30, dirs=3).run(adapter)
        # All renamed files were deleted; only dirs remain.
        listing = adapter.namespace.list_status("/slive")
        assert all(s.is_directory for s in listing)

    def test_per_worker_scaling(self):
        slive = SLive(ops_per_type=30, dirs=3)
        result = slive.run(OctopusNamespaceAdapter())
        per_worker = result.per_worker(9)
        for op in OPERATIONS:
            assert per_worker[op] == pytest.approx(result.ops_per_second[op] / 9)

    def test_same_workload_both_systems(self):
        """Both adapters must accept the identical operation stream."""
        slive = SLive(ops_per_type=40, dirs=4, seed=7)
        octo = slive.run(OctopusNamespaceAdapter())
        hdfs = slive.run(HdfsNamespaceAdapter())
        assert octo.op_counts == hdfs.op_counts

    def test_one_script_same_calls_same_tree_same_edits(self):
        """The two systems are one code path fed different data: the
        same script makes the same calls in the same order, builds the
        same tree and journals the same ops; tier data alone differs."""
        files = 40
        slive = SLive(ops_per_type=files, dirs=4, seed=7)
        octo = Recorded(OctopusNamespaceAdapter())
        hdfs = Recorded(HdfsNamespaceAdapter())
        slive.run(octo)
        slive.run(hdfs)

        assert octo.calls == hdfs.calls
        opens = [call[1] for call in octo.calls if call[0] == "open"]
        assert opens != sorted(opens) and len(set(opens)) == files

        assert octo.tree_before_delete == hdfs.tree_before_delete
        assert len(octo.tree_before_delete) > 2 * files
        octo_ns, hdfs_ns = octo.adapter.namespace, hdfs.adapter.namespace
        assert tree(octo_ns) == tree(hdfs_ns)

        def journal(adapter):
            return [
                (r["op"], r.get("path"), r.get("src"), r.get("dst"))
                for r in adapter.edit_records
            ]

        assert journal(octo.adapter) == journal(hdfs.adapter)
        assert len(octo.adapter.edit_records) > 4 * files

        # Every charge was refunded through remove_child.
        assert octo_ns.root.subtree_tier_bytes == {}
        assert hdfs_ns.root.subtree_tier_bytes == {}
        assert octo_ns.total_inodes == hdfs_ns.total_inodes

    def test_created_file_carries_its_replica_bytes(self):
        octo, hdfs = OctopusNamespaceAdapter(), HdfsNamespaceAdapter()
        for adapter in (octo, hdfs):
            adapter.create("/d/f")
        assert octo.namespace.root.subtree_tier_bytes == dict.fromkeys(
            ("MEMORY", "SSD", "HDD"), BLOCK_SIZE
        )
        # Stock HDFS: one aggregate entry of replication x length.
        assert hdfs.namespace.root.subtree_tier_bytes == {"DISK": 3 * BLOCK_SIZE}

    def test_adapter_on_a_master_leaves_accounting_to_it(self):
        fs = OctopusFileSystem(small_cluster_spec(seed=3))
        adapter = OctopusNamespaceAdapter.for_master(fs.master)
        adapter.create("/d/f")
        assert fs.master.namespace.root.subtree_tier_bytes == {}
        check_system_invariants(fs)
