"""Tests for the edit log, checkpoints, backup masters, and failover."""

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.bench.deployments import build_deployment
from repro.cluster import small_cluster_spec
from repro.core.placement import OriginalHdfsPolicy
from repro.fs import checkpoint as ckpt
from repro.fs.backup import BackupMaster, restore_master_from_checkpoint
from repro.fs.editlog import EditLog, replay
from repro.errors import RetrievalError
from repro.fs.invariants import (
    accounting_violations,
    check_system_invariants,
    replication_violations,
)
from repro.fs.namespace import Namespace
from repro.util.units import MB

RV = ReplicationVector.of(u=2)


def populated_namespace():
    ns = Namespace()
    ns.mkdir("/a/b")
    ns.create_file("/a/b/f1", RV, 4 * MB)
    ns.complete_file("/a/b/f1")
    ns.create_file("/a/f2", ReplicationVector.of(memory=1, hdd=1), 8 * MB)
    ns.complete_file("/a/f2")
    ns.rename("/a/f2", "/a/b/f2")
    ns.set_permission("/a/b/f1", 0o600)
    ns.set_quota("/a", namespace_quota=100, tier_space_quota={"SSD": MB})
    ns.mkdir("/doomed")
    ns.delete("/doomed")
    return ns


class TestEditLog:
    def test_records_assigned_txids(self):
        log = EditLog()
        ns = Namespace()
        ns.add_listener(log.append)
        ns.mkdir("/x")
        ns.mkdir("/y")
        assert [r["txid"] for r in log.records] == [1, 2]
        assert log.last_txid == 2

    def test_replay_reproduces_tree(self):
        log = EditLog()
        ns = Namespace()
        ns.add_listener(log.append)
        # Rebuild the same mutations while logging.
        ns.mkdir("/a/b")
        ns.create_file("/a/b/f1", RV, 4 * MB)
        ns.complete_file("/a/b/f1")
        ns.rename("/a/b/f1", "/a/b/g1")
        replica = Namespace()
        replay(log.records, replica)
        assert replica.exists("/a/b/g1")
        status = replica.get_status("/a/b/g1")
        assert status.rep_vector == RV
        assert not status.under_construction

    def test_replay_preserves_quotas_and_permissions(self):
        log = EditLog()
        ns = Namespace()
        ns.add_listener(log.append)
        ns.mkdir("/q")
        ns.set_quota("/q", namespace_quota=5, tier_space_quota={"MEMORY": MB})
        ns.set_permission("/q", 0o711)
        replica = Namespace()
        replay(log.records, replica)
        root_q = replica._resolve_dir("/q", __import__("repro.fs.namespace", fromlist=["SUPERUSER"]).SUPERUSER)
        assert root_q.namespace_quota == 5
        assert root_q.tier_space_quota == {"MEMORY": MB}
        assert replica.get_status("/q").mode == 0o711

    def test_since_and_truncate(self):
        log = EditLog()
        for i in range(5):
            log.append({"op": "mkdir", "path": f"/d{i}", "user": "u", "mode": 0o755})
        assert len(log.since(3)) == 2
        log.truncate_through(3)
        assert [r["txid"] for r in log.records] == [4, 5]
        # Truncation forgets records, not the count: numbering goes on
        # and selection is by txid, not by position.
        log.append({"op": "mkdir", "path": "/d5", "user": "u", "mode": 0o755})
        assert log.last_txid == 6
        assert [r["txid"] for r in log.since(4)] == [5, 6]

    def test_unknown_op_rejected(self):
        from repro.errors import FileSystemError

        with pytest.raises(FileSystemError):
            replay([{"op": "defragment"}], Namespace())


class TestCheckpoint:
    def test_roundtrip_structure(self):
        ns = populated_namespace()
        snapshot = ckpt.write_checkpoint(ns, last_txid=17)
        restored, txid = ckpt.load_checkpoint(snapshot)
        assert txid == 17
        assert restored.exists("/a/b/f1")
        assert restored.exists("/a/b/f2")
        assert not restored.exists("/doomed")
        assert restored.get_status("/a/b/f1").mode == 0o600
        assert restored.get_status("/a/b/f2").rep_vector == ReplicationVector.of(
            memory=1, hdd=1
        )

    def test_roundtrip_preserves_block_shape(self):
        from repro.fs.blocks import Block

        ns = populated_namespace()
        inode = ns.get_file("/a/b/f1")
        block = Block(0, 4 * MB)
        block.size = 3 * MB
        inode.blocks.append(block)
        restored, _ = ckpt.load_checkpoint(ckpt.write_checkpoint(ns))
        restored_file = restored.get_file("/a/b/f1")
        assert [b.size for b in restored_file.blocks] == [3 * MB]
        assert restored_file.length == 3 * MB

    def test_quotas_survive(self):
        ns = populated_namespace()
        restored, _ = ckpt.load_checkpoint(ckpt.write_checkpoint(ns))
        from repro.fs.namespace import SUPERUSER

        directory = restored._resolve_dir("/a", SUPERUSER)
        assert directory.namespace_quota == 100
        assert directory.tier_space_quota == {"SSD": MB}

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            ckpt.load_checkpoint({"version": 99})

    def test_checkpoint_is_json_compatible(self):
        import json

        snapshot = ckpt.write_checkpoint(populated_namespace())
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_quota_lowered_below_usage_loads(self):
        """Lowering a quota below usage is legal live (it only blocks
        growth), so the image of such a directory must load: quotas are
        set after the subtree they cover."""
        ns = Namespace()
        ns.mkdir("/q/x")
        ns.mkdir("/q/y")
        ns.set_quota("/q", namespace_quota=2)  # uses 3
        ns.set_quota("/", namespace_quota=1)
        snapshot = ckpt.write_checkpoint(ns)
        restored, _ = ckpt.load_checkpoint(snapshot)
        assert ckpt.write_checkpoint(restored) == snapshot
        assert restored.root.children["q"].subtree_inodes == 3


class TestBackupMaster:
    def test_hot_standby_tracks_primary(self):
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        client.mkdir("/live")
        client.write_file("/live/f", size=4 * MB)
        assert backup.image.exists("/live/f")
        assert backup.image.get_status("/live/f").length == 4 * MB == (
            fs.master.namespace.get_status("/live/f").length
        )

    def test_backup_catches_up_on_history(self):
        fs = OctopusFileSystem(small_cluster_spec())
        client = fs.client(on="worker1")
        client.mkdir("/before")
        backup = BackupMaster(fs.master)  # attached late
        assert backup.image.exists("/before")

    def test_standby_attached_after_truncation_starts_from_the_live_tree(self):
        """The log a late standby finds may be only the tail: it starts
        from an image of the primary, not from replaying what is left."""
        fs = OctopusFileSystem(small_cluster_spec())
        client = fs.client(on="worker1")
        client.mkdir("/a")
        client.write_file("/a/f", size=MB)
        log = fs.master.edit_log
        log.truncate_through(log.last_txid)
        client.mkdir("/b")
        backup = BackupMaster(fs.master)
        assert [s.path for s in backup.image.list_status("/")] == ["/a", "/b"]
        assert backup.applied_txid == log.last_txid
        client.write_file("/b/g", size=MB)
        assert ckpt.write_checkpoint(backup.image) == ckpt.write_checkpoint(
            fs.master.namespace
        )
        assert backup.create_checkpoint()["last_txid"] == log.last_txid
        backup.promote(fs)
        assert fs.master.namespace.get_file("/a/f").length == MB

    def test_periodic_checkpoints(self):
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        fs.client().mkdir("/x")
        snapshot = backup.create_checkpoint()
        assert snapshot["last_txid"] == backup.applied_txid
        assert backup.latest_checkpoint is snapshot

    def test_promote_preserves_data_access(self):
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        payload = b"failover" * 1000
        client.write_file("/crit", data=payload, rep_vector=3)
        old_master = fs.master
        backup.promote(fs)
        assert fs.master is not old_master
        # New clients read through the promoted master.
        assert fs.client(on="worker2").read_file("/crit") == payload

    def test_promote_rebuilds_block_map(self):
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        client.write_file("/blocks", size=12 * MB, rep_vector=2)
        backup.promote(fs)
        inode = fs.master.namespace.get_file("/blocks")
        assert len(inode.blocks) == 3
        for block in inode.blocks:
            assert len(fs.master.block_map[block.block_id].replicas) == 2

    def test_cold_restore_from_checkpoint_and_tail(self):
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        client.write_file("/early", data=b"a" * MB)
        backup.create_checkpoint()
        client.write_file("/late", data=b"b" * MB)  # after the checkpoint
        tail = fs.master.edit_log.records
        restore_master_from_checkpoint(fs, backup.latest_checkpoint, tail)
        assert fs.client(on="worker2").read_file("/early") == b"a" * MB
        assert fs.client(on="worker3").read_file("/late") == b"b" * MB

    def test_cold_restore_after_truncating_the_covered_log(self):
        """The sequence ``create_checkpoint`` invites: checkpoint, drop
        the covered records, keep writing, restore from both."""
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        client.write_file("/a", data=b"a" * MB)
        snapshot = backup.create_checkpoint()
        log = fs.master.edit_log
        log.truncate_through(snapshot["last_txid"])
        client.write_file("/b", data=b"b" * MB)
        client.write_file("/c", data=b"c" * MB)
        restore_master_from_checkpoint(
            fs, snapshot, log.since(snapshot["last_txid"])
        )
        for name in "abc":
            assert fs.client(on="worker2").read_file(f"/{name}") == (
                name.encode() * MB
            )
        check_system_invariants(fs)

    def test_cold_restore_keeps_the_deployments_policies(self):
        """Both recovery paths build the successor from the outgoing
        master: same policies, same heartbeat expiry."""
        for failover in ("promote", "cold_restore"):
            fs = build_deployment("hdfs", small_cluster_spec())
            fs.master.heartbeat_expiry = 7.5
            backup = BackupMaster(fs.master)
            fs.client(on="worker1").write_file("/f", size=MB)
            outgoing = fs.master
            if failover == "promote":
                backup.promote(fs)
            else:
                restore_master_from_checkpoint(
                    fs, backup.create_checkpoint(), []
                )
            assert fs.master is not outgoing
            assert fs.master.placement_policy is outgoing.placement_policy
            assert fs.master.retrieval_policy is outgoing.retrieval_policy
            assert isinstance(fs.master.placement_policy, OriginalHdfsPolicy)
            assert fs.master.heartbeat_expiry == 7.5

    def test_recovered_namespaces_equal_the_live_one_mtimes_included(self):
        """Edit records carry the time of the op, so a standby image, a
        full replay and checkpoint + tail all checkpoint identically to
        the primary — ``mtime`` of every inode included."""
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        client.write_file("/d/early", size=6 * MB)
        snapshot = backup.create_checkpoint()
        fs.engine.run(until=fs.engine.now + 100.0)
        client.mkdir("/d/sub")
        client.write_file("/d/late", data=b"x" * MB)
        client.rename("/d/early", "/d/sub/moved")
        client.set_replication("/d/late", ReplicationVector.of(hdd=2))
        client.write_file("/d/late", data=b"y" * (2 * MB), overwrite=True)
        client.rename("/d/sub/moved", "/archive")
        live = ckpt.write_checkpoint(fs.master.namespace)
        assert live["root"]["children"][0]["mtime"] > 0.0
        assert ckpt.write_checkpoint(backup.image) == live
        replayed = Namespace(tier_order=fs.master.namespace.tier_order)
        replay(fs.master.edit_log.records, replayed)
        assert ckpt.write_checkpoint(replayed) == live
        restore_master_from_checkpoint(fs, snapshot, fs.master.edit_log.records)
        assert ckpt.write_checkpoint(fs.master.namespace) == live

    def test_cold_restore_of_a_directory_over_its_quota(self):
        fs = OctopusFileSystem(small_cluster_spec())
        client = fs.client(on="worker1")
        client.write_file("/q/a", size=MB)
        client.write_file("/q/b", size=MB)
        client.set_quota("/q", namespace_quota=2)  # uses 3
        backup = BackupMaster(fs.master)
        live = ckpt.write_checkpoint(fs.master.namespace)
        restore_master_from_checkpoint(fs, backup.create_checkpoint(), [])
        assert ckpt.write_checkpoint(fs.master.namespace) == live
        assert fs.client(on="worker2").get_status("/q/b").length == MB
        check_system_invariants(fs)

    @pytest.mark.parametrize("failover", ["promote", "cold_restore"])
    def test_failover_rebuilds_quota_usage(self, failover, assert_usage_exact):
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        client.write_file("/q/blocks", size=12 * MB, rep_vector=2)
        before = dict(fs.master.namespace.get_file("/q/blocks").tier_bytes)
        if failover == "promote":
            backup.promote(fs)
        else:
            restore_master_from_checkpoint(
                fs, backup.create_checkpoint(), fs.master.edit_log.records
            )
        assert_usage_exact(fs, "/q/blocks")
        assert fs.master.namespace.get_file("/q/blocks").tier_bytes == before
        fs.await_replication()
        check_system_invariants(fs)

    def test_stale_replicas_dropped_on_restore(self):
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        client.write_file("/keep", size=4 * MB)
        snapshot = backup.create_checkpoint()
        client.write_file("/orphan", size=4 * MB)
        # Restore from a checkpoint that predates /orphan, with no tail:
        # its replicas are stale and must be wiped from workers.
        restore_master_from_checkpoint(fs, snapshot, [])
        assert not fs.master.namespace.exists("/orphan")
        for worker in fs.workers.values():
            for replica in worker.block_report():
                assert replica.block.block_id in fs.master.block_map

    def test_restore_predating_a_rename_keeps_the_data(self):
        """Replicas are matched by block id, so a stale image that still
        calls the file ``/old`` finds its blocks again."""
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        client.write_file("/old", data=b"x" * (6 * MB), rep_vector=2)
        snapshot = backup.create_checkpoint()
        client.rename("/old", "/new")
        restore_master_from_checkpoint(fs, snapshot, [])
        assert fs.client(on="worker2").read_file("/old") == b"x" * (6 * MB)
        assert sum(len(w.block_report()) for w in fs.workers.values()) == 4
        check_system_invariants(fs)

    def test_restore_predating_an_overwrite_serves_no_newer_bytes(self):
        """The image lists the *old* ``/keep``'s block ids; the new
        file's replicas are nobody's and must not be served under the
        old metadata. The old block is honestly lost."""
        fs = OctopusFileSystem(small_cluster_spec())
        backup = BackupMaster(fs.master)
        client = fs.client(on="worker1")
        client.write_file("/keep", data=b"a" * (4 * MB))
        (old_block,) = fs.master.namespace.get_file("/keep").blocks
        snapshot = backup.create_checkpoint()
        client.write_file("/keep", data=b"b" * (8 * MB), overwrite=True)
        restore_master_from_checkpoint(fs, snapshot, [])
        with pytest.raises(RetrievalError):
            fs.client(on="worker2").read_file("/keep")
        assert replication_violations(fs) == [
            f"/keep: block {old_block.block_id} missing from the block map"
        ]
        assert not any(w.block_report() for w in fs.workers.values())
        assert accounting_violations(fs) == []
