"""Master/worker corner cases not covered by the main integration tests."""

import ast
from pathlib import Path

import pytest

import repro
from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import Cluster, small_cluster_spec
from repro.errors import BlockError, WorkerError
from repro.fs.worker import Worker
from repro.obs import ProvenanceLedger
from repro.util.units import MB


@pytest.fixture
def fs():
    return OctopusFileSystem(small_cluster_spec())


@pytest.fixture
def client(fs):
    return fs.client(on="worker1")


class TestWorkerCornerCases:
    def test_worker_requires_media(self, fs):
        master_node = fs.cluster.node("master")
        with pytest.raises(WorkerError):
            Worker(fs.cluster, master_node)

    def test_medium_lookup(self, fs):
        worker = fs.workers["worker1"]
        medium = worker.node.media[0]
        assert worker.medium(medium.medium_id) is medium
        with pytest.raises(WorkerError):
            worker.medium("worker9:ssd0")

    def test_duplicate_replica_rejected(self, fs, client):
        client.write_file("/f", size=MB, rep_vector=1)
        loc = client.get_file_block_locations("/f")[0]
        worker = fs.workers[loc.hosts[0]]
        replica = worker.read_replica(loc.block_id, loc.media[0])
        with pytest.raises(BlockError):
            worker.create_replica(replica.block, replica.medium, None)

    def test_corrupting_missing_replica_rejected(self, fs):
        worker = fs.workers["worker1"]
        with pytest.raises(BlockError):
            worker.corrupt_replica(424242, "worker1:ssd1")

    def test_heartbeat_payload(self, fs, client):
        client.write_file("/h", size=4 * MB, rep_vector=1)
        for worker in fs.workers.values():
            report = worker.heartbeat()
            assert report.node_name == worker.name
            assert set(report.media_remaining) == {
                m.medium_id for m in worker.node.media
            }

    def test_probe_within_jitter(self, fs):
        for worker in fs.workers.values():
            for probe in worker.probes:
                medium = worker.medium(probe.medium_id)
                assert probe.write_throughput == pytest.approx(
                    medium.write_throughput, rel=0.03
                )


def _rename_file(fs, client):
    client.write_file("/old/name", size=8 * MB, rep_vector=1)
    client.rename("/old/name", "/old/renamed")


def _rename_dir_beside_a_prefix_sibling(fs, client):
    client.write_file("/a/b/f", size=8 * MB, rep_vector=1)
    client.write_file("/a/cd/f", size=4 * MB, rep_vector=1)
    client.rename("/a/b", "/a/c")  # "/a/cd/f".startswith("/a/c")


def _concat_then_rename_the_target(fs, client):
    client.write_file("/t", size=4 * MB, rep_vector=1)
    client.write_file("/s", size=6 * MB, rep_vector=1)
    client.concat("/t", ["/s"])
    client.rename("/t", "/merged")


def _rename_then_repair_under_a_ledger(fs, client):
    fs.obs.enable()
    ledger = ProvenanceLedger(fs.obs).attach()
    client.write_file("/old/name", size=4 * MB, rep_vector=1)
    client.rename("/old/name", "/old/renamed")
    client.set_replication("/old/renamed", 2)
    fs.await_replication()
    (repair,) = [r for r in ledger.records if r["action"] == "repair"]
    assert (repair["path"], repair["block"]) == ("/old/renamed", "/old/renamed#0")
    assert repair["outcome"] == "completed"


class TestMasterCornerCases:
    @pytest.mark.parametrize(
        "scenario",
        [
            _rename_file,
            _rename_dir_beside_a_prefix_sibling,
            _concat_then_rename_the_target,
            _rename_then_repair_under_a_ledger,
        ],
    )
    def test_block_names_follow_the_namespace(self, fs, client, scenario):
        """A block's name is derived from its inode: nothing to refresh."""
        scenario(fs, client)
        files = list(fs.master.namespace.iter_files())
        assert sum(len(inode.blocks) for inode in files) == len(fs.master.block_map)
        for inode in files:
            for i, block in enumerate(inode.blocks):
                meta = fs.master.block_map[block.block_id]
                assert meta.inode is inode
                assert meta.label == f"{inode.path()}#{i}"

    def test_namespace_ops_do_not_walk_the_block_map(self, fs, client):
        class Unwalkable(dict):
            def _walked(self, *_args):
                raise AssertionError("a namespace op iterated the block map")

            __iter__ = values = items = keys = _walked

        client.write_file("/d/f", size=4 * MB, rep_vector=1)
        client.create("/d/open", rep_vector=1)  # left under construction
        fs.master.block_map = Unwalkable(fs.master.block_map)
        client.rename("/d", "/e")
        client.mkdir("/e/sub")
        assert client.get_status("/e/f").length == 4 * MB
        assert [s.path for s in client.list_status("/e")] == [
            "/e/f", "/e/open", "/e/sub",
        ]
        fs.master.complete_file("/e/open")
        assert not client.get_status("/e/open").under_construction

    def test_heartbeat_from_unknown_worker_rejected(self, fs):
        from repro.fs.worker import HeartbeatReport

        ghost = HeartbeatReport("worker42", 0.0, {}, {}, 0)
        with pytest.raises(WorkerError):
            fs.master.receive_heartbeat(ghost)

    def test_block_report_reconciles_unknown_replicas(self, fs, client):
        client.write_file("/known", size=MB, rep_vector=1)
        loc = client.get_file_block_locations("/known")[0]
        worker = fs.workers[loc.hosts[0]]
        meta = fs.master.block_map[loc.block_id]
        replica = meta.replicas[0]
        meta.replicas.clear()  # simulate master amnesia for this block
        assert fs.master.receive_block_report(worker) == 0
        assert replica in meta.replicas  # re-learned from the report

    def test_block_report_drops_stale_replicas(self, fs, client):
        client.write_file("/stale", size=MB, rep_vector=1)
        loc = client.get_file_block_locations("/stale")[0]
        worker = fs.workers[loc.hosts[0]]
        # The master forgets the whole block (e.g. deleted during an
        # outage); the worker's copy is then garbage.
        del fs.master.block_map[loc.block_id]
        dropped = fs.master.receive_block_report(worker)
        assert dropped == 1
        assert (loc.block_id, loc.media[0]) not in worker.replicas

    def test_commit_unknown_block_rejected(self, fs):
        from repro.fs.blocks import Block

        ghost = Block(0, MB)
        with pytest.raises(BlockError):
            fs.master.commit_block(ghost, MB, [])

    def test_worker_liveness_expiry(self, fs, client):
        fs.master.heartbeat_expiry = 5.0
        record = fs.master.workers["worker1"]
        record.last_heartbeat = -10.0  # ancient
        expired = fs.master.check_worker_liveness()
        assert "worker1" in expired
        # Heartbeat silence alone does not prove a crash: the worker is
        # declared silent (unreachable, data intact), not dead.
        assert record.silent and not record.dead
        assert not record.reachable
        assert not record.worker.node.failed

    def test_silent_worker_reconciles_instead_of_reregistering(self, fs, client):
        """Regression: silence and death are distinct states.

        A heartbeat-silent worker used to be marked ``node.failed``, so
        its later re-heartbeat looked like a fresh registration. Now the
        silent worker keeps its replicas and the re-heartbeat reconciles
        them (marking its blocks dirty for the replication manager).
        """
        client.write_file("/sil", size=MB, rep_vector=2)
        fs.master.heartbeat_expiry = 5.0
        record = fs.master.workers["worker1"]
        inventory_before = len(record.worker.block_report())
        record.last_heartbeat = -10.0
        fs.master.check_worker_liveness()
        assert record.silent and not record.dead
        # The silent worker's replicas were NOT pruned from its disk.
        assert len(record.worker.block_report()) == inventory_before
        # Re-heartbeat: reconciliation, not a fresh registration.
        fs.master._dirty_blocks.clear()
        fs.master.receive_heartbeat(record.worker.heartbeat())
        assert record.reachable and not record.silent
        assert not record.worker.node.unreachable
        # Its blocks were queued for revalidation.
        if inventory_before:
            assert fs.master.pending_replication > 0
        fs.await_replication()

    def test_crashed_node_still_declared_dead(self, fs, client):
        fs.cluster.fail_node("worker2")
        expired = fs.master.check_worker_liveness()
        assert "worker2" in expired
        record = fs.master.workers["worker2"]
        assert record.dead and not record.silent

    def test_pending_replication_counter(self, fs, client):
        client.write_file("/p", size=MB, rep_vector=ReplicationVector.of(hdd=1))
        assert fs.master.pending_replication >= 0
        client.set_replication("/p", ReplicationVector.of(hdd=2))
        assert fs.master.pending_replication >= 1
        fs.await_replication()
        assert fs.master.pending_replication == 0

    def test_full_scan_mode(self, fs, client):
        client.write_file("/scan", size=MB, rep_vector=2)
        fs.master._dirty_blocks.clear()
        # Full scan revisits every block even with an empty dirty set.
        procs = fs.master.check_replication(full_scan=True)
        assert procs == []  # nothing to fix, but it did not crash


class TestServiceLoops:
    def test_backup_checkpoint_loop(self, fs, client):
        from repro.fs.backup import BackupMaster

        backup = BackupMaster(fs.master)
        fs.start_services(heartbeat_interval=1.0, replication_interval=2.0)
        fs.engine.process(backup.checkpoint_loop(fs, interval=3.0))
        client.write_file("/periodic", size=MB)
        fs.engine.run(until=fs.engine.now + 10.0)
        fs.stop_services()
        assert backup.checkpoints  # at least one periodic checkpoint
        restored, _ = __import__(
            "repro.fs.checkpoint", fromlist=["load_checkpoint"]
        ).load_checkpoint(backup.latest_checkpoint)
        assert restored.exists("/periodic")

    def test_services_stop_cleanly(self, fs):
        fs.start_services()
        fs.stop_services()
        fs.engine.run(until=fs.engine.now + 30.0)  # loops exit; no hang

    def test_double_start_rejected(self, fs):
        from repro.errors import ConfigurationError

        fs.start_services()
        with pytest.raises(ConfigurationError):
            fs.start_services()
        fs.stop_services()


class TestReplicaLifecycleSeam:
    def test_only_the_master_touches_replica_bookkeeping(self):
        """``Master.attach_replica`` / ``detach_replica`` / ``mark_dirty``
        are the only way in: no other module edits ``meta.replicas``,
        reads the dirty set, deletes a replica behind the block map's
        back, or charges tier usage."""
        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            module = path.relative_to(root).as_posix()
            if module == "fs/master.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Attribute):
                    continue
                if node.attr in ("_dirty_blocks", "_delete_replica_from_worker"):
                    offenders.append(f"{module}:{node.lineno} {node.attr}")
                elif (
                    node.attr in ("append", "remove")
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "replicas"
                ):
                    offenders.append(f"{module}:{node.lineno} replicas.{node.attr}")
                elif node.attr == "charge_tier_space" and module not in (
                    "fs/namespace.py", "fs/inode.py",  # its definitions
                    # S-Live on a bare namespace: no Master, no block
                    # map, the adapter finalises the replicas itself.
                    "workloads/slive.py",
                ):
                    offenders.append(f"{module}:{node.lineno} {node.attr}")
        assert not offenders, "\n".join(offenders)

    def test_no_code_names_a_block_by_a_stored_path(self):
        """A block is its id; its ``path#index`` name is derived from the
        owning inode by ``BlockMeta.label``, so nothing under ``src/repro``
        reads or writes a ``file_path`` attribute."""
        root = Path(repro.__file__).parent
        offenders = [
            f"{path.relative_to(root).as_posix()}:{node.lineno}"
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "file_path"
        ]
        assert not offenders, "\n".join(offenders)


class TestHashSeedIndependence:
    def test_no_loop_runs_in_set_order(self):
        """Set order follows ``PYTHONHASHSEED``, so a loop over a set
        makes a seed mean different things in different processes
        (``analyze_block`` once scheduled repairs that way). In the
        layers that decide anything, no ``for`` or comprehension iterates
        directly over a set display, set comprehension, ``set(...)`` call
        or a ``|`` / ``&`` of those; ``sorted(...)`` around it is the
        accepted spelling."""

        def is_set(node):
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            if isinstance(node, ast.Call):
                return isinstance(node.func, ast.Name) and node.func.id == "set"
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd)
            ):
                return is_set(node.left) or is_set(node.right)
            return False

        root = Path(repro.__file__).parent
        offenders = []
        for layer in ("core", "fs", "sim", "tier", "cluster"):
            for path in sorted((root / layer).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    loops = (ast.For, ast.AsyncFor, ast.comprehension)
                    if isinstance(node, loops) and is_set(node.iter):
                        offenders.append(
                            f"{path.relative_to(root).as_posix()}:{node.iter.lineno}"
                        )
        assert not offenders, "\n".join(offenders)
