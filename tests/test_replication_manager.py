"""Tests for replication management: §5 (repair, trims, vector changes)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.core.replication import analyze_block
from repro.errors import WorkerError
from repro.fs.invariants import accounting_violations, check_system_invariants
from repro.obs import ProvenanceLedger
from repro.util.units import MB


@pytest.fixture
def fs():
    return OctopusFileSystem(small_cluster_spec())


@pytest.fixture
def client(fs):
    return fs.client(on="worker1")


def tiers_of(fs, path):
    locs = fs.client().get_file_block_locations(path)
    return [sorted(loc.tiers) for loc in locs]


class TestAnalyzeBlock:
    """Pure analysis of vector-vs-replicas (no cluster needed)."""

    class FakeReplica:
        def __init__(self, tier):
            self.tier_name = tier

    def replicas(self, *tiers):
        return [self.FakeReplica(t) for t in tiers]

    def test_balanced(self):
        actions = analyze_block(
            ReplicationVector.of(memory=1, hdd=2),
            self.replicas("MEMORY", "HDD", "HDD"),
        )
        assert actions.balanced

    def test_explicit_deficit(self):
        actions = analyze_block(
            ReplicationVector.of(ssd=2), self.replicas("SSD")
        )
        assert actions.additions == ["SSD"]
        assert actions.removals == 0

    def test_u_deficit(self):
        actions = analyze_block(ReplicationVector.of(u=3), self.replicas("HDD"))
        assert actions.additions == [None, None]

    def test_surplus_fills_u_budget_first(self):
        # Vector <0,0,1,U=1>, replicas HDD+SSD: the SSD surplus covers U.
        actions = analyze_block(
            ReplicationVector.of(hdd=1, u=1), self.replicas("HDD", "SSD")
        )
        assert actions.balanced

    def test_pure_over_replication(self):
        actions = analyze_block(
            ReplicationVector.of(hdd=2), self.replicas("HDD", "HDD", "HDD")
        )
        assert actions.removals == 1
        assert actions.removable_tiers == {"HDD": 1}

    def test_move_appears_as_add_then_remove(self):
        # Vector changed <1,0,2> -> <1,1,1> with replicas M,H,H.
        actions = analyze_block(
            ReplicationVector.of(memory=1, ssd=1, hdd=1),
            self.replicas("MEMORY", "HDD", "HDD"),
        )
        assert actions.additions == ["SSD"]
        # The HDD surplus is also reported; the Master defers the removal
        # until the addition lands (copy-then-delete move semantics).
        assert actions.removals == 1
        assert actions.removable_tiers == {"HDD": 1}


    def test_additions_come_in_sorted_tier_order(self):
        # Not in the order of a set of tier names, which follows the
        # process's string hash seed.
        actions = analyze_block(
            ReplicationVector.of(memory=1, ssd=1, hdd=1, u=1),
            self.replicas("REMOTE"),
        )
        assert actions.additions == ["HDD", "MEMORY", "SSD"]


_TWO_TIERS_SHORT = """
import json
from repro import ReplicationVector
from repro.bench.deployments import build_deployment
from repro.fs.invariants import block_map_fingerprint
from repro.util.units import MB

fs = build_deployment("octopus", seed=0)
client = fs.client(on="worker1")
paths = [f"/f{i}" for i in range(8)]
for path in paths:
    client.write_file(path, size=64 * MB, rep_vector=ReplicationVector.of(hdd=3))
for path in paths:
    client.set_replication(path, ReplicationVector.of(memory=1, ssd=1, hdd=1))
fs.await_replication()
print(json.dumps(block_map_fingerprint(fs), sort_keys=True))
"""


def test_repair_order_does_not_follow_the_hash_seed():
    """Same seed, same bytes — in every process. Each block is short on
    two explicit tiers at once, and the shuffling MOOP policy draws from
    one rng stream, so the order the repairs are scheduled in decides
    where they land. (Hash seeds 0 and 1 disagreed before ``additions``
    was sorted.)"""
    layouts = []
    for hash_seed in ("0", "1"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=str(Path(repro.__file__).parent.parent),
        )
        layouts.append(
            subprocess.run(
                [sys.executable, "-c", _TWO_TIERS_SHORT],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            ).stdout
        )
    assert layouts[0] == layouts[1]
    assert "memory" in layouts[0]


class TestVectorChanges:
    def test_copy_to_tier_adds_replica(self, fs, client):
        client.write_file("/f", size=4 * MB, rep_vector=ReplicationVector.of(hdd=2))
        client.set_replication("/f", ReplicationVector.of(ssd=1, hdd=2))
        fs.await_replication()
        assert tiers_of(fs, "/f") == [["HDD", "HDD", "SSD"]]

    def test_move_to_tier_copies_then_deletes(self, fs, client):
        client.write_file(
            "/m", size=4 * MB, rep_vector=ReplicationVector.of(memory=1, hdd=2)
        )
        client.set_replication("/m", ReplicationVector.of(memory=1, ssd=1, hdd=1))
        fs.await_replication()
        assert tiers_of(fs, "/m") == [["HDD", "MEMORY", "SSD"]]

    def test_shrink_within_tier(self, fs, client):
        client.write_file("/s", size=4 * MB, rep_vector=ReplicationVector.of(hdd=3))
        client.set_replication("/s", ReplicationVector.of(hdd=1))
        fs.await_replication()
        assert tiers_of(fs, "/s") == [["HDD"]]

    def test_grow_within_tier(self, fs, client):
        client.write_file("/g", size=4 * MB, rep_vector=ReplicationVector.of(hdd=1))
        client.set_replication("/g", ReplicationVector.of(hdd=3))
        fs.await_replication()
        assert tiers_of(fs, "/g") == [["HDD", "HDD", "HDD"]]

    def test_delete_memory_replica(self, fs, client):
        client.write_file(
            "/dm", size=4 * MB, rep_vector=ReplicationVector.of(memory=1, hdd=2)
        )
        client.set_replication("/dm", ReplicationVector.of(hdd=2))
        fs.await_replication()
        assert tiers_of(fs, "/dm") == [["HDD", "HDD"]]

    def test_multi_block_file_converges(self, fs, client):
        client.write_file("/mb", size=12 * MB, rep_vector=ReplicationVector.of(hdd=2))
        client.set_replication("/mb", ReplicationVector.of(ssd=1, hdd=1))
        fs.await_replication()
        assert tiers_of(fs, "/mb") == [["HDD", "SSD"]] * 3

    def test_set_replication_is_asynchronous(self, fs, client):
        client.write_file("/as", size=4 * MB, rep_vector=ReplicationVector.of(hdd=1))
        delta = client.set_replication("/as", ReplicationVector.of(hdd=3))
        assert delta == {"HDD": 2}
        # Not converged yet: no replication pass has run.
        assert fs.master.pending_replication > 0

    def test_space_accounting_preserved_after_move(self, fs, client):
        client.write_file("/acc", size=4 * MB, rep_vector=ReplicationVector.of(hdd=3))
        client.set_replication("/acc", ReplicationVector.of(ssd=3))
        fs.await_replication()
        hdd_used = sum(
            m.used for m in fs.cluster.live_media() if m.tier_name == "HDD"
        )
        ssd_used = sum(
            m.used for m in fs.cluster.live_media() if m.tier_name == "SSD"
        )
        assert hdd_used == 0
        assert ssd_used == 3 * 4 * MB


class TestFailureRecovery:
    def test_worker_death_triggers_rereplication(self, fs, client):
        client.write_file("/hot", size=4 * MB, rep_vector=3)
        victim = fs.client().get_file_block_locations("/hot")[0].hosts[0]
        fs.faults.crash(victim)
        fs.await_replication()
        locs = fs.client().get_file_block_locations("/hot")
        assert len(locs[0].hosts) == 3
        assert victim not in locs[0].hosts

    def test_corrupt_replica_repaired(self, fs, client):
        client.write_file("/cr", data=b"k" * MB, rep_vector=3)
        loc = client.get_file_block_locations("/cr")[0]
        fs.workers[loc.hosts[0]].corrupt_replica(loc.block_id, loc.media[0])
        assert client.read_file("/cr") == b"k" * MB  # discovery via read
        fs.await_replication()
        new_loc = fs.client().get_file_block_locations("/cr")[0]
        assert len(new_loc.hosts) == 3
        # The corrupt copy was pruned; every surviving replica is clean
        # (re-placement may legitimately reuse the same medium with
        # data recopied from a clean source).
        meta = fs.master.block_map[loc.block_id]
        assert all(not r.corrupt and not r.damaged for r in meta.replicas)
        assert fs.client(on="worker2").read_file("/cr") == b"k" * MB

    def test_memory_replicas_lost_on_restart(self, fs, client):
        client.write_file(
            "/vol", size=4 * MB, rep_vector=ReplicationVector.of(memory=1, hdd=2)
        )
        host = next(
            h
            for h, t in zip(
                *[
                    client.get_file_block_locations("/vol")[0].hosts,
                    client.get_file_block_locations("/vol")[0].tiers,
                ][0:2]
            )
            if t == "MEMORY"
        )
        fs.faults.crash(host)
        fs.faults.restart(host)
        fs.await_replication()
        locs = fs.client().get_file_block_locations("/vol")
        assert sorted(locs[0].tiers) == ["HDD", "HDD", "MEMORY"]

    @pytest.mark.parametrize("repair_before_recovery", [True, False])
    def test_lost_memory_replica_is_refunded(
        self, fs, client, assert_usage_exact, repair_before_recovery
    ):
        vector = ReplicationVector.of(memory=1, hdd=2)
        client.write_file("/q/vol", size=4 * MB, rep_vector=vector)
        loc = client.get_file_block_locations("/q/vol")[0]
        host = loc.hosts[loc.tiers.index("MEMORY")]
        fs.faults.crash(host)
        if repair_before_recovery:
            fs.await_replication()  # the master prunes the dead replicas
        fs.faults.restart(host)  # else the restart drops the volatile one
        fs.await_replication()
        assert_usage_exact(fs, "/q/vol")
        assert fs.master.namespace.get_file("/q/vol").tier_bytes == {
            "MEMORY": 4 * MB, "HDD": 8 * MB,
        }

    def test_corrupt_replica_is_refunded(self, fs, client, assert_usage_exact):
        client.write_file("/q/cr", size=4 * MB, rep_vector=3)
        loc = client.get_file_block_locations("/q/cr")[0]
        fs.master.report_corrupt_replica(loc.block_id, loc.media[0])
        fs.await_replication()
        assert_usage_exact(fs, "/q/cr")
        usage = fs.master.namespace.get_file("/q/cr").tier_bytes
        assert sum(usage.values()) == 3 * 4 * MB

    def test_data_survives_single_failure(self, fs, client):
        payload = b"d" * (2 * MB)
        client.write_file("/safe", data=payload, rep_vector=3)
        victim = client.get_file_block_locations("/safe")[0].hosts[0]
        fs.faults.crash(victim)
        assert fs.client(on="worker2" if victim != "worker2" else "worker3").read_file("/safe") == payload

    def test_under_replication_with_no_source_is_deferred(self, fs, client):
        client.write_file("/lost", size=4 * MB, rep_vector=ReplicationVector.of(memory=1))
        host = client.get_file_block_locations("/lost")[0].hosts[0]
        fs.faults.crash(host)
        # Sole replica gone: the manager must not crash, just defer.
        procs = fs.master.check_replication()
        assert procs == []


class TestOpenFileRepair:
    def test_a_replica_lost_while_the_file_is_open_is_repaired_on_close(self):
        """A pass skips the blocks of an open file; closing the file
        queues them again, so the lost replica is replaced."""
        fs = OctopusFileSystem(small_cluster_spec(workers=6))
        stream = fs.client(on="worker1").create("/f", rep_vector=3)
        stream.write_size(4 * MB)  # block 0 is written, the file still open
        loc = fs.client().get_file_block_locations("/f")[0]
        fs.faults.crash(next(h for h in loc.hosts if h != "worker1"))
        assert fs.master.check_replication() == []
        stream.close()
        fs.await_replication()
        assert len(fs.master.block_map[loc.block_id].live_replicas()) == 3

    def test_a_deleted_open_file_leaves_nothing_queued(self):
        fs = OctopusFileSystem(small_cluster_spec(workers=6))
        stream = fs.client(on="worker1").create("/f", rep_vector=3)
        stream.write_size(4 * MB)
        loc = fs.client().get_file_block_locations("/f")[0]
        fs.faults.crash(next(h for h in loc.hosts if h != "worker1"))
        fs.master.check_replication()
        assert fs.master._skipped_open == {loc.block_id}
        fs.client().delete("/f")
        assert fs.master._skipped_open == set()
        assert fs.master.pending_replication == 0


def repaired_paths(fs, processes) -> list[str]:
    """The files whose blocks a pass's repair processes copy, in order,
    each once."""
    ids = dict.fromkeys(int(p.name.split(":")[1]) for p in processes)
    return [fs.master.block_map[i].path for i in ids]


class TestReplicationBudget:
    """A pass schedules copies for at most 2 blocks per reachable worker
    (HDFS's default per-iteration replication work)."""

    def test_a_pass_copies_the_most_endangered_blocks_up_to_the_budget(
        self, fs, client
    ):
        # 4 reachable workers: 8 blocks a pass. Six blocks hold one
        # replica, six hold two; all twelve now ask for three.
        for i in range(6):
            client.write_file(f"/one/{i}", size=MB, rep_vector=1)
            client.write_file(f"/two/{i}", size=MB, rep_vector=2)
        for i in range(6):
            client.set_replication(f"/one/{i}", 3)
            client.set_replication(f"/two/{i}", 3)
        first = fs.master.check_replication()
        assert repaired_paths(fs, first) == (
            [f"/one/{i}" for i in range(6)] + ["/two/0", "/two/1"]
        )
        assert len(first) == 6 * 2 + 2  # two copies per /one, one per /two
        assert fs.master.pending_replication == 4
        fs.engine.run(fs.engine.all_of(first))
        second = fs.master.check_replication()
        assert repaired_paths(fs, second) == [f"/two/{i}" for i in range(2, 6)]
        fs.engine.run(fs.engine.all_of(second))
        assert fs.master.check_replication() == []
        assert fs.master.pending_replication == 0
        for i in range(6):
            for path in (f"/one/{i}", f"/two/{i}"):
                assert len(fs.client().get_file_block_locations(path)[0].hosts) == 3

    def test_a_full_scan_takes_the_same_budget(self, fs, client):
        for i in range(10):
            client.write_file(f"/s/{i}", size=MB, rep_vector=1)
            client.set_replication(f"/s/{i}", 2)
        fs.master._dirty_blocks.clear()
        procs = fs.master.check_replication(full_scan=True)
        assert repaired_paths(fs, procs) == [f"/s/{i}" for i in range(8)]
        assert fs.master.pending_replication == 2

    def test_silencing_a_worker_lowers_the_budget(self):
        fs = OctopusFileSystem(small_cluster_spec(workers=6))
        client = fs.client(on="worker1")
        for i in range(20):
            client.write_file(f"/s/{i:02d}", size=MB, rep_vector=2)
        fs.faults.silence("worker6")
        fs.engine.run(until=fs.engine.now + fs.master.heartbeat_expiry + 1)
        for name, worker in fs.workers.items():
            if name != "worker6":
                fs.master.receive_heartbeat(worker.heartbeat())
        assert fs.master.check_worker_liveness() == ["worker6"]
        for i in range(20):
            client.set_replication(f"/s/{i:02d}", 3)
        procs = fs.master.check_replication()
        assert len(repaired_paths(fs, procs)) == 2 * 5
        assert fs.master.pending_replication == 20 - 2 * 5

    def test_balanced_and_trim_only_blocks_do_not_consume_it(self, fs, client):
        # Ten balanced and ten trim-only blocks sort ahead of the ten
        # that need a copy; the pass still copies eight of those.
        for i in range(10):
            client.write_file(f"/a-balanced/{i}", size=MB, rep_vector=1)
            client.write_file(f"/b-trim/{i}", size=MB, rep_vector=2)
            client.write_file(f"/c-grow/{i}", size=MB, rep_vector=2)
        for i in range(10):
            client.set_replication(f"/a-balanced/{i}", 1)
            client.set_replication(f"/b-trim/{i}", 1)
            client.set_replication(f"/c-grow/{i}", 3)
        procs = fs.master.check_replication()
        assert repaired_paths(fs, procs) == [f"/c-grow/{i}" for i in range(8)]
        assert fs.master.pending_replication == 2
        assert all(
            len(fs.client().get_file_block_locations(f"/b-trim/{i}")[0].hosts) == 1
            for i in range(10)
        )

    def test_await_replication_counts_only_passes_that_stall(self, fs, client):
        # 20 blocks at 8 a pass: three passes copy, a fourth finds the
        # queue empty. None of them stalls, so max_rounds=2 holds.
        for i in range(20):
            client.write_file(f"/w/{i:02d}", size=MB, rep_vector=1)
            client.set_replication(f"/w/{i:02d}", 2)
        assert fs.await_replication(max_rounds=2) == 4

    def test_await_replication_still_gives_up_on_a_stalled_queue(
        self, fs, client
    ):
        # Five SSD copies on a cluster with four SSDs: the fifth never
        # finds a target, and every pass after the first schedules
        # nothing while the block stays queued.
        client.write_file("/ssd", size=MB, rep_vector=1)
        client.set_replication("/ssd", ReplicationVector.of(ssd=5))
        with pytest.raises(WorkerError, match="3 passes scheduled nothing"):
            fs.await_replication(max_rounds=3)


class TestCopyOutlivesItsFile:
    @pytest.mark.parametrize("removal", ["delete", "overwrite"])
    def test_file_removed_during_repair(self, fs, client, removal):
        """The copy lands on a block record that is no longer mapped: the
        replica is dropped, not attached to a file that is gone."""
        fs.obs.enable()
        ledger = ProvenanceLedger(fs.obs).attach()
        client.write_file("/d/f", size=8 * MB, rep_vector=2)
        client.set_replication("/d/f", 3)
        assert len(fs.master.check_replication()) == 2
        fs.engine.run(until=fs.engine.now + 1e-4)  # both copies in flight
        if removal == "delete":
            client.delete("/d/f")
        else:
            client.write_file("/d/f", size=4 * MB, rep_vector=2, overwrite=True)
        fs.engine.run()
        assert accounting_violations(fs) == []
        on_workers = [r for w in fs.workers.values() for r in w.block_report()]
        assert len(on_workers) == (0 if removal == "delete" else 2)
        assert all(r.block.block_id in fs.master.block_map for r in on_workers)
        repairs = [r for r in ledger.records if r["action"] == "repair"]
        assert [r["outcome"] for r in repairs] == ["failed", "failed"]
        assert {r["block"] for r in repairs} == {"/d/f#0", "/d/f#1"}
        fs.await_replication()
        check_system_invariants(fs)


class TestServices:
    def test_background_services_converge_failures(self, fs, client):
        client.write_file("/auto", size=4 * MB, rep_vector=3)
        fs.start_services(heartbeat_interval=1.0, replication_interval=2.0)
        victim = client.get_file_block_locations("/auto")[0].hosts[0]
        fs.faults.crash(victim)
        fs.engine.run(until=fs.engine.now + 60.0)
        fs.stop_services()
        locs = fs.client().get_file_block_locations("/auto")
        assert len(locs[0].hosts) == 3
        assert victim not in locs[0].hosts

    def test_heartbeats_update_master_records(self, fs):
        fs.start_services(heartbeat_interval=1.0)
        fs.engine.run(until=5.0)
        fs.stop_services()
        for record in fs.master.workers.values():
            assert record.last_heartbeat >= 4.0


class TestReplicationEdgeCases:
    """Corner cases of the §5 analysis and removal-selection primitives."""

    class FakeReplica:
        def __init__(self, tier):
            self.tier_name = tier

    def replicas(self, *tiers):
        return [self.FakeReplica(t) for t in tiers]

    def test_over_tier_a_under_tier_b_same_block(self):
        # Vector <1,0,1> against replicas H,H,S: the memory slot is
        # missing while BOTH hdd and ssd run a surplus — the analysis
        # must report the addition and the removals simultaneously.
        actions = analyze_block(
            ReplicationVector.of(memory=1, hdd=1),
            self.replicas("HDD", "HDD", "SSD"),
        )
        assert actions.additions == ["MEMORY"]
        assert actions.removals == 2
        assert actions.removable_tiers == {"HDD": 1, "SSD": 1}
        assert actions.under_replicated and actions.over_replicated

    def test_zero_vector_tier_makes_every_copy_there_surplus(self):
        actions = analyze_block(
            ReplicationVector.of(hdd=2),
            self.replicas("MEMORY", "HDD", "HDD"),
        )
        assert actions.additions == []
        assert actions.removals == 1
        assert actions.removable_tiers == {"MEMORY": 1}

    def test_empty_replica_set_is_pure_deficit(self):
        actions = analyze_block(ReplicationVector.of(ssd=1, u=1), [])
        assert actions.additions == ["SSD", None]
        assert actions.removals == 0

    def test_remove_rejects_when_no_candidate_on_surplus_tier(self, fs, client):
        from repro.core.objectives import ObjectiveContext
        from repro.core.replication import choose_replica_to_remove
        from repro.errors import BlockError

        client.write_file(
            "/edge", size=4 * MB, rep_vector=ReplicationVector.of(ssd=1, hdd=1)
        )
        loc = client.get_file_block_locations("/edge")[0]
        meta = fs.master.block_map[loc.block_id]
        ctx = ObjectiveContext.from_cluster(fs.cluster, block_size=4 * MB)
        # Removal may only draw from MEMORY, where nothing lives — e.g.
        # all flagged copies died with their media between analysis and
        # execution.
        with pytest.raises(BlockError):
            choose_replica_to_remove(
                meta.live_replicas(), {"MEMORY": 1}, ctx
            )

    def test_surplus_on_failed_medium_resolves_by_pruning(self, fs, client):
        """Over-replication where the surplus copy sits on a failed
        medium: removal has no live candidate, but convergence must not
        crash — the dead replica is pruned instead."""
        client.write_file(
            "/prune", size=4 * MB, rep_vector=ReplicationVector.of(ssd=1, hdd=1)
        )
        loc = client.get_file_block_locations("/prune")[0]
        ssd_medium = next(m for m in loc.media if "ssd" in m)
        # The vector drops the SSD requirement (its copy becomes
        # surplus) just as the SSD device dies.
        client.set_replication("/prune", ReplicationVector.of(hdd=1))
        fs.faults.fail_medium(ssd_medium)
        fs.await_replication()
        meta = fs.master.block_map[loc.block_id]
        assert [r.tier_name for r in meta.live_replicas()] == ["HDD"]
        assert analyze_block(
            fs.master.namespace.get_file("/prune").rep_vector,
            meta.live_replicas(),
        ).balanced
