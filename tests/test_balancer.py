"""Tests for the tier-aware balancer."""

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.fs.balancer import Balancer, PlannedMove
from repro.fs.invariants import accounting_violations, check_system_invariants
from repro.util.units import MB


@pytest.fixture
def fs():
    return OctopusFileSystem(small_cluster_spec())


def skew_cluster(fs, files=10):
    """Write single-replica files all pinned to worker1's first HDD by
    temporarily failing the other media's nodes... simpler: place via a
    client colocated on worker1 with rep=1, which the MOOP policy keeps
    local; then verify skew exists."""
    client = fs.client(on="worker1")
    for index in range(files):
        client.write_file(
            f"/skew/f{index}", size=4 * MB,
            rep_vector=ReplicationVector.of(hdd=1),
        )
    return client


class TestAnalysis:
    def test_balanced_cluster_has_empty_plan(self, fs):
        balancer = Balancer(fs)
        assert balancer.plan() == []
        assert all(v == 0.0 for v in balancer.spread().values())

    def test_skew_detected(self, fs):
        skew_cluster(fs)
        balancer = Balancer(fs, threshold=0.001)
        spread = balancer.spread()
        assert spread["HDD"] > 0.0
        assert balancer.plan() != []

    def test_plan_respects_threshold(self, fs):
        skew_cluster(fs, files=2)
        # A huge threshold tolerates the skew: nothing to do.
        assert Balancer(fs, threshold=0.9).plan() == []

    def test_plan_never_colocates_replicas(self, fs):
        client = fs.client(on="worker1")
        client.write_file(
            "/multi", size=8 * MB, rep_vector=ReplicationVector.of(hdd=2)
        )
        balancer = Balancer(fs, threshold=0.0001)
        for move in balancer.plan():
            meta = fs.master.block_map[move.replica.block.block_id]
            nodes = {r.node for r in meta.live_replicas()}
            assert move.target.node not in nodes


class TestExecution:
    def test_run_reduces_spread(self, fs):
        skew_cluster(fs)
        balancer = Balancer(fs, threshold=0.002)
        before = balancer.spread()["HDD"]
        report = balancer.run()
        after = balancer.spread()["HDD"]
        assert report.moves_executed > 0
        assert report.bytes_moved > 0
        assert after < before

    def test_data_still_readable_after_balancing(self, fs):
        client = fs.client(on="worker1")
        payload = b"balance-me" * 100_000
        client.write_file(
            "/precious", data=payload, rep_vector=ReplicationVector.of(hdd=1)
        )
        skew_cluster(fs)
        Balancer(fs, threshold=0.002).run()
        assert fs.client(on="worker2").read_file("/precious") == payload

    def test_replica_counts_preserved(self, fs):
        skew_cluster(fs, files=6)
        Balancer(fs, threshold=0.002).run()
        for meta in fs.master.block_map.values():
            assert len(meta.live_replicas()) == meta.inode.rep_vector.total_replicas

    def test_moves_stay_within_tier(self, fs):
        skew_cluster(fs)
        balancer = Balancer(fs, threshold=0.002)
        moves = balancer.plan()
        assert moves
        for move in moves:
            assert move.target.tier_name == move.replica.tier_name

    def test_space_accounting_consistent_after_run(self, fs):
        skew_cluster(fs)
        Balancer(fs, threshold=0.002).run()
        for medium in fs.cluster.live_media():
            assert medium.reserved == 0
            assert 0 <= medium.used <= medium.capacity
        total_used = sum(m.used for m in fs.cluster.live_media())
        total_data = sum(
            meta.block.size * len(meta.live_replicas())
            for meta in fs.master.block_map.values()
        )
        assert total_used == total_data

    def test_quota_usage_follows_moves(self, fs, assert_usage_exact):
        skew_cluster(fs, files=1)
        client = fs.client(on="worker1")
        for index in range(9):  # the skew that makes /skew/f0 move
            client.write_file(
                f"/ballast/f{index}", size=4 * MB,
                rep_vector=ReplicationVector.of(hdd=1),
            )
        assert Balancer(fs, threshold=0.002).run().moves_executed > 0
        assert_usage_exact(fs, "/skew/f0")
        check_system_invariants(fs)

    def test_donor_trimmed_mid_move_is_not_refunded_twice(
        self, fs, assert_usage_exact
    ):
        client = fs.client(on="worker1")
        client.write_file(
            "/q/f", size=4 * MB, rep_vector=ReplicationVector.of(hdd=2)
        )
        inode = fs.master.namespace.get_file("/q/f")
        meta = fs.master.block_map[inode.blocks[0].block_id]
        donor = meta.replicas[0]
        occupied = {r.node for r in meta.replicas}
        target = next(
            m for m in fs.cluster.tier("HDD").live_media
            if m.node not in occupied
        )
        move = fs.engine.process(
            Balancer(fs)._move_proc(PlannedMove(donor, target))
        )
        # While the copy is in flight the vector shrinks and the
        # replication manager trims (and refunds) the donor itself.
        client.set_replication("/q/f", ReplicationVector.of(hdd=1))
        fs.master.check_replication()
        assert donor not in meta.replicas
        fs.engine.run(move)
        assert_usage_exact(fs, "/q/f")

    def test_files_deleted_mid_move_leave_nothing_behind(self, fs):
        client = skew_cluster(fs)
        balancer = Balancer(fs, threshold=0.002)
        moves = [
            fs.engine.process(balancer._move_proc(move))
            for move in balancer.plan()
        ]
        assert len(moves) > 1
        fs.engine.run(until=fs.engine.now + 1e-4)  # every copy in flight
        client.delete("/skew", recursive=True)
        assert fs.engine.run(fs.engine.all_of(moves)) == [0] * len(moves)
        assert accounting_violations(fs) == []
        assert not any(w.block_report() for w in fs.workers.values())

    def test_idempotent_once_balanced(self, fs):
        skew_cluster(fs)
        balancer = Balancer(fs, threshold=0.002)
        balancer.run()
        second = balancer.run()
        assert second.moves_executed <= 1  # effectively converged


class TestObservability:
    def test_moves_emit_spans_counters_and_ledger_records(self, fs):
        from repro.obs import ProvenanceLedger

        fs.obs.enable()
        ledger = ProvenanceLedger(fs.obs).attach()
        skew_cluster(fs)
        report = Balancer(fs, threshold=0.002).run()
        ledger.detach()
        assert report.moves_executed > 0
        spans = [
            r
            for r in fs.obs.tracer.records
            if r.get("name") == "balancer.move"
        ]
        assert len(spans) >= report.moves_executed
        moved = fs.obs.metrics.counter(
            "balancer_moves_total", tier="HDD"
        ).value
        assert moved == report.moves_executed
        assert (
            fs.obs.metrics.counter(
                "balancer_bytes_moved_total", tier="HDD"
            ).value
            == report.bytes_moved
        )
        records = [
            r for r in ledger.records if r["action"] == "balancer_move"
        ]
        assert len(records) == report.moves_executed
        for record in records:
            assert record["tier"] == "HDD"
            assert record["bytes"] > 0
            assert record["source"] != record["destination"]
            assert record["span_id"] is not None

    def test_report_data_is_json_shaped(self, fs):
        skew_cluster(fs)
        report = Balancer(fs, threshold=0.002).run()
        data = report.data()
        assert set(data) == {
            "iterations", "moves_executed", "bytes_moved", "final_spread",
        }
        assert data["moves_executed"] == report.moves_executed
        import json

        json.dumps(data)  # serializable

    def test_balancing_without_obs_is_silent(self, fs):
        skew_cluster(fs)
        report = Balancer(fs, threshold=0.002).run()
        assert report.moves_executed > 0
        assert fs.obs.tracer is None
