"""Decision provenance: the ledger, its invisibility, and ``explain``.

Mirrors the flight recorder's contract tests for the new stream:

* **invisibility** — attached but quiet (or busy), the ledger leaves
  the DFSIO and S-Live trace/metrics/Prometheus exports byte-identical
  to a ledger-less run: it is a pure observer that mints nothing;
* **determinism** — identically seeded runs export byte-identical
  JSONL(.gz) ledgers;
* **explainability** — on a seeded chaos + adaptive-tiering run,
  ``explain`` reconstructs the full decision chain for a replica
  promoted by the heat policy (tiering record with heat, round, and
  thresholds → CAS vector change → the repair placement that created
  it) and for a replica re-created by repair (with the triggering
  fault in its context), plus why-not score deltas for placements.
"""

import gzip

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.bench.tables import format_report
from repro.cluster import small_cluster_spec
from repro.errors import ConfigurationError, OctopusError
from repro.obs import (
    DECISION_ACTIONS,
    Observability,
    ProvenanceLedger,
    explain,
    metrics_json,
    prometheus_text,
    to_jsonl,
    validate,
)
from repro.obs.export import read_artifact
from repro.tier import DecayHeatPolicy, TieringEngine
from repro.util.units import MB
from repro.workloads.dfsio import Dfsio
from repro.workloads.slive import OctopusNamespaceAdapter, SLive


def make_ledger(**kwargs):
    obs = Observability(enabled=True)
    return obs, ProvenanceLedger(obs, **kwargs).attach()


# ----------------------------------------------------------------------
# Null path and lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_default_ledger_is_shared_null_singleton(self):
        """Nothing attached is an empty slot, on or off."""
        assert Observability().ledger is None
        assert Observability(enabled=True).ledger is None

    def test_requires_enabled_observability(self):
        with pytest.raises(ConfigurationError, match="enable"):
            ProvenanceLedger(Observability())

    def test_max_records_validated(self):
        with pytest.raises(ConfigurationError, match="max_records"):
            ProvenanceLedger(Observability(enabled=True), max_records=0)

    def test_attach_and_detach_restore_null(self):
        obs, ledger = make_ledger()
        assert obs.ledger is ledger
        assert ledger.attached
        ledger.detach()
        assert obs.ledger is None
        assert not ledger.attached
        ledger.detach()  # idempotent

    def test_double_attach_rejected(self):
        obs, ledger = make_ledger()
        with pytest.raises(ConfigurationError, match="already attached"):
            ledger.attach()
        other = ProvenanceLedger(obs)
        with pytest.raises(ConfigurationError, match="another"):
            other.attach()
        ledger.detach()
        other.attach()
        assert obs.ledger is other

    def test_disable_detaches_ledger(self):
        obs, ledger = make_ledger()
        obs.disable()
        assert obs.ledger is None
        assert not ledger.attached


# ----------------------------------------------------------------------
# Record shape, bounds, and validation
# ----------------------------------------------------------------------
class TestRecords:
    def test_set_replication_record_shape(self):
        obs, ledger = make_ledger()
        record = ledger.on_set_replication(
            "/f", old="<0,0,2,0,0>", new="<1,0,2,0,0>", cas=True
        )
        assert record["kind"] == "decision"
        assert record["action"] == "set_replication"
        assert record["seq"] == 1
        assert record["path"] == "/f"
        assert record["outcome"] == "applied"
        assert validate("ledger", [record]) == []

    def test_context_snapshot_is_bounded_and_copied(self):
        obs, ledger = make_ledger()
        for index in range(10):
            ledger.on_liveness(
                {"kind": "event", "name": "worker.dead", "time": 0.0,
                 "trace_id": None, "parent_id": None,
                 "attrs": {"worker": f"worker{index}"}}
            )
        context = ledger.recent_context()
        assert len(context) == 5  # _CONTEXT_DEPTH
        assert context[-1]["target"] == "worker9"
        context[-1]["target"] = "mutated"
        assert ledger.recent_context()[-1]["target"] == "worker9"

    def test_bounded_deque_counts_dropped(self):
        obs, ledger = make_ledger(max_records=3)
        for index in range(5):
            ledger.on_delete(f"/f{index}", blocks=1)
        assert len(ledger) == 3
        assert ledger.dropped == 2
        # Sequence numbers keep counting, so the gap is visible.
        assert [r["seq"] for r in ledger.records] == [3, 4, 5]

    def test_validator_flags_malformed_streams(self):
        assert validate("ledger", [{"kind": "mystery"}]) != []
        assert validate("ledger", [{"kind": "decision", "seq": 1}]) != []
        base = {
            "kind": "decision", "seq": 1, "time": 0.0,
            "action": "teleport", "path": "/f",
        }
        assert "unknown action" in validate("ledger", [base])[0]
        good = dict(base, action="delete", blocks=1)
        stale = dict(good, seq=1)
        problems = validate("ledger", [good, stale])
        assert any("does not increase" in p for p in problems)

    def test_every_action_has_required_keys_defined(self):
        obs, ledger = make_ledger()

        class Medium:
            medium_id = "w1:hdd0"
            tier_name = "HDD"

            class node:
                name = "w1"

        class Policy:
            name = "decay-heat"
            promote_heat = 2.0
            demote_heat = 0.5

        ledger.on_placement(
            "/f", block="/f#0", vector="<0,0,1,0,0>", cause="allocate",
            targets=[Medium()], decision=None,
        )
        rec = ledger.on_repair(
            "/f", block="/f#0", tier="HDD", source="w2:hdd0",
            destination="w1:hdd0", destination_tier="HDD",
            placement=None, context=[],
        )
        ledger.on_repair_outcome(rec, "completed")
        assert rec["outcome"] == "completed"
        ledger.on_tiering(
            "/f", kind="promote", tier="MEMORY", heat=2.5,
            outcome="applied", detail="", policy=Policy(), round_number=1,
        )
        ledger.on_set_replication("/f", old="a", new="b", cas=False)
        ledger.on_replica_removed(
            "/f", block="/f#0", medium="w1:hdd0", tier="HDD", cause="x"
        )
        ledger.on_delete("/f", blocks=1)
        assert sorted({r["action"] for r in ledger.records}) == sorted(
            DECISION_ACTIONS
        )
        assert validate("ledger", list(ledger.records)) == []

    def test_tiering_record_carries_policy_thresholds(self):
        obs, ledger = make_ledger()

        class Policy:
            name = "decay-heat"
            promote_heat = 2.0
            demote_heat = 0.5
            movement_budget = 4

        record = ledger.on_tiering(
            "/f", kind="promote", tier="MEMORY", heat=2.71828182,
            outcome="applied", detail="", policy=Policy(), round_number=3,
        )
        assert record["thresholds"] == {
            "promote_heat": 2.0, "demote_heat": 0.5, "movement_budget": 4,
        }
        assert record["heat"] == round(2.71828182, 6)
        assert record["policy"] == "decay-heat"
        assert record["round"] == 3


# ----------------------------------------------------------------------
# Export: schema header, gz round-trip, seed determinism
# ----------------------------------------------------------------------
class TestExport:
    def test_export_roundtrip_with_header(self, tmp_path):
        obs, ledger = make_ledger()
        ledger.on_delete("/f", blocks=2)
        out = tmp_path / "ledger.jsonl.gz"
        ledger.export(str(out))
        records = read_artifact(str(out))[1]
        assert len(records) == 1  # header stripped
        assert records[0]["action"] == "delete"
        assert validate("ledger", records) == []

    def test_identical_seeds_export_identical_bytes(self, tmp_path):
        paths = []
        for run in range(2):
            fs = OctopusFileSystem(small_cluster_spec(seed=7))
            fs.obs.enable()
            ledger = ProvenanceLedger(fs.obs).attach()
            bench = Dfsio(fs)
            bench.write(16 * MB, parallelism=2)
            ledger.detach()
            out = tmp_path / f"run{run}.jsonl.gz"
            ledger.export(str(out))
            paths.append(out)
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        # And it really recorded something.
        assert gzip.decompress(first).count(b'"placement"') > 0


# ----------------------------------------------------------------------
# Differential invisibility (same harness as the flight recorder's)
# ----------------------------------------------------------------------
def _dfsio_exports(with_ledger):
    fs = OctopusFileSystem(small_cluster_spec(seed=3))
    fs.obs.enable()
    ledger = ProvenanceLedger(fs.obs).attach() if with_ledger else None
    bench = Dfsio(fs, sample_interval=0.5)
    bench.write(24 * MB, parallelism=3)
    bench.read(parallelism=3)
    if ledger is not None:
        ledger.detach()
        assert len(ledger) > 0  # it really was listening
    return (
        to_jsonl(fs.obs.tracer.records),
        metrics_json(fs.obs.metrics),
        prometheus_text(fs.obs.metrics),
    )


def _slive_exports(with_ledger):
    obs = Observability(enabled=True)
    slive = SLive(ops_per_type=60, seed=1, obs=obs)
    ledger = ProvenanceLedger(slive.obs).attach() if with_ledger else None
    slive.run(OctopusNamespaceAdapter())
    if ledger is not None:
        ledger.detach()
    return (
        to_jsonl(slive.obs.tracer.records),
        metrics_json(slive.obs.metrics),
        prometheus_text(slive.obs.metrics),
    )


class TestDifferential:
    def test_busy_ledger_is_byte_invisible_on_dfsio(self):
        assert _dfsio_exports(True) == _dfsio_exports(False)

    def test_ledger_is_byte_invisible_on_slive(self):
        assert _slive_exports(True) == _slive_exports(False)


# ----------------------------------------------------------------------
# The acceptance scenario: chaos + adaptive tiering, then explain
# ----------------------------------------------------------------------
VECTORS = [
    ReplicationVector.of(hdd=2),
    ReplicationVector.of(ssd=1, hdd=1),
    ReplicationVector.of(memory=1, hdd=1),
    ReplicationVector.from_replication_factor(3),
]


def _chaos_tiering_ledger(seed=0, duration=30.0):
    """Seeded chaos with the adaptive engine live; returns the ledger."""
    fs = OctopusFileSystem(small_cluster_spec(seed=seed))
    fs.obs.enable()
    ledger = ProvenanceLedger(fs.obs).attach()
    client = fs.client(on="worker1")
    paths = []
    for index in range(4):
        path = f"/chaos/f{index}"
        client.write_file(
            path, size=4 * MB, rep_vector=VECTORS[index % len(VECTORS)]
        )
        paths.append(path)
    engine = TieringEngine(
        fs,
        policy=DecayHeatPolicy(
            promote_heat=1.5, demote_heat=0.5, movement_budget=2
        ),
        interval=4.0,
        half_life=10.0,
    ).start()

    def reader():
        index = 0
        while fs.engine.now < duration:
            path = paths[index % len(paths)]
            index += 1
            try:
                stream = client.open(path)
                yield from stream.read_proc(collect=False)
            except OctopusError:
                pass  # a fault ate the read; carry on
            yield fs.engine.timeout(1.0)

    fs.engine.process(reader(), name="heat-reader")
    fs.master.heartbeat_expiry = 6.0
    fs.start_services(heartbeat_interval=2.0, replication_interval=3.0)
    chaos = fs.faults.start_chaos(
        seed=seed, mean_interval=2.0, duration=duration, heal_delay=(1.0, 5.0)
    )
    fs.engine.run(until=chaos.process)
    fs.stop_services()
    engine.stop()
    fs.await_replication()
    ledger.detach()
    return fs, ledger


@pytest.fixture(scope="module")
def chaos_ledger():
    fs, ledger = _chaos_tiering_ledger(seed=0)
    return list(ledger.records)


class TestExplain:
    def test_chaos_ledger_validates(self, chaos_ledger):
        assert validate("ledger", chaos_ledger) == []

    def test_repairs_carry_triggering_context(self, chaos_ledger):
        repairs = [r for r in chaos_ledger if r["action"] == "repair"]
        assert repairs, "seed 0 must produce repairs"
        for repair in repairs:
            assert repair["context"], "repair recorded without context"
            kinds = {entry["kind"] for entry in repair["context"]}
            assert any(
                k.startswith(("fault.", "worker.")) for k in kinds
            )

    def test_promotion_chain_reconstructed(self, chaos_ledger):
        """A replica promoted by DecayHeatPolicy explains as
        tiering(heat, round, thresholds) -> vector CAS -> repair."""
        promoted_paths = {
            r["path"]
            for r in chaos_ledger
            if r["action"] == "tiering"
            and r["tiering_kind"] == "promote"
            and r["outcome"] == "applied"
        }
        assert promoted_paths, "seed 0 must promote something"
        full_chains = 0
        for path in sorted(promoted_paths):
            result = explain(chaos_ledger, path)
            for replica in result["replicas"]:
                actions = [link["action"] for link in replica["chain"]]
                if actions[:2] == ["tiering", "set_replication"] and (
                    "repair" in actions
                ):
                    full_chains += 1
                    tiering = next(
                        r
                        for r in chaos_ledger
                        if r["seq"] == replica["chain"][0]["seq"]
                    )
                    assert tiering["heat"] > 0
                    assert tiering["round"] >= 1
                    assert "promote_heat" in tiering["thresholds"]
        assert full_chains > 0, "no promote->vector->repair chain found"

    def test_repair_chain_names_the_fault(self, chaos_ledger):
        repair_paths = {
            r["path"] for r in chaos_ledger if r["action"] == "repair"
        }
        found = False
        for path in sorted(repair_paths):
            result = explain(chaos_ledger, path)
            for replica in result["replicas"]:
                if replica["created_by"] != "repair":
                    continue
                summary = replica["chain"][-1]["summary"]
                assert "triggered by" in summary
                found = True
        assert found

    def test_why_not_deltas_for_initial_placement(self, chaos_ledger):
        result = explain(chaos_ledger, "/chaos/f0")
        placements = [
            d for d in result["why_not"] if d["action"] == "placement"
        ]
        assert placements
        entries = placements[0]["entries"]
        assert entries
        for entry in entries:
            assert entry["options_considered"] >= 1
            if "best_rejected" in entry:
                # The solver minimizes; rejected is never strictly better.
                assert entry["delta"] >= 0

    def test_failed_repair_does_not_create_replica(self):
        obs, ledger = make_ledger()
        rec = ledger.on_repair(
            "/f", block="/f#0", tier=None, source="a", destination="b",
            destination_tier="HDD", placement=None, context=[],
        )
        ledger.on_repair_outcome(rec, "failed")
        result = explain(list(ledger.records), "/f")
        assert result["replicas"] == []
        assert len(result["timeline"]) == 1

    def test_explain_text_renders(self, chaos_ledger):
        text = format_report(explain(chaos_ledger, "/chaos/f0"))
        assert "/chaos/f0" in text
        assert "\nreplicas:\n" in text
        assert "\nwhy_not:\n" in text

    def test_explain_is_deterministic(self):
        first = _chaos_tiering_ledger(seed=42, duration=20.0)[1]
        second = _chaos_tiering_ledger(seed=42, duration=20.0)[1]
        strip = lambda rs: [dict(r) for r in rs]
        assert strip(first.records) == strip(second.records)
