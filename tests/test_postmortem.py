"""Chaos postmortem: a scheduled degrade must yield a causal bundle.

The full forensics loop, end to end: the degrade fault triggers the
flight recorder, the engine timer seals the bundle mid-run, and the
postmortem analyzer rebuilds fault → deviation → alert → repair →
resolution from the bundle alone — byte-identically across runs — and
the ``repro postmortem`` CLI renders it in text, JSON, and Chrome
forms.
"""

import json
import os

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.bench.tables import format_report
from repro.cli import main
from repro.cluster import small_cluster_spec
from repro.obs import (
    ArtifactError,
    BurnRateRule,
    FlightRecorder,
    LatencySlo,
    RecorderConfig,
    SloMonitor,
    build_timeline,
    postmortem_report,
    validate,
    write_bundle,
)
from repro.obs.export import canonical_json, read_artifact
from repro.obs.postmortem import bundle_trace_records, causal_chain
from repro.util.units import MB

FAULT_AT = 3.0
REPAIR_AT = 6.0
#: Post-roll long enough to catch the repair (6.0) and the resolve
#: (~6.75) inside the incident window before the timer seals it at 9.0.
POST_ROLL = 6.0


def run_scenario(seed=0, out_dir=None):
    """The chaos-SLO degrade scenario with the flight recorder attached.

    Returns ``(fs, monitor, recorder, times)`` where ``times`` holds the
    sim-clock instants the fault and repair actually landed (the setup
    write consumes a little sim time before the degrader's timer starts).
    """
    fs = OctopusFileSystem(small_cluster_spec(seed=seed))
    fs.obs.enable()
    recorder = FlightRecorder(
        fs,
        config=RecorderConfig(pre_roll=30.0, post_roll=POST_ROLL),
        out_dir=out_dir,
    ).attach()
    fs.client(on="worker1").write_file(
        "/hot",
        size=4 * MB,
        rep_vector=ReplicationVector.of(memory=1, hdd=1),
        overwrite=True,
    )
    engine = fs.engine
    rule = BurnRateRule(
        LatencySlo(
            "read-latency", "tier_read_seconds", threshold=0.01, target=0.95
        ),
        threshold=4.0,
        long_window=2.0,
        short_window=0.5,
    )
    monitor = SloMonitor(fs, rules=[rule], interval=0.25)

    def reader():
        client = fs.client(on="worker2")
        for _ in range(200):
            stream = client.open("/hot")
            yield from stream.read_proc(collect=False)
            yield engine.timeout(0.05)

    times = {}

    def degrader():
        yield engine.timeout(FAULT_AT)
        fs.faults.degrade_medium("worker1:memory0", factor=0.02)
        times["fault"] = fs.obs.now()
        yield engine.timeout(REPAIR_AT - FAULT_AT)
        fs.faults.repair_medium("worker1:memory0")
        times["repair"] = fs.obs.now()

    monitor.start()
    done = engine.all_of(
        [
            engine.process(reader(), name="reader"),
            engine.process(degrader(), name="degrader"),
        ]
    )
    engine.run(done)
    monitor.stop()
    engine.run()
    recorder.detach()
    return fs, monitor, recorder, times


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    # CI points OCTOPUS_BUNDLE_DIR at a workspace path so bundles
    # survive as artifacts when an assertion below trips.
    out_dir = os.environ.get("OCTOPUS_BUNDLE_DIR") or str(
        tmp_path_factory.mktemp("bundles")
    )
    return (*run_scenario(out_dir=out_dir), out_dir)


def test_degrade_auto_dumps_exactly_one_bundle(scenario):
    _, _, recorder, times, _ = scenario
    (summary,) = recorder.incidents
    assert summary["path"] is not None
    assert summary["path"].endswith("incident-001.json.gz")
    # Sealed by the engine timer, not the end-of-run flush.
    assert summary["triggered_at"] == pytest.approx(times["fault"])
    assert summary["closed_at"] == pytest.approx(times["fault"] + POST_ROLL)
    assert recorder.dropped_triggers == 0


def test_bundle_validates_and_round_trips(scenario):
    _, _, recorder, times, _ = scenario
    bundle = read_artifact(recorder.incidents[0]["path"], "bundle")[1]
    assert bundle == recorder.bundles[0]
    assert validate("bundle", bundle) == []


def test_timeline_pairs_fault_alert_and_repair_in_order(scenario):
    _, monitor, recorder, times, _ = scenario
    timeline = build_timeline(recorder.bundles[0])
    kinds = [entry["type"] for entry in timeline]
    # Each causal stage appears, in order (ignoring interleaved extras).
    positions = [
        kinds.index(stage)
        for stage in ("fault", "deviation", "alert", "repair", "resolution")
    ]
    assert positions == sorted(positions)
    fault = next(e for e in timeline if e["type"] == "fault")
    alert = next(e for e in timeline if e["type"] == "alert")
    repair = next(e for e in timeline if e["type"] == "repair")
    assert fault["label"] == "degrade_medium"
    assert fault["time"] == pytest.approx(times["fault"])
    assert alert["label"] == "read-latency:burn:page"
    assert alert["time"] == pytest.approx(
        monitor.sink.timeline[0]["time"]
    )
    assert repair["label"] == "repair_medium"
    assert repair["time"] == pytest.approx(times["repair"])
    chain = causal_chain(timeline)
    assert chain["complete"]
    assert chain["detection_delay"] == pytest.approx(
        monitor.sink.timeline[0]["time"] - times["fault"]
    )


def test_deviation_names_the_watched_read_metric(scenario):
    _, _, recorder, times, _ = scenario
    timeline = build_timeline(recorder.bundles[0])
    deviation = next(e for e in timeline if e["type"] == "deviation")
    assert deviation["metric"] == "tier_read_seconds"
    assert deviation["time"] > times["fault"]
    assert deviation["value"] > 2.0 * deviation["baseline"]


def test_blast_radius_covers_degraded_reads(scenario):
    _, _, recorder, times, _ = scenario
    report = postmortem_report(recorder.bundles[0])
    radius = report["blast_radius"]
    lo, hi = radius["degraded_interval"]
    assert lo == pytest.approx(times["fault"])
    assert hi > times["repair"]
    assert radius["affected_requests"] > 0
    # Degraded reads fell back to the HDD replica.
    assert "HDD" in radius["tiers"]
    assert radius["workers"]  # the degraded worker shows up via faults
    assert "worker1" in radius["workers"]
    assert radius["tenants"] == []  # multi-tenancy is still future work
    paths = report["critical_paths"]
    assert paths
    assert all(p["duration"] > 0 for p in paths)
    assert report["problems"] == []


def test_bundle_and_postmortem_bytes_identical_across_runs(scenario, tmp_path):
    _, _, first, _, _ = scenario
    _, _, second, _ = run_scenario(out_dir=str(tmp_path))
    with open(first.incidents[0]["path"], "rb") as handle:
        first_bytes = handle.read()
    with open(second.incidents[0]["path"], "rb") as handle:
        second_bytes = handle.read()
    assert first_bytes == second_bytes
    assert canonical_json(first.bundles[0]) == canonical_json(second.bundles[0])


class TestCli:
    def test_text_rendering(self, scenario, capsys):
        _, _, recorder, times, _ = scenario
        assert main(["postmortem", recorder.incidents[0]["path"]]) == 0
        out = capsys.readouterr().out
        assert "incident:\n  id: 1\n" in out
        assert "fault" in out and "degrade_medium" in out
        assert "causal_chain:" in out and "  complete: True\n" in out
        assert "detection_delay:" in out
        assert "blast_radius:" in out

    def test_json_rendering(self, scenario, capsys):
        _, _, recorder, times, _ = scenario
        assert main(["postmortem", recorder.incidents[0]["path"],
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["causal_chain"]["complete"] is True
        assert report["incident"]["id"] == 1
        assert report == postmortem_report(
            read_artifact(recorder.incidents[0]["path"], "bundle")[1]
        )

    def test_chrome_rendering_has_incidents_lane(
        self, scenario, tmp_path, capsys
    ):
        _, _, recorder, times, _ = scenario
        chrome = tmp_path / "incident.chrome.json.gz"
        assert main(["postmortem", recorder.incidents[0]["path"],
                     "--chrome-out", str(chrome)]) == 0
        capsys.readouterr()
        document = read_artifact(str(chrome), "chrome")[1]
        assert validate("chrome", document) == []
        lanes = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "incidents" in lanes
        markers = [
            e for e in document["traceEvents"]
            if e["ph"] == "i" and e["name"].startswith("incident.")
        ]
        assert {m["name"] for m in markers} >= {
            "incident.fault", "incident.alert", "incident.repair",
            "incident.resolution",
        }

    def test_unreadable_bundle_is_a_clear_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json.gz"
        assert main(["postmortem", str(missing)]) == 1
        assert "cannot read bundle" in capsys.readouterr().err

    def test_wrong_kind_rejected(self, tmp_path, capsys):
        path = tmp_path / "not-a-bundle.json"
        path.write_text('{"kind": "something-else"}\n')
        assert main(["postmortem", str(path)]) == 1
        assert "incident_bundle" in capsys.readouterr().err


class TestBundleReaders:
    def test_newer_major_rejected_with_clear_error(self, scenario, tmp_path):
        _, _, recorder, times, _ = scenario
        bundle = dict(recorder.bundles[0])
        bundle["schema_version"] = "2.0"
        path = tmp_path / "future.json.gz"
        write_bundle(bundle, str(path))
        with pytest.raises(ArtifactError, match="newer than the supported"):
            read_artifact(str(path), "bundle")

    def test_validate_flags_out_of_window_records(self, scenario):
        _, _, recorder, times, _ = scenario
        bundle = json.loads(canonical_json(recorder.bundles[0]))
        bundle["faults"].append(
            {"time": 1e9, "kind": "crash", "target": "w9", "detail": ""}
        )
        problems = validate("bundle", bundle)
        assert any("outside the incident window" in p for p in problems)

    def test_chrome_records_include_captured_spans(self, scenario):
        _, _, recorder, times, _ = scenario
        bundle = recorder.bundles[0]
        records = bundle_trace_records(bundle)
        spans = [r for r in records if r.get("kind") == "span"]
        assert len(spans) == len(bundle["spans"])
        incident_events = [
            r for r in records
            if r.get("name", "").startswith("incident.")
        ]
        assert len(incident_events) == len(build_timeline(bundle))


# ----------------------------------------------------------------------
# Decisions in the blast radius (provenance ledger + recorder composed)
# ----------------------------------------------------------------------
def run_crash_scenario_with_ledger():
    """A crash-triggered incident whose window contains the repair
    decisions that healed it."""
    from repro.obs import ProvenanceLedger

    fs = OctopusFileSystem(small_cluster_spec(seed=1))
    fs.obs.enable()
    recorder = FlightRecorder(
        fs, config=RecorderConfig(pre_roll=30.0, post_roll=15.0)
    ).attach()
    ledger = ProvenanceLedger(fs.obs).attach()
    fs.client(on="worker1").write_file(
        "/crashy", size=4 * MB, rep_vector=ReplicationVector.of(hdd=2)
    )
    engine = fs.engine
    fs.master.heartbeat_expiry = 4.0
    fs.start_services(heartbeat_interval=1.0, replication_interval=1.0)
    victim = next(
        iter(fs.master.block_map.values())
    ).live_replicas()[0].node.name

    def crasher():
        yield engine.timeout(2.0)
        fs.faults.crash(victim)
        yield engine.timeout(10.0)
        fs.faults.restart(victim)
        yield engine.timeout(10.0)

    engine.run(engine.process(crasher(), name="crasher"))
    fs.stop_services()
    fs.await_replication()
    recorder.detach()
    ledger.detach()
    return fs, recorder, ledger


@pytest.fixture(scope="module")
def crash_bundle():
    fs, recorder, ledger = run_crash_scenario_with_ledger()
    assert recorder.bundles, "crash never triggered an incident"
    return recorder.bundles[0]


def test_bundle_carries_decisions_section(crash_bundle):
    assert "decisions" in crash_bundle
    assert validate("bundle", crash_bundle) == []
    actions = {r["action"] for r in crash_bundle["decisions"]}
    assert "repair" in actions


def test_blast_radius_decisions_in_report_and_text(crash_bundle):
    report = postmortem_report(crash_bundle)
    assert report["captured"]["decisions"] == len(crash_bundle["decisions"])
    repair_entries = [
        e for e in report["decisions"] if e["action"] == "repair"
    ]
    assert repair_entries
    for entry in repair_entries:
        assert "re-replicate" in entry["summary"]
        assert entry["incident"] == crash_bundle["incident"]["id"]
    text = format_report(report)
    assert "\ndecisions:\n" in text
    assert "re-replicate" in text


def test_pre_provenance_bundle_still_validates(scenario):
    """Bundles from ledger-less runs have no decisions section and must
    stay fully readable (the section is optional, not required)."""
    _, _, recorder, _, _ = scenario
    bundle = recorder.bundles[0]
    assert "decisions" not in bundle or bundle["decisions"] == []
    assert validate("bundle", bundle) == []
    report = postmortem_report(bundle)
    assert report["decisions"] == []
