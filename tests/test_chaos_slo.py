"""Chaos test: a degraded medium must trip the latency SLO, then clear.

The end-to-end detection story the observability stack promises:

1. a scheduled ``degrade`` fault slows the memory medium holding the
   hot file's fast replica, so the retrieval policy reroutes reads to
   the HDD replica — read latency jumps an order of magnitude;
2. the burn-rate rule fires within its documented detection bound
   (``short_window + tick interval``, plus one in-flight read);
3. after the medium is repaired, the alert resolves once the short
   window drains;
4. the whole timeline — alerts, trace events, detection pairing — is a
   pure function of the seed: two runs are byte-identical, and the
   gzip-compressed trace round-trips into the same analysis.
"""

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.obs import (
    BurnRateRule,
    HealthMonitor,
    LatencySlo,
    SloMonitor,
    Trace,
    alert_report,
    read_trace_file,
    to_jsonl,
    validate,
    write_jsonl,
)
from repro.util.units import MB

FAULT_AT = 3.0
REPAIR_AT = 6.0
INTERVAL = 0.25
SHORT_WINDOW = 0.5
#: One in-flight read (up to ~50ms HDD) plus think time can delay the
#: first bad observation past the fault instant.
READ_SLACK = 0.25


def run_scenario(seed=0):
    """The validated degrade → fire → repair → resolve scenario."""
    fs = OctopusFileSystem(small_cluster_spec(seed=seed))
    fs.obs.enable()
    fs.client(on="worker1").write_file(
        "/hot",
        size=4 * MB,
        rep_vector=ReplicationVector.of(memory=1, hdd=1),
        overwrite=True,
    )
    engine = fs.engine
    # Degrading memory reroutes reads to the HDD replica (22.6ms vs
    # 3.2ms), so the objective is ungrouped with the threshold between
    # the two tiers' block latencies.
    rule = BurnRateRule(
        LatencySlo(
            "read-latency", "tier_read_seconds", threshold=0.01, target=0.95
        ),
        threshold=4.0,
        long_window=2.0,
        short_window=SHORT_WINDOW,
    )
    monitor = SloMonitor(fs, rules=[rule], interval=INTERVAL)
    health = HealthMonitor(fs, interval=1.0, sink=monitor.sink)

    def reader():
        client = fs.client(on="worker2")
        for _ in range(200):
            stream = client.open("/hot")
            yield from stream.read_proc(collect=False)
            yield engine.timeout(0.05)

    def degrader():
        yield engine.timeout(FAULT_AT)
        fs.faults.degrade_medium("worker1:memory0", factor=0.02)
        yield engine.timeout(REPAIR_AT - FAULT_AT)
        fs.faults.repair_medium("worker1:memory0")

    monitor.start()
    health.start()
    done = engine.all_of(
        [
            engine.process(reader(), name="reader"),
            engine.process(degrader(), name="degrader"),
        ]
    )
    engine.run(done)
    monitor.stop()
    health.stop()
    engine.run()
    return fs, monitor


@pytest.fixture(scope="module")
def scenario():
    return run_scenario()


def test_burn_alert_fires_and_resolves(scenario):
    _, monitor = scenario
    states = [
        (r["name"], r["state"]) for r in monitor.sink.timeline
    ]
    assert states == [
        ("read-latency:burn:page", "firing"),
        ("read-latency:burn:page", "resolved"),
    ]
    assert monitor.firing() == ()
    assert validate("alerts", monitor.sink.timeline) == []


def test_detection_delay_is_bounded(scenario):
    _, monitor = scenario
    fired, resolved = monitor.sink.timeline
    delay = fired["time"] - FAULT_AT
    assert 0.0 < delay <= SHORT_WINDOW + INTERVAL + READ_SLACK
    assert resolved["time"] > REPAIR_AT
    # Firing details carry the evidence the operator needs.
    assert fired["details"]["burn_short"] >= fired["details"]["burn_threshold"]
    assert fired["details"]["short_window"] == SHORT_WINDOW


def test_health_checks_stay_clean_through_the_fault(scenario):
    _, monitor = scenario
    # Degrade slows a medium but corrupts nothing: no invariant alerts.
    assert all(r["source"] == "slo" for r in monitor.sink.timeline)


def test_timelines_are_byte_identical_across_runs(scenario):
    _, first = scenario
    _, second = run_scenario()
    assert to_jsonl(first.sink.timeline) == to_jsonl(second.sink.timeline)


def test_analyze_pairs_fault_with_alert(scenario):
    fs, monitor = scenario
    report = alert_report(Trace(list(fs.obs.tracer.records)))
    assert report["count"] == 2
    assert report["firing_at_end"] == []
    assert report["faults_seen"] == 2  # the degrade and its repair
    (detection,) = report["detections"]
    assert detection["alert"] == "read-latency:burn:page"
    assert detection["fault"] == "fault.degrade_medium"
    assert detection["fault_at"] == pytest.approx(FAULT_AT, abs=0.1)
    assert detection["detection_delay"] == pytest.approx(
        monitor.sink.timeline[0]["time"] - detection["fault_at"]
    )
    assert detection["time_to_clear"] is not None


def test_gzip_trace_round_trips_to_same_analysis(scenario, tmp_path):
    fs, _ = scenario
    records = list(fs.obs.tracer.records)
    plain = tmp_path / "trace.jsonl"
    gzipped = tmp_path / "trace.jsonl.gz"
    write_jsonl(records, str(plain))
    write_jsonl(records, str(gzipped))
    # Compressed output is smaller and byte-stable (mtime pinned).
    assert gzipped.stat().st_size < plain.stat().st_size
    write_jsonl(records, str(tmp_path / "again.jsonl.gz"))
    assert gzipped.read_bytes() == (tmp_path / "again.jsonl.gz").read_bytes()

    from_plain = read_trace_file(str(plain))
    from_gzip = read_trace_file(str(gzipped))
    assert from_gzip.records == from_plain.records
    assert alert_report(from_gzip) == alert_report(from_plain)


def test_gzip_metrics_round_trip(scenario, tmp_path):
    import gzip
    import json

    fs, _ = scenario
    from repro.obs import metrics_json, prometheus_text, write_metrics

    json_gz = tmp_path / "metrics.json.gz"
    prom_gz = tmp_path / "metrics.prom.gz"
    write_metrics(fs.obs.metrics, str(json_gz))
    write_metrics(fs.obs.metrics, str(prom_gz))
    with gzip.open(json_gz, "rt", encoding="utf-8") as handle:
        assert json.load(handle) == json.loads(metrics_json(fs.obs.metrics))
    with gzip.open(prom_gz, "rt", encoding="utf-8") as handle:
        assert handle.read() == prometheus_text(fs.obs.metrics)
