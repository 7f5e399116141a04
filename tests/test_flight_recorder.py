"""Flight recorder: windows, invisibility, and bundle dumps.

The recorder's contract has four legs, each pinned here:

* **invisibility** — attached but untriggered, it leaves the DFSIO and
  S-Live trace/metrics/Prometheus exports byte-identical to a
  recorder-less run (it only observes; it mints nothing);
* **windows, not copies** — a bundle's spans, events, faults and
  decisions are cut from the trace and the ledger, whole, in recorded
  order, and only from what was produced while the recorder was
  attached;
* **boundedness** — the rings of what nothing else keeps (metric
  deltas, health sweeps, alerts) respect their bounds no matter how
  much telemetry flows through (len + tracemalloc checks);
* **determinism** — a triggered dump is a pure function of the
  captured telemetry: identical feeds produce byte-identical gzip
  bundles.
"""

import ast
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

import repro

from repro import OctopusFileSystem
from repro.cluster import small_cluster_spec
from repro.errors import ConfigurationError
from repro.obs import (
    FlightRecorder,
    Observability,
    ProvenanceLedger,
    RecorderConfig,
    metrics_json,
    prometheus_text,
    read_bundle,
    to_jsonl,
    write_bundle,
)
from repro.obs.recorder import MAX_INCIDENTS, RING_LIMITS, is_heal
from repro.obs.slo import AlertSink
from repro.sim.faults import FaultRecord
from repro.util.units import MB
from repro.workloads.dfsio import Dfsio
from repro.workloads.slive import OctopusNamespaceAdapter, SLive


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def make_recorder(config=None, out_dir=None):
    clock = FakeClock()
    obs = Observability(clock=clock).enable()
    recorder = FlightRecorder(
        obs=obs, clock=clock, config=config, out_dir=out_dir
    ).attach()
    return obs, clock, recorder


# ----------------------------------------------------------------------
# Null path and lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_default_recorder_is_shared_null_singleton(self):
        """Nothing attached is an empty slot, on or off."""
        assert Observability().recorder is None
        assert Observability(enabled=True).recorder is None

    def test_requires_enabled_observability(self):
        with pytest.raises(ConfigurationError, match="enabled"):
            FlightRecorder(obs=Observability())

    def test_requires_system_or_obs(self):
        with pytest.raises(ConfigurationError, match="system"):
            FlightRecorder()

    def test_attach_hooks_and_detach_restores(self):
        obs, _, recorder = make_recorder()
        assert obs.recorder is recorder
        assert recorder.attached
        assert obs.metrics._watchers  # the watched read-path metrics
        recorder.detach()
        assert obs.recorder is None
        assert not recorder.attached
        recorder.detach()  # idempotent

    def test_double_attach_rejected(self):
        obs, clock, recorder = make_recorder()
        with pytest.raises(ConfigurationError, match="already attached"):
            recorder.attach()
        other = FlightRecorder(obs=obs, clock=clock)
        with pytest.raises(ConfigurationError, match="another"):
            other.attach()
        recorder.detach()
        other.attach()
        assert obs.recorder is other

    def test_disable_detaches_recorder(self):
        obs, _, recorder = make_recorder()
        obs.disable()
        assert obs.recorder is None
        assert not recorder.attached

    def test_span_ended_after_disable_misses_the_detached_recorder(self):
        """``disable()`` unhooks the recorder from the live tracer before
        dropping it, so a span that outlives the switch cannot reach the
        recorder (and, attached again, an incident window)."""
        obs, _, recorder = make_recorder()
        span = obs.tracer.start_span("client.read")
        obs.disable()
        span.end()
        obs.enable()
        recorder.attach()
        recorder.trigger("alert", "probe")
        recorder.flush()
        assert recorder.bundles[0]["spans"] == []

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="pre_roll"):
            RecorderConfig(pre_roll=-1.0)
        with pytest.raises(ConfigurationError, match="post_roll"):
            RecorderConfig(post_roll=-1.0)
        # The window is the only setting: bounds and triggers are fixed.
        with pytest.raises(TypeError):
            RecorderConfig(max_spans=0)

    def test_is_heal_classification(self):
        assert is_heal("restart")
        assert is_heal("repair_medium")
        assert not is_heal("crash")
        assert not is_heal("degrade_medium", "factor=0.02")
        assert is_heal("degrade_medium", "factor=1.0")
        assert is_heal("slow_node", "factor=2.5")
        assert not is_heal("degrade_medium", "factor=garbage")


# ----------------------------------------------------------------------
# Ingestion: windows of the trace and the ledger, rings of the rest
# ----------------------------------------------------------------------
def cut(recorder, clock, at=None):
    """Trigger, seal and return one bundle."""
    if at is not None:
        clock.now = at
    recorder.trigger("alert", "probe")
    recorder.flush()
    return recorder.bundles[-1]


class TestRings:
    def test_trace_records_routed_by_kind(self):
        obs, clock, recorder = make_recorder()
        span = obs.tracer.start_span("client.read", tier="memory")
        clock.now = 0.5
        span.end()
        obs.tracer.event("placement.decision")
        bundle = cut(recorder, clock)
        assert [s["name"] for s in bundle["spans"]] == ["client.read"]
        assert [e["name"] for e in bundle["events"]] == [
            "placement.decision"
        ]
        assert bundle["spans"][0] is obs.tracer.records[0]  # no copy

    def test_metric_watch_deltas_captured(self):
        obs, clock, recorder = make_recorder()
        clock.now = 1.5
        obs.metrics.histogram("tier_read_seconds", tier="hdd").observe(0.02)
        obs.metrics.counter("blocks_read_total", tier="hdd").inc()
        # An unwatched metric leaves no delta.
        obs.metrics.counter("bytes_written_total").inc(10)
        deltas = list(recorder.metric_deltas)
        assert [d["metric"] for d in deltas] == [
            "tier_read_seconds", "blocks_read_total"
        ]
        assert deltas[0] == {
            "time": 1.5,
            "kind": "histogram",
            "metric": "tier_read_seconds",
            "labels": {"tier": "hdd"},
            "value": 0.02,
        }

    def test_detached_recorder_ignores_watched_metrics(self):
        obs, _, recorder = make_recorder()
        recorder.detach()
        # The registry keeps the watcher, but it must go inert.
        obs.metrics.histogram("tier_read_seconds", tier="hdd").observe(0.02)
        assert len(recorder.metric_deltas) == 0

    def test_rings_stay_within_bounds(self):
        obs, clock, recorder = make_recorder()
        histogram = obs.metrics.histogram("tier_read_seconds", tier="hdd")
        sink = AlertSink(obs)
        feeds = RING_LIMITS["metric_deltas"]

        def feed(first):
            for i in range(first, first + feeds):
                clock.now = i * 0.01
                histogram.observe(0.001)
                recorder.on_health({"time": clock.now, "violations": {}})
                # Resolved only: a firing transition opens an incident.
                sink.emit("slo", "r", "resolved", "page")
                # The trace and the sink's timeline grow unboundedly by
                # design; drop them so the measurement sees only what
                # the *recorder* retains.
                obs.tracer.records.clear()
                sink.timeline.clear()

        tracemalloc.start()
        feed(0)  # fills every ring
        before, _ = tracemalloc.get_traced_memory()
        feed(feeds)
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert {
            "metric_deltas": len(recorder.metric_deltas),
            "health": len(recorder.health),
            "alerts": len(recorder.alerts),
        } == RING_LIMITS
        # Full rings must not grow under as many feeds again: allow
        # interpreter noise, far below what the feeds themselves hold.
        assert after - before < 1 * MB
        assert recorder.open_incident is None
        assert recorder.incidents == []

    def test_window_keeps_every_span_and_decision_it_covers(self):
        """A busy window is cut whole from the trace and the ledger: the
        bundle starts with the window's first span and decision, however
        many followed."""
        obs, clock, recorder = make_recorder(RecorderConfig(pre_roll=60.0))
        ledger = ProvenanceLedger(obs).attach()
        spans, decisions = 5000, 1500
        for i in range(spans):
            clock.now = i * 0.001
            obs.tracer.start_span("client.read", n=i).end()
        for i in range(decisions):
            ledger.on_delete(f"/d/{i}", blocks=1)
        bundle = cut(recorder, clock, at=10.0)
        assert len(bundle["spans"]) == spans
        assert bundle["spans"][0]["attrs"] == {"n": 0}
        assert len(bundle["decisions"]) == decisions
        assert bundle["decisions"][0]["path"] == "/d/0"

    def test_window_skips_what_preceded_the_attach(self):
        clock = FakeClock()
        obs = Observability(clock=clock).enable()
        ledger = ProvenanceLedger(obs).attach()
        obs.tracer.start_span("before").end()
        obs.tracer.event("fault.crash", target="w1", detail="")
        ledger.on_delete("/before", blocks=1)
        recorder = FlightRecorder(obs=obs, clock=clock).attach()
        obs.tracer.start_span("after").end()
        ledger.on_delete("/after", blocks=1)
        bundle = cut(recorder, clock)
        assert [s["name"] for s in bundle["spans"]] == ["after"]
        assert bundle["events"] == bundle["faults"] == []
        assert [d["path"] for d in bundle["decisions"]] == ["/after"]

    def test_faults_are_the_windows_fault_events(self):
        obs, clock, recorder = make_recorder()
        clock.now = 1.0
        obs.tracer.event("fault.slow_node", target="w1", detail="factor=0.5")
        obs.tracer.event("cache.hit")
        bundle = cut(recorder, clock)
        assert bundle["faults"] == [
            {"time": 1.0, "kind": "slow_node", "target": "w1",
             "detail": "factor=0.5"}
        ]
        assert [e["name"] for e in bundle["events"]] == [
            "fault.slow_node", "cache.hit"
        ]


# ----------------------------------------------------------------------
# Triggers and bundles
# ----------------------------------------------------------------------
def apply_fault(recorder, obs, record):
    """What the fault injector does per fault: a trace event, then the
    recorder's trigger feed."""
    obs.tracer.event(
        "fault." + record.kind, target=record.target, detail=record.detail
    )
    recorder.on_fault(record)


def feed_incident(recorder, obs, clock):
    """A canonical fault → alert → repair → resolve feed."""
    for i in range(6):
        clock.now = i * 0.5
        span = obs.tracer.start_span("client.read", tier="memory")
        clock.now += 0.1
        span.end()
        obs.metrics.histogram("tier_read_seconds", tier="memory").observe(
            0.003
        )
    clock.now = 4.0
    apply_fault(
        recorder, obs,
        FaultRecord(4.0, "degrade_medium", "worker1:memory0", "factor=0.02"),
    )
    clock.now = 4.2
    obs.metrics.histogram("tier_read_seconds", tier="memory").observe(0.4)
    sink = AlertSink(obs)
    clock.now = 4.5
    sink.emit("slo", "read-latency:burn:page", "firing", "page")
    clock.now = 5.0
    apply_fault(
        recorder, obs, FaultRecord(5.0, "repair_medium", "worker1:memory0")
    )
    clock.now = 5.5
    sink.emit("slo", "read-latency:burn:page", "resolved", "page")


class TestTriggers:
    def test_damaging_fault_opens_incident_heal_does_not(self):
        _, clock, recorder = make_recorder()
        clock.now = 1.0
        recorder.on_fault(FaultRecord(1.0, "restart", "worker1"))
        assert recorder.open_incident is None
        recorder.on_fault(FaultRecord(1.0, "crash", "worker1"))
        incident = recorder.open_incident
        assert incident is not None
        assert incident["triggers"][0]["reason"] == "fault"
        assert incident["deadline"] == 1.0 + recorder.config.post_roll

    def test_alert_firing_triggers_resolved_does_not(self):
        obs, clock, recorder = make_recorder()
        sink = AlertSink(obs)
        sink.emit("slo", "r", "resolved", "page")
        assert recorder.open_incident is None
        sink.emit("slo", "r", "firing", "page")
        assert recorder.open_incident is not None

    def test_health_alert_classified_as_health_trigger(self):
        obs, _, recorder = make_recorder()
        AlertSink(obs).emit("health", "invariant:accounting", "firing", "page")
        assert recorder.open_incident["triggers"][0]["reason"] == "health"

    def test_exception_records_synthetic_event_and_triggers(self):
        obs, clock, recorder = make_recorder()
        clock.now = 2.0
        obs.tracer.event("tier.round")
        recorder.on_exception("tiering-engine", ValueError("boom"))
        assert recorder.open_incident["triggers"][0]["reason"] == "exception"
        obs.tracer.event("tier.round")
        recorder.flush()
        events = recorder.bundles[0]["events"]
        # Merged into the trace's events where it was raised.
        assert [e["name"] for e in events] == [
            "tier.round", "recorder.exception", "tier.round"
        ]
        assert events[1]["attrs"] == {
            "component": "tiering-engine", "error": "ValueError"
        }
        # The recorder emits no trace record of its own.
        assert [r["name"] for r in obs.tracer.records] == [
            "tier.round", "tier.round"
        ]

    def test_extra_triggers_append_to_open_incident(self):
        obs, clock, recorder = make_recorder()
        clock.now = 1.0
        recorder.on_fault(FaultRecord(1.0, "crash", "worker1"))
        clock.now = 1.5
        AlertSink(obs).emit("slo", "r", "firing", "page")
        incident = recorder.open_incident
        assert [t["reason"] for t in incident["triggers"]] == [
            "fault", "alert"
        ]
        clock.now = 2.0
        recorder.flush()
        assert len(recorder.bundles) == 1
        assert len(recorder.bundles[0]["incident"]["triggers"]) == 2

    def test_max_incidents_drops_later_triggers(self):
        _, clock, recorder = make_recorder(RecorderConfig(post_roll=0.5))
        for i in range(MAX_INCIDENTS):
            clock.now = float(i)
            recorder.on_fault(FaultRecord(clock.now, "crash", "worker1"))
            recorder.flush()
        assert len(recorder.bundles) == MAX_INCIDENTS
        recorder.on_fault(FaultRecord(clock.now, "crash", "worker2"))
        assert recorder.open_incident is None
        assert recorder.dropped_triggers == 1

    def test_flush_without_open_incident_is_noop(self):
        _, _, recorder = make_recorder()
        recorder.flush()
        assert recorder.bundles == []


class TestBundles:
    def test_bundle_window_filters_prerolled_rings(self):
        config = RecorderConfig(pre_roll=2.0, post_roll=1.0)
        obs, clock, recorder = make_recorder(config)
        feed_incident(recorder, obs, clock)
        clock.now = 5.6
        recorder.flush()
        (bundle,) = recorder.bundles
        incident = bundle["incident"]
        assert incident["triggered_at"] == 4.0
        assert incident["window"] == [2.0, 5.6]
        # Spans starting before 2.0 fell outside the pre-roll.
        assert all(s["end"] >= 2.0 for s in bundle["spans"])
        assert any(s["start"] < 4.0 for s in bundle["spans"])
        assert [f["kind"] for f in bundle["faults"]] == [
            "degrade_medium", "repair_medium"
        ]
        assert [a["state"] for a in bundle["alerts"]] == [
            "firing", "resolved"
        ]
        assert all(
            2.0 <= d["time"] <= 5.6 for d in bundle["metric_deltas"]
        )
        assert bundle["context"]["ring_limits"] == RING_LIMITS

    def test_bundle_bytes_stable_across_identical_feeds(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            out = tmp_path / run
            obs, clock, recorder = make_recorder(out_dir=str(out))
            feed_incident(recorder, obs, clock)
            clock.now = 6.0
            recorder.detach()  # flushes
            (summary,) = recorder.incidents
            assert summary["path"] is not None
            paths.append(summary["path"])
        first, second = (open(p, "rb").read() for p in paths)
        assert first == second
        # And the gzip round-trips to the in-memory bundle.
        obs2, clock2, recorder2 = make_recorder()
        feed_incident(recorder2, obs2, clock2)
        clock2.now = 6.0
        recorder2.flush()
        assert read_bundle(paths[0]) == recorder2.bundles[0]

    def test_write_bundle_plain_and_gzip_agree(self, tmp_path):
        obs, clock, recorder = make_recorder()
        feed_incident(recorder, obs, clock)
        clock.now = 6.0
        recorder.flush()
        bundle = recorder.bundles[0]
        plain = tmp_path / "b.json"
        gzipped = tmp_path / "b.json.gz"
        write_bundle(bundle, str(plain))
        write_bundle(bundle, str(gzipped))
        assert read_bundle(str(plain)) == read_bundle(str(gzipped)) == bundle

    def test_engine_timer_closes_incident_mid_run(self):
        fs = OctopusFileSystem(small_cluster_spec(seed=0))
        fs.obs.enable()
        recorder = FlightRecorder(
            fs, config=RecorderConfig(post_roll=1.0)
        ).attach()
        engine = fs.engine

        def script():
            yield engine.timeout(2.0)
            fs.faults.degrade_medium("worker1:memory0", factor=0.5)
            yield engine.timeout(5.0)

        engine.run(engine.process(script(), name="script"))
        # Closed by the call_at timer at 3.0, not by flush at the end.
        (bundle,) = recorder.bundles
        assert bundle["incident"]["triggered_at"] == pytest.approx(2.0)
        assert bundle["incident"]["closed_at"] == pytest.approx(3.0)
        recorder.detach()
        assert len(recorder.bundles) == 1

    def test_process_crash_feeds_exception_trigger(self):
        fs = OctopusFileSystem(small_cluster_spec(seed=0))
        fs.obs.enable()
        recorder = FlightRecorder(fs).attach()
        engine = fs.engine

        def crasher():
            yield engine.timeout(1.0)
            raise RuntimeError("deliberate crash")

        crashed = engine.process(crasher(), name="crasher")
        engine.run()
        assert not crashed.ok
        recorder.flush()
        (bundle,) = recorder.bundles
        (trigger,) = bundle["incident"]["triggers"]
        assert trigger["reason"] == "exception"
        assert "process:crasher" in trigger["detail"]
        names = [e["name"] for e in bundle["events"]]
        assert "recorder.exception" in names
        recorder.detach()
        assert engine.crash_listeners == []


# ----------------------------------------------------------------------
# Differential invisibility
# ----------------------------------------------------------------------
def _dfsio_exports(with_recorder):
    fs = OctopusFileSystem(small_cluster_spec(seed=3))
    fs.obs.enable()
    recorder = FlightRecorder(fs).attach() if with_recorder else None
    bench = Dfsio(fs, sample_interval=0.5)
    bench.write(24 * MB, parallelism=3)
    bench.read(parallelism=3)
    if recorder is not None:
        assert recorder.bundles == []
        # It really was listening: a probe trigger cuts a full window.
        recorder.trigger("alert", "probe")
        recorder.detach()
        assert recorder.bundles[0]["spans"]
    return (
        to_jsonl(fs.obs.tracer.records),
        metrics_json(fs.obs.metrics),
        prometheus_text(fs.obs.metrics),
    )


def _slive_exports(with_recorder):
    obs = Observability(enabled=True)
    slive = SLive(ops_per_type=60, seed=1, obs=obs)
    recorder = (
        FlightRecorder(obs=slive.obs, clock=slive.obs.now).attach()
        if with_recorder
        else None
    )
    slive.run(OctopusNamespaceAdapter())
    if recorder is not None:
        recorder.detach()
        assert recorder.bundles == []
    return (
        to_jsonl(slive.obs.tracer.records),
        metrics_json(slive.obs.metrics),
        prometheus_text(slive.obs.metrics),
    )


class TestDifferential:
    def test_untriggered_recorder_is_byte_invisible_on_dfsio(self):
        assert _dfsio_exports(True) == _dfsio_exports(False)

    def test_untriggered_recorder_is_byte_invisible_on_slive(self):
        assert _slive_exports(True) == _slive_exports(False)


# ----------------------------------------------------------------------
# The copies stay deleted
# ----------------------------------------------------------------------
#: ``RecorderConfig`` fields that became module constants (ring bounds,
#: watched metrics, trigger selection, the incident cap).
DELETED_SETTINGS = (
    "max_spans", "max_events", "max_metric_deltas", "max_faults",
    "max_health", "max_alerts", "max_decisions", "watch_metrics",
    "triggers", "max_incidents",
)


def test_no_tracer_tap_and_no_deleted_recorder_settings():
    """Nothing under ``repro`` subscribes to the tracer, reads a deleted
    ``RecorderConfig`` field, or passes one."""
    assert {f.name for f in fields(RecorderConfig)} == {"pre_roll", "post_roll"}
    assert not hasattr(FlightRecorder, "ring_sizes")
    assert not hasattr(FlightRecorder, "dump")
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and (
                node.attr == "tap"
                or node.attr in DELETED_SETTINGS
                and isinstance(node.value, (ast.Attribute, ast.Name))
                and getattr(node.value, "attr", getattr(node.value, "id", ""))
                == "config"
            ):
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", ""))
                if name == "RecorderConfig":
                    offenders += [
                        f"{path.name}:{node.lineno} {k.arg}="
                        for k in node.keywords
                        if k.arg not in ("pre_roll", "post_roll")
                    ]
    assert not offenders, "\n".join(offenders)
