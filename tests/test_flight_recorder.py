"""Flight recorder: bounded capture, invisibility, and bundle dumps.

The recorder's contract has three legs, each pinned here:

* **invisibility** — attached but untriggered, it leaves the DFSIO and
  S-Live trace/metrics/Prometheus exports byte-identical to a
  recorder-less run (it only observes; it mints nothing);
* **boundedness** — every ring respects its configured maximum no
  matter how much telemetry flows through (len + tracemalloc checks);
* **determinism** — a triggered dump is a pure function of the
  captured telemetry: identical feeds produce byte-identical gzip
  bundles.
"""

import tracemalloc

import pytest

from repro import OctopusFileSystem
from repro.cluster import small_cluster_spec
from repro.errors import ConfigurationError
from repro.obs import (
    FlightRecorder,
    Observability,
    RecorderConfig,
    metrics_json,
    prometheus_text,
    read_bundle,
    to_jsonl,
    write_bundle,
)
from repro.obs.recorder import is_heal
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
        assert obs.tracer.tap is not None
        assert recorder.attached
        recorder.detach()
        assert obs.recorder is None
        assert obs.tracer.tap is None
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
        assert len(recorder.spans) == 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="pre_roll"):
            RecorderConfig(pre_roll=-1.0)
        with pytest.raises(ConfigurationError, match="max_spans"):
            RecorderConfig(max_spans=0)
        with pytest.raises(ConfigurationError, match="max_incidents"):
            RecorderConfig(max_incidents=0)
        with pytest.raises(ConfigurationError, match="trigger kinds"):
            RecorderConfig(triggers=("fault", "meteor"))

    def test_is_heal_classification(self):
        assert is_heal("restart")
        assert is_heal("repair_medium")
        assert not is_heal("crash")
        assert not is_heal("degrade_medium", "factor=0.02")
        assert is_heal("degrade_medium", "factor=1.0")
        assert is_heal("slow_node", "factor=2.5")
        assert not is_heal("degrade_medium", "factor=garbage")


# ----------------------------------------------------------------------
# Ingestion and ring bounds
# ----------------------------------------------------------------------
class TestRings:
    def test_trace_records_routed_by_kind(self):
        obs, clock, recorder = make_recorder()
        span = obs.tracer.start_span("client.read", tier="memory")
        clock.now = 0.5
        span.end()
        obs.tracer.event("placement.decision")
        assert len(recorder.spans) == 1
        assert len(recorder.events) == 1
        assert recorder.spans[0]["name"] == "client.read"

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
        config = RecorderConfig(
            max_spans=16, max_events=8, max_metric_deltas=32,
            max_faults=4, max_health=4, max_alerts=4,
            triggers=(),  # pure capture: no incidents in this test
        )
        obs, clock, recorder = make_recorder(config)
        histogram = obs.metrics.histogram("tier_read_seconds", tier="hdd")
        sink = AlertSink(obs)
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for i in range(5000):
            clock.now = i * 0.01
            span = obs.tracer.start_span("client.read")
            span.end()
            obs.tracer.event("cache.hit")
            histogram.observe(0.001)
            recorder.on_fault(
                FaultRecord(clock.now, "degrade_medium", "w1:m0", "factor=0.5")
            )
            recorder.on_health({"time": clock.now, "violations": {}})
            sink.emit("slo", "r", "firing" if i % 2 else "resolved", "page")
            # The tracer's record list and the sink's timeline grow
            # unboundedly by design; drop them so the measurement sees
            # only what the *recorder* retains.
            obs.tracer.records.clear()
            sink.timeline.clear()
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        sizes = recorder.ring_sizes()
        assert sizes == {
            "spans": 16, "events": 8, "metric_deltas": 32,
            "faults": 4, "health": 4, "alerts": 4, "decisions": 0,
        }
        # 5000 iterations × 6 feeds must not accumulate: allow the ring
        # contents plus interpreter noise, far below unbounded growth.
        assert after - before < 2 * MB
        assert recorder.open_incident is None
        assert recorder.incidents == []

    def test_dump_is_canonical_jsonl(self):
        obs, clock, recorder = make_recorder()
        span = obs.tracer.start_span("client.read")
        clock.now = 0.25
        span.end()
        dump = recorder.dump()
        assert dump.startswith('{"end":0.25')
        assert dump == recorder.dump()


# ----------------------------------------------------------------------
# Triggers and bundles
# ----------------------------------------------------------------------
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
    recorder.on_fault(
        FaultRecord(4.0, "degrade_medium", "worker1:memory0", "factor=0.02")
    )
    clock.now = 4.2
    obs.metrics.histogram("tier_read_seconds", tier="memory").observe(0.4)
    sink = AlertSink(obs)
    clock.now = 4.5
    sink.emit("slo", "read-latency:burn:page", "firing", "page")
    clock.now = 5.0
    recorder.on_fault(FaultRecord(5.0, "repair_medium", "worker1:memory0"))
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
        _, clock, recorder = make_recorder()
        clock.now = 2.0
        recorder.on_exception("tiering-engine", ValueError("boom"))
        (event,) = recorder.events
        assert event["name"] == "recorder.exception"
        assert event["attrs"] == {
            "component": "tiering-engine", "error": "ValueError"
        }
        assert recorder.open_incident["triggers"][0]["reason"] == "exception"

    def test_disabled_trigger_kinds_are_ignored(self):
        _, clock, recorder = make_recorder(
            RecorderConfig(triggers=("alert",))
        )
        recorder.on_fault(FaultRecord(0.0, "crash", "worker1"))
        recorder.on_exception("x", ValueError())
        assert recorder.open_incident is None
        # The fault is still *captured* — just not a trigger.
        assert len(recorder.faults) == 1

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
        _, clock, recorder = make_recorder(
            RecorderConfig(max_incidents=1, post_roll=0.5)
        )
        recorder.on_fault(FaultRecord(0.0, "crash", "worker1"))
        clock.now = 1.0
        recorder.flush()
        assert len(recorder.bundles) == 1
        recorder.on_fault(FaultRecord(1.0, "crash", "worker2"))
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
        assert bundle["context"]["ring_limits"]["spans"] == config.max_spans

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
        recorder.detach()
        assert recorder.bundles == []
        assert len(recorder.spans) > 0  # it really was listening
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
