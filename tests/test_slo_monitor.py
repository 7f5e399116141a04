"""Tests for the online SLO monitor, registry watch hooks, and alerts.

Three layers:

* unit — objective/rule validation, the registry's watch hook on every
  instrument kind, and the burn-rate state machine driven by hand on an
  engine-less monitor (a fake clock plus manual ``tick()`` calls);
* differential — the subsystem's core safety claim, mirroring
  ``test_tiering_differential``: attaching a monitor whose rules never
  fire leaves the trace/metrics/Prometheus exports **byte-identical**
  to the same seeded run without the subsystem;
* integration — monitors riding along the DFSIO and shift workloads,
  and health checks live on a clean system.
"""

import pytest

from repro import OctopusFileSystem
from repro.cluster import small_cluster_spec
from repro.errors import ConfigurationError
from repro.obs import (
    AlertSink,
    AvailabilitySlo,
    BurnRateRule,
    HealthMonitor,
    LatencySlo,
    MetricsRegistry,
    Observability,
    SloMonitor,
    default_read_rules,
    metrics_json,
    prometheus_text,
    to_jsonl,
    validate,
)
from repro.util.units import MB
from repro.workloads.dfsio import Dfsio
from repro.workloads.shift import WorkloadShift


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Objectives and rules
# ----------------------------------------------------------------------
class TestDefinitions:
    def test_latency_slo_validation(self):
        with pytest.raises(ConfigurationError):
            LatencySlo("x", "m", threshold=0.0)
        with pytest.raises(ConfigurationError):
            LatencySlo("x", "m", threshold=1.0, target=1.0)
        assert LatencySlo("x", "m", 1.0, target=0.95).budget == pytest.approx(
            0.05
        )

    def test_availability_slo_validation(self):
        with pytest.raises(ConfigurationError):
            AvailabilitySlo("x", "good", "bad", target=0.0)
        slo = AvailabilitySlo("x", "good", "bad")
        assert slo.budget == pytest.approx(0.001)

    def test_rule_validation_and_names(self):
        slo = LatencySlo("lat", "m", 1.0)
        with pytest.raises(ConfigurationError):
            BurnRateRule(slo, threshold=0.0)
        with pytest.raises(ConfigurationError):
            BurnRateRule(slo, long_window=1.0, short_window=2.0)
        with pytest.raises(ConfigurationError):
            BurnRateRule(slo, min_samples=0)
        rule = BurnRateRule(slo, severity="ticket")
        assert rule.rule_name == "lat:burn:ticket"
        assert rule.clears_at == rule.threshold
        assert BurnRateRule(slo, clear_threshold=2.0).clears_at == 2.0
        assert BurnRateRule(slo, name="custom").rule_name == "custom"


# ----------------------------------------------------------------------
# Registry watch hooks
# ----------------------------------------------------------------------
class TestWatchHooks:
    def test_counter_watch_sees_increments(self):
        registry = MetricsRegistry()
        seen = []
        registry.watch("counter", "ops", lambda inst, v: seen.append(v))
        registry.counter("ops", op="a").inc(2)
        registry.counter("ops", op="b").inc()
        assert seen == [2, 1]

    def test_watch_attaches_to_existing_instruments(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        counter.inc()  # before the watch: unseen
        seen = []
        registry.watch("counter", "ops", lambda inst, v: seen.append(v))
        counter.inc(5)
        assert seen == [5]

    def test_histogram_watch_sees_observations(self):
        registry = MetricsRegistry()
        seen = []
        registry.watch(
            "histogram", "lat", lambda inst, v: seen.append((inst.labels, v))
        )
        registry.histogram("lat", tier="MEMORY").observe(0.25)
        assert len(seen) == 1
        labels, value = seen[0]
        assert value == 0.25
        assert ("tier", "MEMORY") in labels

    def test_gauge_and_timeseries_watch(self):
        """Only counters and histograms have watchers: watching a gauge
        or a time series is refused, and both still record."""
        registry = MetricsRegistry(lambda: 1.0)
        for kind in ("gauge", "timeseries"):
            with pytest.raises(ConfigurationError):
                registry.watch(kind, "g", lambda inst, v: None)
        gauge = registry.gauge("g")
        gauge.set(3.0)
        gauge.inc(2.0)
        assert gauge.value == 5.0
        registry.timeseries("g").sample(7.0)
        assert registry.timeseries("g").samples == [(1.0, 7.0)]
        assert not hasattr(gauge, "watchers")

    def test_unwatched_instruments_have_no_watchers(self):
        registry = MetricsRegistry()
        counter = registry.counter("quiet")
        assert counter.watchers is None


# ----------------------------------------------------------------------
# Empty-quantile consistency (regression audit)
# ----------------------------------------------------------------------
def test_empty_quantile_contract_is_uniform():
    """Histogram and the SLO window agree: empty data answers ``None``
    — callers need exactly one None-check idiom."""
    histogram = MetricsRegistry().histogram("h")
    assert histogram.quantile(0.5) is None
    assert histogram.quantiles() == {}
    clock = FakeClock()
    slo = LatencySlo("lat", "read_seconds", threshold=0.1, target=0.9)
    monitor, obs = manual_monitor(
        [BurnRateRule(slo, long_window=8.0, short_window=2.0)], clock
    )
    obs.metrics.histogram("read_seconds").observe(0.05)
    clock.now = 100.0  # the observation slid out of every window
    (entry,) = monitor.watch_summary()["slos"]
    assert entry["p99"] is None


# ----------------------------------------------------------------------
# The burn-rate state machine, driven by hand
# ----------------------------------------------------------------------
def manual_monitor(rules, clock, **kwargs):
    """An engine-less monitor over a standalone enabled obs bundle."""
    obs = Observability(clock=clock, enabled=True)
    monitor = SloMonitor(rules=rules, obs=obs, clock=clock, **kwargs)
    return monitor, obs


class TestStateMachine:
    def make(self, **rule_kwargs):
        clock = FakeClock()
        slo = AvailabilitySlo("avail", "good_total", "bad_total", target=0.9)
        defaults = dict(threshold=5.0, long_window=8.0, short_window=2.0)
        defaults.update(rule_kwargs)
        rule = BurnRateRule(slo, **defaults)
        monitor, obs = manual_monitor([rule], clock, interval=1.0)
        return clock, monitor, obs, rule

    def test_fires_only_when_both_windows_burn(self):
        clock, monitor, obs, rule = self.make()
        obs.metrics.counter("bad_total").inc(10)  # t=0: errors land
        clock.now = 1.0
        monitor.tick()
        assert monitor.firing() == ("avail:burn:page",)

        # Errors stop; the short window clears first and resolves it.
        clock.now = 4.0
        obs.metrics.counter("good_total").inc(100)
        monitor.tick()
        assert monitor.firing() == ()
        states = [r["state"] for r in monitor.sink.timeline]
        assert states == ["firing", "resolved"]
        assert validate("alerts", monitor.sink.timeline) == []

    def test_min_samples_gates_firing(self):
        clock, monitor, obs, rule = self.make(min_samples=50)
        obs.metrics.counter("bad_total").inc(10)
        clock.now = 1.0
        monitor.tick()
        assert monitor.firing() == ()  # significant sample not reached
        obs.metrics.counter("bad_total").inc(40)
        clock.now = 1.5
        monitor.tick()
        assert monitor.firing() == ("avail:burn:page",)

    def test_no_refire_while_firing(self):
        clock, monitor, obs, rule = self.make()
        obs.metrics.counter("bad_total").inc(10)
        for t in (1.0, 1.5, 2.0):
            clock.now = t
            monitor.tick()
        assert len(monitor.sink.timeline) == 1  # one transition only

    def test_groups_tracked_independently(self):
        clock = FakeClock()
        slo = LatencySlo(
            "lat", "read_seconds", threshold=0.1, target=0.9, group_by="tier"
        )
        rule = BurnRateRule(
            slo, threshold=5.0, long_window=8.0, short_window=2.0
        )
        monitor, obs = manual_monitor([rule], clock, interval=1.0)
        for _ in range(10):
            obs.metrics.histogram("read_seconds", tier="MEMORY").observe(0.01)
            obs.metrics.histogram("read_seconds", tier="HDD").observe(0.5)
        clock.now = 1.0
        monitor.tick()
        assert monitor.firing() == ("lat:burn:page/HDD",)
        burns = {
            entry["group"]: entry["burn_rates"]["lat:burn:page"]
            for entry in monitor.watch_summary()["slos"]
        }
        assert burns["HDD"] == pytest.approx(10.0)
        assert burns["MEMORY"] == 0.0

    def test_watch_summary_shape(self):
        clock, monitor, obs, rule = self.make()
        obs.metrics.counter("good_total").inc(9)
        obs.metrics.counter("bad_total").inc(1)
        clock.now = 1.0
        monitor.tick()
        summary = monitor.watch_summary()
        assert summary["ticks"] == 1
        assert summary["rules"] == 1
        (entry,) = summary["slos"]
        assert entry["slo"] == "avail"
        assert entry["events"] == 10
        assert entry["errors"] == 1
        assert entry["burn_rates"]["avail:burn:page"] == pytest.approx(1.0)
        assert "p99" not in entry  # availability SLOs hold no latencies

    def test_summary_counts_whole_events_for_every_kind_of_slo(self):
        """An availability SLO sums counter increments (floats by
        default), a latency SLO counts observations: both report ints."""
        clock = FakeClock()
        rules = [
            BurnRateRule(AvailabilitySlo("avail", "good_total", "bad_total", target=0.9),
                         long_window=8.0, short_window=2.0),
            BurnRateRule(LatencySlo("lat", "read_seconds", threshold=0.1, target=0.9),
                         long_window=8.0, short_window=2.0),
        ]
        monitor, obs = manual_monitor(rules, clock, interval=1.0)
        for value in (0.05, 0.5, 0.05):
            obs.metrics.counter("good_total").inc()
            obs.metrics.counter("bad_total").inc()
            obs.metrics.histogram("read_seconds").observe(value)
        counts = [
            (entry["slo"], entry["events"], entry["errors"])
            for entry in monitor.watch_summary()["slos"]
        ]
        assert counts == [("avail", 6, 3), ("lat", 3, 1)]
        assert {type(value) for _, *values in counts for value in values} == {int}

    def test_latency_summary_includes_p99(self):
        clock = FakeClock()
        slo = LatencySlo("lat", "read_seconds", threshold=0.1, target=0.9)
        monitor, obs = manual_monitor(
            [BurnRateRule(slo, long_window=8.0, short_window=2.0)],
            clock,
            interval=1.0,
        )
        obs.metrics.histogram("read_seconds").observe(0.05)
        summary = monitor.watch_summary()
        (entry,) = summary["slos"]
        assert entry["p99"] == 0.05
        assert entry["threshold"] == 0.1


# ----------------------------------------------------------------------
# Construction contracts
# ----------------------------------------------------------------------
class TestConstruction:
    def test_needs_system_or_obs(self):
        with pytest.raises(ConfigurationError):
            SloMonitor()

    def test_rules_require_enabled_observability(self):
        fs = OctopusFileSystem(small_cluster_spec(seed=0))
        rules = default_read_rules()
        with pytest.raises(ConfigurationError):
            SloMonitor(fs, rules=rules)

    def test_engineless_monitor_cannot_start(self):
        monitor, _ = manual_monitor([], FakeClock())
        with pytest.raises(ConfigurationError):
            monitor.start()

    def test_duplicate_rule_names_rejected(self):
        slo = LatencySlo("lat", "m", 1.0)
        with pytest.raises(ConfigurationError):
            manual_monitor(
                [BurnRateRule(slo), BurnRateRule(slo)], FakeClock()
            )

    def test_conflicting_slo_definitions_rejected(self):
        a = LatencySlo("lat", "m", 1.0)
        b = LatencySlo("lat", "m", 2.0)
        with pytest.raises(ConfigurationError):
            manual_monitor(
                [BurnRateRule(a), BurnRateRule(b, severity="ticket")],
                FakeClock(),
            )

    def test_double_start_rejected(self):
        fs = OctopusFileSystem(small_cluster_spec(seed=0))
        monitor = SloMonitor(fs).start()
        with pytest.raises(ConfigurationError):
            monitor.start()
        monitor.stop()
        monitor.stop()  # idempotent


# ----------------------------------------------------------------------
# AlertSink
# ----------------------------------------------------------------------
class TestAlertSink:
    def test_emit_mirrors_to_trace_and_metrics(self):
        obs = Observability(clock=FakeClock(2.5), enabled=True)
        sink = AlertSink(obs)
        sink.emit("slo", "r1", "firing", "page", group="HDD", slo="lat")
        (record,) = sink.timeline
        assert record["time"] == 2.5
        assert record["kind"] == "alert"
        events = [
            r for r in obs.tracer.records if r.get("name") == "slo.alert"
        ]
        assert len(events) == 1
        assert events[0]["attrs"]["state"] == "firing"
        assert "alerts_total" in metrics_json(obs.metrics)

    def test_firing_tracks_latest_state(self):
        sink = AlertSink(Observability())
        sink.emit("slo", "r1", "firing", "page", group="HDD")
        sink.emit("slo", "r2", "firing", "page")
        sink.emit("slo", "r1", "resolved", "page", group="HDD")
        assert sink.firing() == ["r2"]

    def test_validate_alert_records_catches_disorder(self):
        sink = AlertSink(Observability())
        sink.emit("slo", "r1", "firing", "page")
        good = validate("alerts", sink.timeline)
        assert good == []
        # A resolve with no prior fire is flagged.
        bad = [dict(sink.timeline[0], state="resolved")]
        assert validate("alerts", bad)


# ----------------------------------------------------------------------
# Differential: a quiet monitor changes nothing
# ----------------------------------------------------------------------
def _dfsio_exports(attach):
    """Seeded DFSIO run; ``attach(fs)`` may return monitors to ride it."""
    fs = OctopusFileSystem(small_cluster_spec(seed=3))
    fs.obs.enable()
    monitors = attach(fs) if attach else ()
    bench = Dfsio(fs, sample_interval=0.5, monitors=monitors)
    bench.write(24 * MB, parallelism=3)
    bench.read(parallelism=3)
    return (
        to_jsonl(fs.obs.tracer.records),
        metrics_json(fs.obs.metrics),
        prometheus_text(fs.obs.metrics),
        monitors,
    )


def _quiet_rules():
    """Rules no healthy run can trip (100% errors needed to burn 10x)."""
    return default_read_rules(
        latency_threshold=1e6, burn_threshold=1e3,
        long_window=0.5, short_window=0.1,
    )


class TestDifferential:
    def test_no_rules_monitor_is_byte_invisible(self):
        baseline = _dfsio_exports(None)
        with_monitor = _dfsio_exports(lambda fs: (SloMonitor(fs),))
        assert with_monitor[0] == baseline[0]
        assert with_monitor[1] == baseline[1]
        assert with_monitor[2] == baseline[2]

    def test_quiet_rules_monitor_is_byte_invisible(self):
        baseline = _dfsio_exports(None)
        # The sim phases are short (~0.06s write); intervals must be
        # finer for the periodic processes to provably interleave.
        with_monitor = _dfsio_exports(
            lambda fs: (
                SloMonitor(fs, rules=_quiet_rules(), interval=0.01),
                HealthMonitor(fs, interval=0.02),
            )
        )
        monitors = with_monitor[3]
        assert monitors[0].ticks > 0, "monitor never ticked"
        assert monitors[0].sink.timeline == []
        assert with_monitor[0] == baseline[0]
        assert with_monitor[1] == baseline[1]
        assert with_monitor[2] == baseline[2]

    def test_alert_timeline_is_deterministic(self):
        def run():
            return _dfsio_exports(
                lambda fs: (
                    SloMonitor(
                        fs,
                        rules=default_read_rules(
                            latency_threshold=1e-6,  # everything is slow
                            burn_threshold=1.0,
                            long_window=0.02,
                            short_window=0.005,
                        ),
                        interval=0.002,
                    ),
                )
            )

        first = run()
        second = run()
        timeline = first[3][0].sink.timeline
        assert timeline, "aggressive rules must fire on a busy run"
        assert validate("alerts", timeline) == []
        assert to_jsonl(timeline) == to_jsonl(second[3][0].sink.timeline)
        # The alert transitions also land in the trace export.
        assert '"slo.alert"' in first[0]
        assert first[0] == second[0]


# ----------------------------------------------------------------------
# Integration: workloads and health
# ----------------------------------------------------------------------
class TestIntegration:
    def test_shift_run_collects_alerts(self):
        fs = OctopusFileSystem(small_cluster_spec(seed=1))
        fs.obs.enable()
        shift = WorkloadShift(
            fs, files=4, file_size=2 * MB, phases=2, reads_per_phase=4
        )
        shift.setup()
        monitor = SloMonitor(
            fs,
            rules=default_read_rules(
                latency_threshold=1e-6, burn_threshold=1.0,
                long_window=2.0, short_window=0.5,
            ),
            interval=0.25,
        )
        health = HealthMonitor(fs, interval=1.0, sink=monitor.sink)
        result = shift.run(monitors=(monitor, health))
        assert not monitor.running and not health.running
        assert result.alerts is monitor.sink.timeline or result.alerts
        assert any(r["source"] == "slo" for r in result.alerts)
        # The clean system raises no invariant alerts.
        assert all(r["source"] != "health" for r in result.alerts)
        assert health.ticks > 0
        assert health.summary()["alerts_firing"] == []

    def test_health_monitor_clean_system_stays_silent(self):
        fs = OctopusFileSystem(small_cluster_spec(seed=0))
        fs.client().write_file("/f", size=2 * MB, overwrite=True)
        monitor = HealthMonitor(fs, interval=0.5).start()
        engine = fs.engine

        def idle():
            yield engine.timeout(3.0)

        engine.run(engine.process(idle(), name="idle"))
        monitor.stop()
        assert monitor.ticks >= 5
        assert monitor.sink.timeline == []
        assert monitor.firing() == ()

    def test_grace_ticks_validation(self):
        fs = OctopusFileSystem(small_cluster_spec(seed=0))
        with pytest.raises(ConfigurationError):
            HealthMonitor(fs, grace_ticks=0)
        with pytest.raises(ConfigurationError):
            HealthMonitor(fs, checks=())
        monitor = HealthMonitor(fs, grace_ticks={"replication": 4})
        assert monitor.grace_ticks["replication"] == 4
        assert monitor.grace_ticks["accounting"] == 1
