"""Tests for the observability layer (repro.obs).

Covers the metric instruments and registry, span/trace identity rules,
the exporters, the near-zero-cost disabled path, and the end-to-end
guarantees the layer makes: every block-transfer span links back to the
client operation that caused it (carrying the MOOP per-objective
scores), fault injections land in the same trace stream, and two
identically-seeded runs export byte-identical JSONL and metrics.
"""

import ast
import json
import os
import tracemalloc
from pathlib import Path

import pytest

import repro
import repro.obs
from repro import OctopusFileSystem, ReplicationVector
from repro.bench.deployments import build_deployment
from repro.cluster import small_cluster_spec
from repro.cluster.spec import paper_cluster_spec
from repro.errors import ConfigurationError
from repro.fs.client import Client
from repro.fs.invariants import check_system_invariants
from repro.obs import (
    ArtifactError,
    FlightRecorder,
    MetricsRegistry,
    Observability,
    ProvenanceLedger,
    Tracer,
    metrics_json,
    prometheus_text,
    to_jsonl,
    validate,
)
from repro.sim.faults import FaultInjector, FaultSchedule
from repro.tier import DecayHeatPolicy, TieringEngine
from repro.util.units import MB
from repro.workloads.dfsio import Dfsio


class FakeClock:
    """A settable clock standing in for ``engine.now``."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("ops_total").inc()
        reg.counter("ops_total").inc(2.5)
        assert reg.counter("ops_total").value == 3.5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("ops_total").inc(-1)

    def test_labels_partition_instruments(self):
        reg = MetricsRegistry()
        reg.counter("bytes_total", tier="SSD").inc(5)
        reg.counter("bytes_total", tier="HDD").inc(7)
        assert reg.counter("bytes_total", tier="SSD").value == 5
        assert reg.counter("bytes_total", tier="HDD").value == 7
        assert len(reg) == 2

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("x", tier="SSD", op="write")
        b = reg.counter("x", op="write", tier="SSD")
        assert a is b

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("active")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 3.0

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        assert hist.cumulative_buckets() == [
            (0.1, 1), (1.0, 3), (float("inf"), 4),
        ]
        assert hist.count == 4
        assert hist.total == pytest.approx(6.05)
        assert hist.mean == pytest.approx(6.05 / 4)
        assert (hist.min, hist.max) == (0.05, 5.0)

    def test_histogram_data_renders_inf_as_string(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(1.0,))
        hist.observe(2.0)
        assert hist.data()["buckets"][-1] == ["+Inf", 1]

    def test_histogram_quantile_interpolates_within_bucket(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        # Rank 2 of 4 falls halfway through the 2-count (1, 2] bucket.
        assert hist.quantile(0.5) == pytest.approx(1.5)
        assert hist.quantile(0.75) == pytest.approx(2.0)
        assert hist.quantile(0.0) == 0.5  # clamped to tracked min
        assert hist.quantile(1.0) == 3.0  # clamped to tracked max

    def test_histogram_quantile_empty_and_single_sample(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(1.0, 2.0))
        assert hist.quantile(0.5) is None
        assert hist.quantiles() == {}
        hist.observe(1.3)
        # A single sample is every quantile, despite bucket edges.
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 1.3

    def test_histogram_quantile_in_overflow_bucket_is_max(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(1.0,))
        hist.observe(5.0)
        hist.observe(9.0)
        assert hist.quantile(0.99) == 9.0

    def test_histogram_quantile_rejects_out_of_range(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)

    def test_histogram_data_includes_quantiles(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        data = hist.data()
        assert set(data["quantiles"]) == {"p50", "p90", "p99"}
        assert data["quantiles"]["p50"] <= data["quantiles"]["p99"]
        snap = reg.snapshot()
        assert snap["histograms"][0]["quantiles"] == data["quantiles"]

    def test_timeseries_stamps_with_sim_clock(self):
        clock = FakeClock()
        reg = MetricsRegistry(clock)
        series = reg.timeseries("util", resource="nic")
        series.sample(0.5)
        clock.now = 10.0
        series.sample(0.75)
        assert series.samples == [(0.0, 0.5), (10.0, 0.75)]
        assert series.last == 0.75

    def test_instruments_ordered_deterministically(self):
        reg = MetricsRegistry()
        reg.counter("z_total")
        reg.gauge("a_gauge")
        reg.counter("a_total", tier="SSD")
        names = [i.name for i in reg.instruments()]
        # sorted by (kind, name, labels): counters before gauges.
        assert names == ["a_total", "z_total", "a_gauge"]

    def test_snapshot_is_json_serializable(self):
        clock = FakeClock(3.0)
        reg = MetricsRegistry(clock)
        reg.counter("ops", op="write").inc()
        reg.histogram("lat").observe(0.2)
        reg.timeseries("util").sample(1.0)
        snap = reg.snapshot()
        assert snap["counters"][0]["labels"] == {"op": "write"}
        assert snap["histograms"][0]["count"] == 1
        assert snap["timeseriess"][0]["samples"] == [[3.0, 1.0]]
        # Round-trips through the canonical JSON renderer.
        assert metrics_json(reg).endswith("\n")


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_ids_are_sequential(self):
        tracer = Tracer()
        a = tracer.start_span("a")
        b = tracer.start_span("b", parent=a)
        assert (a.span_id, b.span_id) == (1, 2)

    def test_root_span_starts_its_own_trace(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        child = tracer.start_span("child", parent=root)
        grandchild = tracer.start_span("grandchild", parent=child)
        assert root.trace_id == root.span_id
        assert root.parent_id is None
        assert child.trace_id == root.trace_id
        assert grandchild.trace_id == root.trace_id
        assert grandchild.parent_id == child.span_id

    def test_use_sets_implicit_parent(self):
        tracer = Tracer()
        outer = tracer.start_span("outer")
        with tracer.use(outer):
            inner = tracer.start_span("inner")
        after = tracer.start_span("after")
        assert inner.parent_id == outer.span_id
        assert after.parent_id is None

    def test_records_appear_in_completion_order(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        first = tracer.start_span("first")
        second = tracer.start_span("second", parent=first)
        clock.now = 2.0
        second.end()
        clock.now = 5.0
        first.end()
        names = [r["name"] for r in tracer.records]
        assert names == ["second", "first"]
        assert tracer.records[0]["end"] == 2.0
        assert tracer.records[1] == {
            "kind": "span", "name": "first", "span_id": first.span_id,
            "trace_id": first.trace_id, "parent_id": None,
            "start": 0.0, "end": 5.0, "status": "ok",
        }

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("once")
        span.end()
        span.end("error")
        assert len(tracer.records) == 1
        assert tracer.records[0]["status"] == "ok"

    def test_span_event_parents_to_span(self):
        tracer = Tracer()
        span = tracer.start_span("op")
        span.event("checkpoint", detail="x")
        span.end()
        event = tracer.records[0]
        assert event["kind"] == "event"
        assert event["parent_id"] == span.span_id
        assert event["trace_id"] == span.trace_id
        assert event["attrs"] == {"detail": "x"}

    def test_orphan_event_has_null_parent(self):
        tracer = Tracer()
        tracer.event("standalone")
        assert tracer.records[0]["parent_id"] is None
        assert tracer.records[0]["trace_id"] is None

    def test_annotate_and_end_attrs_merge(self):
        tracer = Tracer()
        span = tracer.start_span("op", a=1)
        span.annotate(b=2)
        span.end("ok", c=3)
        assert tracer.records[0]["attrs"] == {"a": 1, "b": 2, "c": 3}


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_to_jsonl_is_canonical(self):
        text = to_jsonl([{"b": 1, "a": 2}])
        assert text == '{"a":2,"b":1}\n'

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("bytes_written_total", tier="SSD").inc(5)
        reg.histogram("lat", buckets=(0.005, 1.0)).observe(0.003)
        reg.gauge("workers_reachable").set(3)
        reg.timeseries("util", resource="nic").sample(0.5)
        text = prometheus_text(reg)
        assert "# TYPE bytes_written_total counter" in text
        assert 'bytes_written_total{tier="SSD"} 5' in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="0.005"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 0.003" in text
        assert "lat_count 1" in text
        assert "workers_reachable 3" in text
        # Time series expose their last sample as a gauge.
        assert "# TYPE util gauge" in text
        assert 'util{resource="nic"} 0.5' in text

    def test_validate_accepts_well_formed_stream(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        child = tracer.start_span("child", parent=root)
        child.event("tick")
        child.end()
        root.end()
        assert validate("trace", tracer.records) == []

    def test_validate_flags_missing_keys(self):
        problems = validate("trace", [{"kind": "span", "name": "x"}])
        assert len(problems) == 1
        assert "missing" in problems[0]

    def test_validate_flags_dangling_parent(self):
        record = {
            "kind": "span", "name": "x", "span_id": 2, "trace_id": 2,
            "parent_id": 99, "start": 0.0, "end": 1.0, "status": "ok",
        }
        problems = validate("trace", [record])
        assert any("parent_id 99" in p for p in problems)

    def test_validate_flags_negative_duration(self):
        record = {
            "kind": "span", "name": "x", "span_id": 1, "trace_id": 1,
            "parent_id": None, "start": 5.0, "end": 1.0, "status": "ok",
        }
        problems = validate("trace", [record])
        assert any("ends before" in p for p in problems)

    def test_validate_flags_unknown_kind(self):
        assert validate("trace", [{"kind": "blob"}])


# ----------------------------------------------------------------------
# The disabled path
# ----------------------------------------------------------------------
class TestDisabledPath:
    def test_disabled_by_default_with_shared_singletons(self):
        obs = Observability()
        assert not obs.enabled
        assert obs.metrics is None
        assert obs.tracer is None
        assert obs.recorder is None
        assert obs.ledger is None

    def test_enable_disable_roundtrip(self):
        obs = Observability(clock=FakeClock(2.0))
        obs.enable()
        assert obs.enabled
        obs.metrics.counter("x").inc()
        live = obs.metrics
        assert obs.enable().metrics is live  # idempotent
        obs.disable()
        assert obs.metrics is None
        assert obs.tracer is None
        assert obs.last_placement is None

    def test_disabled_workload_records_nothing(self):
        fs = OctopusFileSystem(small_cluster_spec())
        client = fs.client(on="worker1")
        client.write_file("/plain", size=8 * MB)
        with client.open("/plain") as stream:
            stream.read_size()
        assert fs.obs.metrics is None
        assert fs.obs.tracer is None
        # Flows never got spans attached.
        assert fs.cluster.flows.total_flows_started > 0

    def test_disabled_workload_allocates_nothing_in_obs(self):
        """The acceptance bar: observability off means no per-event
        allocations inside the obs package during a workload."""
        fs = OctopusFileSystem(small_cluster_spec())
        client = fs.client(on="worker1")
        obs_glob = os.path.join(os.path.dirname(repro.obs.__file__), "*")
        tracemalloc.start()
        try:
            client.write_file("/hot", size=8 * MB)
            with client.open("/hot") as stream:
                stream.read_size()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = snapshot.filter_traces(
            [tracemalloc.Filter(True, obs_glob)]
        ).statistics("filename")
        assert stats == [], [str(s) for s in stats]


# ----------------------------------------------------------------------
# One off switch: obs.enabled for tracer and metrics, an empty slot for
# the recorder and the ledger
# ----------------------------------------------------------------------
_OBSERVERS = ("tracer", "metrics", "recorder", "ledger")


def _holder(node) -> str | None:
    """The name an attribute is read from: ``x`` in ``x.y``, ``y`` in
    ``x.y.z``."""
    return getattr(node, "attr", getattr(node, "id", None))


class TestOneOffSwitch:
    def test_no_null_object_and_no_second_switch_under_src(self):
        """Off is ``obs.enabled`` for the tracer and the metrics and an
        empty slot for the recorder and the ledger: no ``Null*`` class
        or ``NULL_*`` singleton stands in for one, nothing probes a slot
        with ``getattr``, and nothing asks an observer if it is
        ``enabled``."""
        root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            module = path.relative_to(root).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                where = f"{module}:{getattr(node, 'lineno', '?')}"
                names: list = []
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                    if (
                        node.attr == "enabled"
                        and isinstance(node.ctx, ast.Load)
                        and _holder(node.value) in _OBSERVERS
                    ):
                        offenders.append(f"{where} {_holder(node.value)}.enabled")
                elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    names = [node.name]
                elif isinstance(node, ast.alias):
                    names = [node.name, node.asname]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = [node.value] if node.value.isidentifier() else []
                elif (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "getattr"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                ):
                    probed = node.args[1].value
                    if probed in ("recorder", "ledger") or (
                        probed == "enabled" and _holder(node.args[0]) in _OBSERVERS
                    ):
                        offenders.append(f"{where} getattr(..., {probed!r})")
                offenders.extend(
                    f"{where} {name}" for name in names
                    if name and name.startswith(("NULL_", "Null"))
                )
        assert not offenders, "\n".join(offenders)

    def test_on_with_nothing_attached_feeds_only_tracer_and_metrics(
        self, monkeypatch
    ):
        """Every decision site runs with observability on and both slots
        empty: faults, repair, a tiering round that loses its CAS, a
        vector change and a delete."""
        schedule = (
            FaultSchedule()
            .crash(at=20.0, node="worker2")
            .restart(at=40.0, node="worker2")
            .corrupt(at=50.0, path="/on/f0")
        )
        fs = OctopusFileSystem(small_cluster_spec(seed=4), faults=schedule)
        obs = fs.obs.enable()
        client = fs.client(on="worker1")
        for index in range(3):
            client.write_file(f"/on/f{index}", size=4 * MB, rep_vector=2)
        fs.engine.run(until=60.0)
        fs.await_replication()
        assert [r.kind for r in fs.faults.trace] == ["crash", "restart", "corrupt"]

        engine = TieringEngine(fs, policy=DecayHeatPolicy(promote_heat=2.0)).attach()
        client.write_file(
            "/on/raced", size=4 * MB, rep_vector=ReplicationVector.of(hdd=2)
        )
        for _ in range(4):
            client.open("/on/raced").read_size()
        set_replication = Client.set_replication

        def raced(self, path, vector, expected=None):
            # The application's change lands between the engine's read
            # and its write.
            monkeypatch.undo()
            set_replication(self, path, ReplicationVector.of(ssd=1, hdd=1))
            return set_replication(self, path, vector, expected=expected)

        monkeypatch.setattr(Client, "set_replication", raced)
        assert [d.outcome for d in engine.run_round()] == ["conflict"]
        fs.await_replication()
        engine.detach()

        assert client.delete("/on/f1") == 1
        fs.await_replication()
        check_system_invariants(fs)

        assert obs.recorder is None and obs.ledger is None
        names = {r["name"] for r in obs.tracer.records}
        assert {"fault.crash", "fault.corrupt", "master.repair", "tier.round"} <= names

    def test_disable_from_a_timer_with_spans_open(self, monkeypatch):
        """``disable()`` fired by the engine while a write, a read and a
        repair are mid-transfer: every process still
        completes, and nothing reaches the recorder once it is
        detached."""
        fs = OctopusFileSystem(small_cluster_spec(seed=6))
        obs = fs.obs.enable()
        recorder = FlightRecorder(fs).attach()
        ProvenanceLedger(obs).attach()
        client = fs.client(on="worker1")
        client.write_file(
            "/busy/read", size=16 * MB, rep_vector=ReplicationVector.of(hdd=2)
        )
        client.write_file("/busy/repair", size=4 * MB, rep_vector=2)
        started = []
        start_span = obs.tracer.start_span

        def recording_start_span(*args, **kwargs):
            started.append(start_span(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(obs.tracer, "start_span", recording_start_span)

        victim = next(
            r.node.name
            for r in fs.master.get_block_replicas("/busy/repair")[0]
            if r.node.name != "worker1"
        )
        fs.faults.crash(victim)
        repairs = fs.master.check_replication()
        assert repairs
        stream = client.create("/busy/write", rep_vector=ReplicationVector.of(hdd=2))

        def writer():
            yield from stream.write_size_proc(16 * MB)
            yield from stream.close_proc()

        procs = [
            fs.engine.process(writer()),
            fs.engine.process(client.open("/busy/read").read_proc(collect=False)),
        ]
        open_at_disable: set = set()

        def switch_off():
            open_at_disable.update(s.name for s in started if not s._done)
            obs.disable()

        fs.engine.call_at(fs.engine.now + 0.001, switch_off)
        fs.engine.run(fs.engine.all_of(procs + repairs))

        assert {
            "client.write_block", "client.read_block", "master.repair",
        } <= open_at_disable
        assert all(proc.ok for proc in procs + repairs)
        assert obs.tracer is None and obs.recorder is None
        # Attached again, the recorder's window holds none of the spans
        # that ended after the switch.
        obs.enable()
        recorder.attach()
        recorder.trigger("alert", "probe")
        recorder.detach()
        assert recorder.bundles[-1]["spans"] == []

    def test_span_across_a_disable_enable_cycle_counts_beside_its_trace(self):
        """A one-block read whose span opens before a ``disable()`` /
        ``enable()`` cycle and ends after it: the span holds the tracer
        it was opened on, so its metrics land in that tracer's registry
        beside its trace record, and the new registry counts nothing of
        a read that is in none of its traces."""
        fs = OctopusFileSystem(small_cluster_spec(seed=6))
        obs = fs.obs.enable()
        client = fs.client(on="worker1")
        client.write_file(
            "/cycle", size=4 * MB, rep_vector=ReplicationVector.of(hdd=2)
        )
        tracer, metrics = obs.tracer, obs.metrics
        reader = fs.engine.process(
            client.open("/cycle").read_proc(collect=False)
        )

        def cycle():
            obs.disable()
            obs.enable()

        fs.engine.call_at(fs.engine.now + 0.001, cycle)
        fs.engine.run(reader)

        assert reader.ok and obs.metrics is not metrics
        read = [r for r in tracer.records if r["name"] == "client.read_block"]
        assert [r["status"] for r in read] == ["ok"]
        assert metrics.find("counter", "blocks_read_total").value == 1
        # The write's pipeline and the read.
        assert metrics.find("counter", "flows_completed_total").value == 2
        assert obs.tracer.records == []
        derived = {
            "blocks_read_total", "bytes_read_total", "tier_read_hits_total",
            "block_read_seconds", "tier_read_seconds",
            "flows_completed_total", "flow_bytes_total",
        }
        assert not derived & {i.name for i in obs.metrics.instruments()}

    def test_attach_after_disable_rejected_before_taking_the_slot(self):
        """An observer built while observability was on cannot attach
        once it is off: attach raises and leaves both slots empty, and
        plain I/O keeps working."""
        fs = OctopusFileSystem(small_cluster_spec())
        obs = fs.obs.enable()
        recorder = FlightRecorder(fs)
        ledger = ProvenanceLedger(obs)
        obs.disable()
        with pytest.raises(ConfigurationError, match="enable"):
            recorder.attach()
        with pytest.raises(ConfigurationError, match="enable"):
            ledger.attach()
        assert obs.recorder is None and obs.ledger is None
        client = fs.client(on="worker1")
        client.write_file("/after", data=b"ok")
        assert client.read_file("/after") == b"ok"


# ----------------------------------------------------------------------
# End to end: instrumented runs
# ----------------------------------------------------------------------
class TestInstrumentedRun:
    @pytest.fixture
    def fs(self):
        fs = OctopusFileSystem(small_cluster_spec())
        fs.obs.enable()
        return fs

    def test_block_transfer_spans_link_to_client_op(self, fs):
        """Every write flow span must parent to the client op span and
        carry the MOOP per-objective scores of the placement decision."""
        client = fs.client(on="worker1")
        for index in range(3):
            client.write_file(f"/d/f{index}", size=4 * MB)
        records = fs.obs.tracer.records
        spans = {r["span_id"]: r for r in records if r["kind"] == "span"}
        flows = [
            r for r in spans.values()
            if r["name"] == "flow.transfer"
            and r.get("attrs", {}).get("op") == "write"
        ]
        assert len(flows) == 3  # one block per 4MB file
        for flow in flows:
            parent = spans[flow["parent_id"]]
            assert parent["name"] == "client.write_block"
            assert flow["trace_id"] == parent["trace_id"]
            attrs = flow["attrs"]
            assert set(attrs["moop"]) == {"db", "lb", "ft", "tm"}
            assert attrs["placement_score"] >= 0.0
            assert attrs["block"].startswith("/d/f")

    def test_allocation_spans_nest_under_client_op(self, fs):
        client = fs.client(on="worker1")
        client.write_file("/one", size=16 * MB)
        records = fs.obs.tracer.records
        spans = {r["span_id"]: r for r in records if r["kind"] == "span"}
        allocs = [
            r for r in spans.values() if r["name"] == "master.allocate_block"
        ]
        assert allocs
        for alloc in allocs:
            assert spans[alloc["parent_id"]]["name"] == "client.write_block"
        decisions = [
            r for r in records
            if r["kind"] == "event" and r["name"] == "placement.decision"
        ]
        assert decisions
        for decision in decisions:
            assert spans[decision["parent_id"]]["name"] == "master.allocate_block"
            assert decision["attrs"]["replicas"] >= 1

    def test_read_spans_and_tier_hit_counters(self, fs):
        client = fs.client(on="worker1")
        client.write_file("/r", size=4 * MB)
        with client.open("/r") as stream:
            stream.read_size()
        spans = [
            r for r in fs.obs.tracer.records
            if r["kind"] == "span" and r["name"] == "client.read_block"
        ]
        assert len(spans) == 1
        assert spans[0]["status"] == "ok"
        assert spans[0]["attrs"]["tier"] in ("MEMORY", "SSD", "HDD")
        hits = [
            i for i in fs.obs.metrics.instruments()
            if i.name == "tier_read_hits_total"
        ]
        assert sum(i.value for i in hits) == 1

    def test_per_tier_byte_counters_cover_all_replica_tiers(self, fs):
        client = fs.client(on="worker1")
        client.write_file("/w", size=16 * MB)
        written = {
            dict(i.labels)["tier"]: i.value
            for i in fs.obs.metrics.instruments()
            if i.name == "bytes_written_total"
        }
        # Default vector spreads one replica per tier (U=3).
        assert set(written) == {"MEMORY", "SSD", "HDD"}
        assert all(v == 16 * MB for v in written.values())

    def test_resource_utilization_series_sampled(self, fs):
        client = fs.client(on="worker1")
        client.write_file("/u", size=16 * MB)
        series = [
            i for i in fs.obs.metrics.instruments()
            if i.name == "resource_utilization"
        ]
        assert series
        assert all(s.samples for s in series)
        # Sim timestamps are monotone within each series.
        for s in series:
            times = [t for t, _ in s.samples]
            assert times == sorted(times)

    def test_fault_events_share_the_trace_stream(self, fs):
        client = fs.client(on="worker1")
        client.write_file("/f", size=16 * MB)
        injector = FaultInjector(fs)
        injector.crash("worker2")
        fs.await_replication()
        crashes = [
            r for r in fs.obs.tracer.records
            if r["kind"] == "event" and r["name"] == "fault.crash"
        ]
        assert len(crashes) == 1
        assert crashes[0]["attrs"]["target"] == "worker2"
        counter = fs.obs.metrics.counter("faults_injected_total", kind="crash")
        assert counter.value == 1
        # The repair the crash triggered is traced too.
        repairs = [
            r for r in fs.obs.tracer.records
            if r["kind"] == "span" and r["name"] == "master.repair"
        ]
        assert repairs
        assert all(r["status"] == "ok" for r in repairs)

    def test_trace_stream_is_schema_valid(self, fs):
        client = fs.client(on="worker1")
        client.write_file("/v", size=16 * MB)
        with client.open("/v") as stream:
            stream.read_size()
        FaultInjector(fs).crash("worker2")
        fs.await_replication()
        assert validate("trace", fs.obs.tracer.records) == []


# ----------------------------------------------------------------------
# Determinism: identical seeds, identical exports
# ----------------------------------------------------------------------
def _observed_dfsio_exports(seed: int) -> tuple[str, str]:
    fs = build_deployment(
        "octopus", spec=paper_cluster_spec(racks=1, seed=seed), seed=seed
    )
    fs.obs.enable()
    bench = Dfsio(fs)
    bench.write(int(192 * MB), parallelism=3)
    bench.read(parallelism=3)
    return to_jsonl(fs.obs.tracer.records), metrics_json(fs.obs.metrics)


class TestDeterminism:
    def test_identical_seeds_export_byte_identical(self):
        """Two identically-seeded DFSIO runs must serialize to the same
        bytes — trace JSONL and metrics JSON alike."""
        trace_a, metrics_a = _observed_dfsio_exports(seed=7)
        trace_b, metrics_b = _observed_dfsio_exports(seed=7)
        assert trace_a == trace_b
        assert metrics_a == metrics_b
        assert trace_a.count("\n") > 10

    def test_different_seeds_still_schema_valid(self):
        trace, _ = _observed_dfsio_exports(seed=3)
        import json

        records = [json.loads(line) for line in trace.splitlines()]
        assert validate("trace", records) == []


class TestSchemaVersioning:
    """Every JSONL export leads with a versioned header; readers check it."""

    def _trace(self):
        tracer = Tracer(FakeClock())
        tracer.start_span("op").end()
        return tracer.records

    def test_write_jsonl_prepends_header(self, tmp_path):
        from repro.obs.export import SCHEMA_VERSION, write_jsonl

        path = tmp_path / "trace.jsonl"
        write_jsonl(self._trace(), str(path), stream="trace")
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {
            "kind": "header",
            "schema_version": SCHEMA_VERSION,
            "stream": "trace",
        }

    def test_read_jsonl_strips_header(self, tmp_path):
        from repro.obs.export import read_artifact, write_jsonl

        records = self._trace()
        path = tmp_path / "trace.jsonl"
        write_jsonl(records, str(path))
        assert read_artifact(str(path))[1] == records

    def test_gz_write_read_round_trip(self, tmp_path):
        from repro.obs.export import read_artifact, write_jsonl

        records = self._trace()
        path = tmp_path / "trace.jsonl.gz"
        write_jsonl(records, str(path))
        assert read_artifact(str(path))[1] == records

    def test_headerless_stream_reads_unchanged(self, tmp_path):
        from repro.obs.export import read_artifact, to_jsonl

        records = self._trace()
        path = tmp_path / "legacy.jsonl"
        path.write_text(to_jsonl(records))
        assert read_artifact(str(path))[1] == records

    def test_newer_major_rejected_with_clear_error(self, tmp_path):
        from repro.obs.export import read_artifact

        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"kind": "header", "schema_version": "2.0"}\n'
            '{"kind": "event", "name": "x", "time": 0.0,'
            ' "trace_id": null, "parent_id": null}\n'
        )
        with pytest.raises(ValueError, match="newer than the supported"):
            read_artifact(str(path))

    def test_same_major_newer_minor_accepted(self, tmp_path):
        from repro.obs.export import read_artifact

        path = tmp_path / "minor.jsonl"
        path.write_text('{"kind": "header", "schema_version": "1.9"}\n')
        assert read_artifact(str(path))[1] == []

    def test_unparseable_version_rejected(self, tmp_path):
        from repro.obs.export import read_artifact

        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "schema_version": "abc"}\n')
        with pytest.raises(ValueError, match="unparseable schema_version"):
            read_artifact(str(path))

    def test_read_trace_rejects_newer_major(self, tmp_path):
        from repro.obs.analyze import read_trace_file

        path = tmp_path / "future.jsonl"
        path.write_text('{"kind": "header", "schema_version": "7.0"}\n')
        with pytest.raises(ArtifactError, match="upgrade this tool"):
            read_trace_file(str(path))

    def test_validators_accept_their_own_headers(self):
        from repro.obs.export import header_record

        assert validate("trace", [header_record("trace"), *self._trace()]) == []
        assert validate("alerts", [header_record("alerts")]) == []

    def test_validators_flag_future_headers(self):
        header = {"kind": "header", "schema_version": "3.0"}
        problems = validate("trace", [header])
        assert any("newer than the supported" in p for p in problems)

    def test_metrics_json_is_stamped(self):
        registry = MetricsRegistry(FakeClock())
        registry.counter("ops_total").inc()
        from repro.obs.export import SCHEMA_VERSION

        data = json.loads(metrics_json(registry))
        assert data["schema_version"] == SCHEMA_VERSION
