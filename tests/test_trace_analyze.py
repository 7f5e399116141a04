"""Tests for the trace analytics toolkit (repro.obs.analyze).

Covers the JSONL reader (round-trip, truncated/garbage lines), the
span-DAG reconstruction, the critical-path invariant (segment durations
sum to the request duration, on hand-built traces and on a full seeded
DFSIO run), the flame/self-time and per-tier aggregations, straggler
detection, and the determinism of ``repro analyze --json``.
"""

import json
import math

import pytest

from repro.bench.deployments import build_deployment
from repro.cli import main
from repro.cluster.spec import paper_cluster_spec
from repro.obs import ArtifactError, Tracer, read_trace_file, write_jsonl
from repro.obs.analyze import (
    Trace,
    aggregate_spans,
    analyze_trace,
    critical_path,
    critical_path_report,
    percentile,
    stragglers,
)
from repro.obs.export import canonical_json, read_records
from repro.util.units import MB
from repro.workloads.dfsio import Dfsio


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def _traced_dfsio(seed: int = 0):
    fs = build_deployment(
        "octopus", spec=paper_cluster_spec(racks=1, seed=seed), seed=seed
    )
    fs.obs.enable()
    bench = Dfsio(fs)
    bench.write(int(192 * MB), parallelism=3)
    bench.read(parallelism=3)
    return fs.obs.tracer.records


# ----------------------------------------------------------------------
# Reader round-trip
# ----------------------------------------------------------------------
class TestReader:
    def test_write_jsonl_roundtrip(self, tmp_path):
        records = _traced_dfsio()
        path = tmp_path / "trace.jsonl"
        write_jsonl(records, str(path))
        trace = read_trace_file(str(path))
        assert trace.records == records
        assert trace.problems == []
        assert len(trace.spans) == sum(
            1 for r in records if r["kind"] == "span"
        )

    def test_blank_lines_ignored(self):
        problems: list[str] = []
        lines = ["", "  ", '{"kind":"event","name":"x",'
                 '"time":0.0,"trace_id":null,"parent_id":null}']
        trace = Trace(read_records(lines, "raise", problems), problems)
        assert len(trace.records) == 1
        assert trace.problems == []

    def test_garbage_line_raises_by_default(self):
        with pytest.raises(ArtifactError, match="line 2"):
            read_records(['{"kind":"event"}', "not json"])

    def test_truncated_line_skipped_and_reported(self, tmp_path):
        records = _traced_dfsio()
        path = tmp_path / "trace.jsonl"
        write_jsonl(records, str(path))
        text = path.read_text()
        # Truncate mid-way through the final record, as a crashed writer
        # would, and splice garbage into the middle.
        lines = text.splitlines(keepends=True)
        lines.insert(3, "%% corrupted line %%\n")
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("".join(lines))
        trace = read_trace_file(str(path), on_error="skip")
        assert len(trace.records) == len(records) - 1
        assert any("line 4" in p for p in trace.problems)
        assert any("invalid JSON" in p for p in trace.problems)

    def test_non_object_line_skipped(self):
        problems: list[str] = []
        out = read_records(["[1,2]", "3"], on_error="skip", problems=problems)
        assert out == []
        assert len(problems) == 2
        assert all("not a JSON object" in p for p in problems)

    def test_invalid_on_error_mode_rejected(self):
        with pytest.raises(ValueError):
            read_records([], on_error="ignore")


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
def _span(tracer, clock, name, start, end, parent=None, **attrs):
    clock.now = start
    span = tracer.start_span(name, parent=parent, **attrs)
    clock.now = end
    span.end()
    clock.now = end
    return span


class TestCriticalPath:
    def test_hand_built_known_answer(self):
        """root [0,10]; child a [1,4]; child b [6,9]; grandchild of b
        [7,9] — the path is root-self, a, root-self, b-self, gb, root."""
        clock = FakeClock()
        tracer = Tracer(clock)
        clock.now = 0.0
        root = tracer.start_span("root")
        _span(tracer, clock, "a", 1.0, 4.0, parent=root)
        clock.now = 6.0
        b = tracer.start_span("b", parent=root)
        _span(tracer, clock, "gb", 7.0, 9.0, parent=b)
        clock.now = 9.0
        b.end()
        clock.now = 10.0
        root.end()
        trace = Trace(tracer.records)
        (request,) = trace.requests()
        segments = critical_path(request)
        described = [
            (s.span.name, s.start, s.end) for s in segments
        ]
        assert described == [
            ("root", 0.0, 1.0),
            ("a", 1.0, 4.0),
            ("root", 4.0, 6.0),
            ("b", 6.0, 7.0),
            ("gb", 7.0, 9.0),
            ("root", 9.0, 10.0),
        ]
        assert sum(s.duration for s in segments) == pytest.approx(
            request.duration, abs=1e-12
        )

    def test_overlapping_children_attribute_to_last_finisher(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        clock.now = 0.0
        root = tracer.start_span("root")
        _span(tracer, clock, "early", 0.0, 5.0, parent=root)
        _span(tracer, clock, "late", 2.0, 8.0, parent=root)
        clock.now = 8.0
        root.end()
        trace = Trace(tracer.records)
        segments = critical_path(trace.requests()[0])
        described = [(s.span.name, s.start, s.end) for s in segments]
        # "late" owns [2,8] (it finished last); "early" only [0,2].
        assert described == [("early", 0.0, 2.0), ("late", 2.0, 8.0)]

    def test_zero_duration_request(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.start_span("instant")
        span.end()
        trace = Trace(tracer.records)
        segments = critical_path(trace.requests()[0])
        assert len(segments) == 1
        assert sum(s.duration for s in segments) == 0.0

    def test_dfsio_paths_sum_to_request_duration(self):
        """The acceptance invariant: on a seeded DFSIO trace, every
        request's critical-path segments sum to its traced duration."""
        trace = Trace(_traced_dfsio())
        requests = trace.requests()
        assert len(requests) >= 6  # 3 writes + 3 reads
        for root in requests:
            segments = critical_path(root)
            total = sum(s.duration for s in segments)
            assert math.isclose(total, root.duration, rel_tol=1e-12,
                                abs_tol=1e-12)
            # Segments are contiguous and span the request exactly.
            assert segments[0].start == root.start
            assert segments[-1].end == root.end
            for before, after in zip(segments, segments[1:]):
                assert before.end == after.start

    def test_report_names_dominant_hop(self):
        trace = Trace(_traced_dfsio())
        write_root = next(
            r for r in trace.requests() if r.name == "client.write_block"
        )
        report = critical_path_report(trace, write_root)
        # Block writes are transfer-bound in this simulator.
        assert report["dominant"].startswith("flow.transfer")
        assert report["duration"] == pytest.approx(
            sum(s["duration"] for s in report["segments"])
        )


# ----------------------------------------------------------------------
# Aggregations and stragglers
# ----------------------------------------------------------------------
class TestAggregation:
    def test_percentile_edge_cases(self):
        assert percentile([], 0.5) is None
        assert percentile([3.0], 0.0) == 3.0
        assert percentile([3.0], 1.0) == 3.0
        assert percentile([1.0, 2.0], 0.5) == pytest.approx(1.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_self_time_subtracts_child_union(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        clock.now = 0.0
        root = tracer.start_span("root")
        # Two overlapping children covering [1,6] in union.
        _span(tracer, clock, "kid", 1.0, 4.0, parent=root)
        _span(tracer, clock, "kid", 3.0, 6.0, parent=root)
        clock.now = 10.0
        root.end()
        flame = aggregate_spans(Trace(tracer.records))
        assert flame["root"]["total"] == 10.0
        assert flame["root"]["self_total"] == pytest.approx(5.0)  # 10 - 5
        assert flame["kid"]["count"] == 2
        assert flame["kid"]["self_total"] == pytest.approx(6.0)

    def test_tier_aggregation_on_dfsio(self):
        analysis = analyze_trace(Trace(_traced_dfsio()))
        # Write flows carry the 3-tier spread; reads a single tier.
        assert any("+" in tier for tier in analysis["tiers"])
        for stats in analysis["tiers"].values():
            assert stats["p50"] is not None
            assert stats["p50"] <= stats["p99"] <= stats["max"]

    def test_stragglers_carry_ancestry_and_concurrency(self):
        trace = Trace(_traced_dfsio())
        worst = stragglers(trace, top=4)
        assert len(worst) == 4
        durations = [s["duration"] for s in worst]
        assert durations == sorted(durations, reverse=True)
        for entry in worst:
            assert entry["ancestry"][-1] == entry["name"]
            assert entry["concurrent_flows"] >= 0
        # DFSIO runs 3 writers in parallel: the slowest write-phase flow
        # overlapped with the other writers' flows.
        flows = [s for s in worst if s["name"] == "flow.transfer"]
        assert any(s["concurrent_flows"] >= 2 for s in flows)


# ----------------------------------------------------------------------
# Determinism of the CLI analysis
# ----------------------------------------------------------------------
class TestAnalyzeDeterminism:
    def test_analyze_json_byte_identical_across_seeded_runs(
        self, tmp_path, capsys
    ):
        outputs = []
        for run in range(2):
            trace_path = tmp_path / f"trace{run}.jsonl"
            write_jsonl(_traced_dfsio(seed=11), str(trace_path))
            assert main(["analyze", str(trace_path), "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["summary"]["problems"] == []

    def test_analysis_json_is_canonical(self):
        analysis = analyze_trace(Trace(_traced_dfsio()))
        text = canonical_json(analysis, indent=2)
        assert text == canonical_json(json.loads(text), indent=2)
