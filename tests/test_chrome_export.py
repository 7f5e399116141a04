"""Tests for the Chrome/Perfetto trace-event exporter (repro.obs.chrome).

The emitted document must load under the trace-event schema: every
record becomes an event with the right phase, processes map to
requests, threads map to component lanes, and timestamps convert to
microseconds. Validated structurally via ``validate("chrome", ...)``.
"""

import gzip
import json
import tracemalloc

import pytest

from repro import OctopusFileSystem
from repro.cluster import small_cluster_spec
from repro.obs import chrome_trace, chrome_trace_json, validate, write_chrome_trace
from repro.obs.export import canonical_json, read_artifact
from repro.util.units import MB


def _traced_records():
    fs = OctopusFileSystem(small_cluster_spec())
    fs.obs.enable()
    client = fs.client(on="worker1")
    client.write_file("/c/one", size=8 * MB)
    with client.open("/c/one") as stream:
        stream.read_size()
    fs.faults.crash("worker2")
    fs.await_replication()
    return fs.obs.tracer.records


def _synthetic_records(count):
    """``count`` tracer-shaped records, ten to a request: a root write
    span, then placement events, allocations and tiered transfers."""
    records = []
    for index in range(count):
        trace_id, step = index // 10 + 1, index % 10
        at = index * 0.001
        if step % 3 == 1:
            records.append({
                "kind": "event", "name": "placement.decision", "time": at,
                "trace_id": trace_id, "parent_id": trace_id,
                "attrs": {"replicas": 3, "score": 0.2 + step / 97,
                          "chosen": [f"worker{step}:ssd0", "worker9:hdd1"]},
            })
            continue
        name = ("client.write", "master.allocate_block", "flow.transfer")[min(step, 2)]
        records.append({
            "kind": "span", "name": name,
            "span_id": trace_id if step == 0 else 100_000 + index,
            "trace_id": trace_id, "parent_id": None if step == 0 else trace_id,
            "start": at, "end": at + step / 7, "status": "ok",
            "attrs": {"size": 4 * MB, "tiers": ["SSD", "HDD"][: 1 + step % 2],
                      "moop": {"db": step / 3, "lb": 3.0}},
        })
    return records


def _exotic_records():
    """Non-ASCII names and values, nested attrs, an orphan event."""
    return [
        {"kind": "span", "name": "client.écrire", "span_id": 7, "trace_id": 7,
         "start": 0.5, "end": 1.25, "status": "ok",
         "attrs": {"path": "/données/ß", "nested": {"a": [1, {"b": "→"}], "z": None}}},
        {"kind": "event", "name": "incident.opened", "time": 0.75,
         "attrs": {"why": "störung", "tiers": ["MEMORY", "SSD"]}},
    ]


#: The record streams the streamed writer must render exactly.
_STREAMS = {
    "traced": _traced_records,
    "empty": list,
    "synthetic": lambda: _synthetic_records(1200),
    "exotic": _exotic_records,
}


class TestChromeTrace:
    def test_document_is_schema_valid(self):
        document = chrome_trace(_traced_records())
        assert validate("chrome", document) == []
        assert document["traceEvents"]

    def test_every_record_becomes_an_event(self):
        records = _traced_records()
        document = chrome_trace(records)
        payload = [e for e in document["traceEvents"] if e["ph"] != "M"]
        assert len(payload) == len(records)
        spans = [e for e in payload if e["ph"] == "X"]
        instants = [e for e in payload if e["ph"] == "i"]
        assert len(spans) == sum(1 for r in records if r["kind"] == "span")
        assert len(instants) == sum(
            1 for r in records if r["kind"] == "event"
        )

    def test_processes_are_requests(self):
        records = _traced_records()
        document = chrome_trace(records)
        trace_ids = {
            r["trace_id"] for r in records if r.get("trace_id") is not None
        }
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert trace_ids <= set(process_names)
        # Root spans label their request's process row.
        roots = {
            r["trace_id"]: r["name"]
            for r in records
            if r["kind"] == "span" and r["span_id"] == r["trace_id"]
        }
        for trace_id, name in roots.items():
            assert name in process_names[trace_id]

    def test_threads_are_component_lanes(self):
        document = chrome_trace(_traced_records())
        thread_names = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "client" in thread_names
        assert any(name.startswith("flow ") for name in thread_names)
        # Every payload event's (pid, tid) has a thread_name record.
        named = {
            (e["pid"], e["tid"])
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        for event in document["traceEvents"]:
            if event["ph"] != "M":
                assert (event["pid"], event["tid"]) in named

    def test_timestamps_are_microseconds(self):
        records = _traced_records()
        document = chrome_trace(records)
        span = next(r for r in records if r["kind"] == "span")
        event = next(
            e
            for e in document["traceEvents"]
            if e["ph"] == "X" and e["args"].get("span_id") == span["span_id"]
        )
        assert event["ts"] == span["start"] * 1e6
        assert event["dur"] == (span["end"] - span["start"]) * 1e6

    def test_span_args_carry_attrs_and_status(self):
        records = _traced_records()
        document = chrome_trace(records)
        flow = next(
            e
            for e in document["traceEvents"]
            if e["ph"] == "X" and e["name"] == "flow.transfer"
        )
        assert flow["args"]["status"] == "ok"
        assert flow["args"]["size"] > 0
        assert flow["args"]["path"]  # resource channel names

    def test_empty_stream_is_valid(self):
        document = chrome_trace([])
        assert validate("chrome", document) == []
        assert document["traceEvents"] == []

    def test_write_round_trips_through_json(self, tmp_path):
        records = _traced_records()
        path = tmp_path / "trace.chrome.json"
        write_chrome_trace(records, str(path))
        loaded = json.loads(path.read_text())
        assert validate("chrome", loaded) == []
        assert loaded == chrome_trace(records)

    def test_export_is_deterministic(self):
        a = chrome_trace_json(_traced_records())
        b = chrome_trace_json(_traced_records())
        assert a == b

    def test_validator_flags_malformed_documents(self):
        assert validate("chrome", {}) == [
            "traceEvents missing or not a list"
        ]
        bad = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1},  # no ts/dur
                {"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0},
                {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
                 "args": {}},
                "not an event",
            ]
        }
        problems = validate("chrome", bad)
        assert len(problems) == 4


class TestStreamedWrite:
    """``write_chrome_trace`` streams exactly the document's canonical text."""

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    @pytest.mark.parametrize("as_generator", [False, True])
    @pytest.mark.parametrize("name", list(_STREAMS))
    def test_written_text_is_the_canonical_document(
        self, tmp_path, name, as_generator, suffix
    ):
        records = _STREAMS[name]()
        path = tmp_path / f"trace.chrome.json{suffix}"
        stream = (record for record in records) if as_generator else records
        events = write_chrome_trace(stream, str(path))
        data = path.read_bytes()
        text = (gzip.decompress(data) if suffix else data).decode("utf-8")
        document = chrome_trace(records)
        assert text == canonical_json(document) == chrome_trace_json(records)
        assert events == len(document["traceEvents"])

    def test_unknown_kinds_leave_no_trace(self, tmp_path):
        records = [
            {"kind": "span", "name": "client.write", "span_id": 1, "trace_id": 1,
             "start": 0.0, "end": 1.0, "status": "ok", "attrs": {}},
        ] + _synthetic_records(12)
        expected = chrome_trace(records)
        expected_text = chrome_trace_json(records)
        path = tmp_path / "trace.chrome.json"
        strays = (
            {"kind": "weird", "trace_id": 5, "name": "x.y"},
            {"name": "no.kind", "trace_id": 2},
        )
        for stray in strays:
            for at in range(len(records) + 1):
                stream = records[:at] + [stray] + records[at:]
                assert chrome_trace(stream) == expected, (stray, at)
                write_chrome_trace(stream, str(path))
                assert path.read_text(encoding="utf-8") == expected_text, (stray, at)

    def test_peak_memory_is_a_fraction_of_the_file(self, tmp_path):
        # The writer holds a batch of events, never the document or its text.
        records = _synthetic_records(5000)
        path = tmp_path / "synthetic.chrome.json"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_chrome_trace(records, str(path))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < size / 4, (peak, size)


class TestGzipParity:
    """``.gz`` chrome artifacts are byte-stable and read back losslessly."""

    def test_gz_bytes_stable_across_writes(self, tmp_path):
        records = _traced_records()
        first = tmp_path / "a.chrome.json.gz"
        second = tmp_path / "b.chrome.json.gz"
        write_chrome_trace(records, str(first))
        write_chrome_trace(records, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_gz_and_plain_agree(self, tmp_path):
        records = _traced_records()
        plain = tmp_path / "trace.chrome.json"
        gz = tmp_path / "trace.chrome.json.gz"
        write_chrome_trace(records, str(plain))
        write_chrome_trace(records, str(gz))
        assert read_artifact(str(gz), "chrome")[1] == json.loads(plain.read_text())

    def test_validator_reads_gzipped_document(self, tmp_path):
        gz = tmp_path / "trace.chrome.json.gz"
        write_chrome_trace(_traced_records(), str(gz))
        document = read_artifact(str(gz), "chrome")[1]
        assert validate("chrome", document) == []
        assert document["traceEvents"]

    def test_read_rejects_non_object(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[1, 2, 3]\n")
        try:
            read_artifact(str(path), "chrome")
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            raise AssertionError("expected ValueError")
