"""Trace analytics: JSONL reader, span DAG, critical paths, stragglers.

The tracing layer (:mod:`repro.obs.tracing`) emits a flat stream of
span/event records; this module turns that firehose into answers:

* :func:`read_trace_file` — a validating JSONL reader that tolerates
  truncated or garbage lines (``on_error="skip"``) without losing the
  rest of the trace (lines in memory:
  ``Trace(read_records(lines, on_error, problems), problems)``);
* :class:`Trace` — the reconstructed span DAG: spans indexed by id,
  children linked, request roots identified;
* :func:`critical_path` — for one request, the contiguous chain of
  segments (span, start, end) that determined its duration, so the
  summed segment durations equal the request duration exactly;
* :func:`aggregate_spans` — flame-style totals per span name (and per
  tier): count, total time, *self* time (duration minus the union of
  child intervals), and exact latency percentiles;
* :func:`stragglers` — the slowest-k spans with their ancestry chain
  and how many block-transfer flows were in flight alongside them;
* :func:`analyze_trace` — all of the above as one deterministic,
  JSON-serializable report (what ``repro analyze --json`` prints).

Everything here is a pure function of the record stream: analyzing the
byte-identical traces of two identically-seeded runs yields
byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Iterable

from repro.obs.export import read_artifact, validate


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_trace_file(path: str, on_error: str = "raise") -> "Trace":
    """Read a JSONL trace file (optionally ``.gz``) into a :class:`Trace`.

    A path ending in ``.gz`` is transparently gunzipped, so the
    ``trace.jsonl.gz`` of an ``--obs-out`` directory analyzes the same
    as a plain file. A file that holds some other artefact (a ledger, a
    bundle) is one :class:`~repro.obs.export.ArtifactError` naming what
    was found.
    """
    problems: list[str] = []
    _, records = read_artifact(path, "trace", on_error, problems)
    return Trace(records, parse_problems=problems)


# ----------------------------------------------------------------------
# The span DAG
# ----------------------------------------------------------------------
@dataclass
class SpanNode:
    """One finished span with its children linked in."""

    record: dict
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record["name"]

    @property
    def span_id(self) -> int:
        return self.record["span_id"]

    @property
    def trace_id(self) -> int:
        return self.record["trace_id"]

    @property
    def parent_id(self) -> int | None:
        return self.record["parent_id"]

    @property
    def start(self) -> float:
        return self.record["start"]

    @property
    def end(self) -> float:
        return self.record["end"]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def status(self) -> str:
        return self.record["status"]

    @property
    def attrs(self) -> dict:
        return self.record.get("attrs", {})

    def tier_label(self) -> str | None:
        """The span's tier attribution: ``tier`` or joined ``tiers``."""
        attrs = self.attrs
        if "tier" in attrs and attrs["tier"] is not None:
            return str(attrs["tier"])
        tiers = attrs.get("tiers")
        if tiers:
            return "+".join(str(t) for t in tiers)
        return None


class Trace:
    """The reconstructed span DAG of one exported record stream."""

    def __init__(
        self, records: Iterable[dict], parse_problems: list[str] | None = None
    ) -> None:
        self.records = list(records)
        #: Reader-level problems (bad lines) + schema-level problems.
        self.problems = list(parse_problems or [])
        self.problems.extend(validate("trace", self.records))
        self.spans: dict[int, SpanNode] = {}
        self.events: list[dict] = []
        for record in self.records:
            if record.get("kind") == "span" and "span_id" in record:
                self.spans[record["span_id"]] = SpanNode(record)
            elif record.get("kind") == "event":
                self.events.append(record)
        self.roots: list[SpanNode] = []
        for node in self.spans.values():
            parent = (
                self.spans.get(node.parent_id)
                if node.parent_id is not None
                else None
            )
            if parent is None:
                self.roots.append(node)
            else:
                parent.children.append(node)
        for node in self.spans.values():
            node.children.sort(key=lambda c: (c.start, c.span_id))
        self.roots.sort(key=lambda r: (r.start, r.span_id))

    def requests(self) -> list[SpanNode]:
        """Root spans, i.e. one per traced request, in start order."""
        return self.roots

    def ancestry(self, node: SpanNode) -> list[SpanNode]:
        """Root-to-node chain of spans (inclusive)."""
        chain = [node]
        seen = {node.span_id}
        while chain[-1].parent_id is not None:
            parent = self.spans.get(chain[-1].parent_id)
            if parent is None or parent.span_id in seen:
                break
            seen.add(parent.span_id)
            chain.append(parent)
        chain.reverse()
        return chain

    def flow_spans(self) -> list[SpanNode]:
        return [s for s in self.spans.values() if s.name == "flow.transfer"]


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
@dataclass
class Segment:
    """One critical-path piece: ``span`` was the limiting work on
    ``[start, end]`` (no child of it covered that stretch)."""

    span: SpanNode
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def critical_path(root: SpanNode) -> list[Segment]:
    """The chain of segments that determined ``root``'s duration.

    Walks the span tree bottom-up from the request's end: each stretch
    of time is attributed to the deepest span working on it, preferring
    the child that *finished last* (the classic last-returning-child
    rule). The returned segments partition ``[root.start, root.end]``
    contiguously, so their summed durations equal the request duration.
    """
    segments: list[Segment] = []

    def attribute(span: SpanNode, lo: float, hi: float) -> None:
        cursor = hi
        # Children that end last bound the tail of the interval.
        for child in sorted(
            span.children, key=lambda c: (c.end, c.span_id), reverse=True
        ):
            if cursor <= lo:
                break
            child_end = min(child.end, cursor)
            if child_end <= lo:
                break  # sorted by end: no later child can reach past lo
            child_start = max(child.start, lo)
            if child_end <= child_start:
                continue
            if cursor > child_end:
                segments.append(Segment(span, child_end, cursor))
            attribute(child, child_start, child_end)
            cursor = child_start
        if cursor > lo:
            segments.append(Segment(span, lo, cursor))

    attribute(root, root.start, root.end)
    if not segments:  # zero-duration request
        segments.append(Segment(root, root.start, root.end))
    segments.reverse()  # chronological order
    return segments


def critical_path_report(trace: Trace, root: SpanNode) -> dict:
    """One request's critical path as a JSON-serializable dict."""
    segments = critical_path(root)
    by_span: dict[str, float] = {}
    for segment in segments:
        key = segment.span.name
        tier = segment.span.tier_label()
        if tier is not None:
            key = f"{key}[{tier}]"
        by_span[key] = by_span.get(key, 0.0) + segment.duration
    dominant = max(sorted(by_span), key=lambda k: by_span[k]) if by_span else None
    return {
        "trace_id": root.trace_id,
        "root": root.name,
        "status": root.status,
        "start": root.start,
        "end": root.end,
        "duration": root.duration,
        "segments": [
            {
                "span_id": segment.span.span_id,
                "name": segment.span.name,
                "tier": segment.span.tier_label(),
                "start": segment.start,
                "end": segment.end,
                "duration": segment.duration,
            }
            for segment in segments
        ],
        "by_span": {k: by_span[k] for k in sorted(by_span)},
        "dominant": dominant,
    }


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def percentile(sorted_values: list[float], q: float) -> float | None:
    """Exact ``q``-percentile of an ascending list (linear interpolation).

    ``None`` on empty input; the single value on single-element input.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    if not sorted_values:
        return None
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    lower = int(position)
    fraction = position - lower
    if lower + 1 >= len(sorted_values):
        return sorted_values[-1]
    return (
        sorted_values[lower] * (1.0 - fraction)
        + sorted_values[lower + 1] * fraction
    )


def _covered_by_children(node: SpanNode) -> float:
    """Total length of the union of child intervals, clipped to node."""
    intervals = sorted(
        (max(c.start, node.start), min(c.end, node.end))
        for c in node.children
    )
    covered = 0.0
    cursor = node.start
    for start, end in intervals:
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return covered


def _distribution(durations: list[float]) -> dict:
    ordered = sorted(durations)
    return {
        "count": len(ordered),
        # A plain left fold, not ``sum``: builtin ``sum`` of floats is
        # compensated from CPython 3.12 on, and the report's bytes must
        # not depend on the interpreter.
        "total": reduce(add, ordered, 0),
        "min": ordered[0] if ordered else None,
        "max": ordered[-1] if ordered else None,
        "p50": percentile(ordered, 0.50),
        "p90": percentile(ordered, 0.90),
        "p99": percentile(ordered, 0.99),
    }


def aggregate_spans(trace: Trace) -> dict:
    """Flame-style aggregate: per span name, total vs self time and
    exact duration percentiles."""
    durations: dict[str, list[float]] = {}
    self_times: dict[str, float] = {}
    for node in trace.spans.values():
        durations.setdefault(node.name, []).append(node.duration)
        self_times[node.name] = self_times.get(node.name, 0.0) + (
            node.duration - _covered_by_children(node)
        )
    return {
        name: {**_distribution(values), "self_total": self_times[name]}
        for name, values in sorted(durations.items())
    }


def aggregate_tiers(trace: Trace) -> dict:
    """Per-tier latency distributions over tier-attributed spans."""
    durations: dict[str, list[float]] = {}
    for node in trace.spans.values():
        tier = node.tier_label()
        if tier is not None:
            durations.setdefault(tier, []).append(node.duration)
    return {
        tier: _distribution(values)
        for tier, values in sorted(durations.items())
    }


# ----------------------------------------------------------------------
# Stragglers
# ----------------------------------------------------------------------
def stragglers(trace: Trace, top: int = 5) -> list[dict]:
    """The slowest ``top`` spans, each with ancestry and the number of
    block-transfer flows concurrently in flight."""
    flows = trace.flow_spans()
    ranked = sorted(
        trace.spans.values(), key=lambda s: (-s.duration, s.span_id)
    )[:top]
    out = []
    for node in ranked:
        concurrent = sum(
            1
            for flow in flows
            if flow.span_id != node.span_id
            and flow.start < node.end
            and flow.end > node.start
        )
        out.append(
            {
                "span_id": node.span_id,
                "name": node.name,
                "tier": node.tier_label(),
                "status": node.status,
                "start": node.start,
                "duration": node.duration,
                "ancestry": [a.name for a in trace.ancestry(node)],
                "concurrent_flows": concurrent,
            }
        )
    return out


# ----------------------------------------------------------------------
# Alerts and detection delay
# ----------------------------------------------------------------------
def alert_report(trace: Trace) -> dict:
    """Alert timeline + fault→alert detection delays from one trace.

    The live monitors (:mod:`repro.obs.slo`, :mod:`repro.obs.health`)
    mirror every alert transition as a ``slo.alert`` / ``health.alert``
    tracer event, and the fault injector marks every applied fault with
    a ``fault.<kind>`` event — so the trace alone carries the full
    detection story. For each alert *firing*, the detection delay is
    measured against the most recent fault applied at or before it
    (``None`` when no fault preceded it: an organic alert); time to
    clear is the gap to the same alert key's next ``resolved``.
    """
    alerts = []
    faults = []
    for event in trace.events:
        name = event.get("name", "")
        if name in ("slo.alert", "health.alert"):
            alerts.append(event)
        elif name.startswith("fault."):
            faults.append(event)
    timeline = []
    resolve_times: dict[tuple, list[float]] = {}
    for event in alerts:
        attrs = event.get("attrs", {})
        if attrs.get("state") == "resolved":
            key = (event["name"], attrs.get("alert"), attrs.get("group", ""))
            resolve_times.setdefault(key, []).append(event["time"])
    detections = []
    for event in alerts:
        attrs = event.get("attrs", {})
        entry = {
            "time": event["time"],
            "source": event["name"].split(".")[0],
            "alert": attrs.get("alert"),
            "state": attrs.get("state"),
            "severity": attrs.get("severity"),
            "group": attrs.get("group", ""),
        }
        timeline.append(entry)
        if attrs.get("state") != "firing":
            continue
        cause = None
        for fault in faults:
            if fault["time"] <= event["time"]:
                cause = fault
            else:
                break
        key = (event["name"], attrs.get("alert"), attrs.get("group", ""))
        cleared = next(
            (t for t in resolve_times.get(key, []) if t >= event["time"]),
            None,
        )
        detections.append(
            {
                "alert": attrs.get("alert"),
                "group": attrs.get("group", ""),
                "fired_at": event["time"],
                "fault": cause["name"] if cause is not None else None,
                "fault_at": cause["time"] if cause is not None else None,
                "detection_delay": (
                    event["time"] - cause["time"] if cause is not None
                    else None
                ),
                "cleared_at": cleared,
                "time_to_clear": (
                    cleared - event["time"] if cleared is not None else None
                ),
            }
        )
    return {
        "count": len(timeline),
        "firing_at_end": sorted(
            {
                (e["alert"] or "") + (f"/{e['group']}" if e["group"] else "")
                for e in timeline
                if e["state"] == "firing"
                and not any(
                    o["alert"] == e["alert"]
                    and o["group"] == e["group"]
                    and o["state"] == "resolved"
                    and o["time"] >= e["time"]
                    for o in timeline
                )
            }
        ),
        "faults_seen": len(faults),
        "timeline": timeline,
        "detections": detections,
    }


# ----------------------------------------------------------------------
# The full report
# ----------------------------------------------------------------------
def analyze_trace(trace: Trace, top: int = 5) -> dict:
    """The complete deterministic analysis report for one trace."""
    requests = trace.requests()
    request_reports = [critical_path_report(trace, root) for root in requests]
    slowest = sorted(
        request_reports, key=lambda r: (-r["duration"], r["trace_id"])
    )[:top]
    times = [s.start for s in trace.spans.values()] + [
        s.end for s in trace.spans.values()
    ]
    return {
        "summary": {
            "records": len(trace.records),
            "spans": len(trace.spans),
            "events": len(trace.events),
            "requests": len(requests),
            "errors": sum(
                1 for s in trace.spans.values() if s.status != "ok"
            ),
            "time_range": [min(times), max(times)] if times else None,
            "problems": trace.problems,
        },
        "requests": slowest,
        "flame": aggregate_spans(trace),
        "tiers": aggregate_tiers(trace),
        "stragglers": stragglers(trace, top=top),
        "alerts": alert_report(trace),
    }
