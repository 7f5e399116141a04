"""Automated incident postmortems from flight-recorder bundles.

An incident bundle (:mod:`repro.obs.recorder`) is raw forensics: the
windowed contents of every ring at the moment the incident sealed.
This module turns one into the document an on-call engineer would
write by hand:

* :func:`build_timeline` — the **causal timeline**: applied faults,
  windowed-metric deviations (the first sample of each watched series
  that left its pre-fault baseline), alert transitions, unhandled
  exceptions, tiering actions, repairs, and resolutions, merged into
  one deterministically ordered list;
* :func:`blast_radius` — which requests, tiers, and workers the
  degraded interval touched, computed from span overlap and ancestry
  (plus a ``tenants`` field that stays empty until the workloads grow
  multi-tenancy);
* degraded-request **critical paths** — :func:`repro.obs.analyze.critical_path`
  applied only to the request roots that overlap the degraded
  interval, so the report shows where the slow requests actually
  spent their time;
* :func:`postmortem_report` / :func:`postmortem_json` — all of the
  above as one canonical JSON-serializable document (what
  ``repro postmortem --json`` prints), plus :func:`postmortem_text`
  for the human rendering.

Everything is a pure function of the bundle, so byte-identical bundles
yield byte-identical postmortems.
"""

from __future__ import annotations

from repro.obs.analyze import Trace, critical_path_report
from repro.obs.export import (
    ArtifactError,
    bundle_sections,
    canonical_json,
    read_artifact,
    validate,
)
from repro.obs.provenance import decision_summary
from repro.obs.recorder import is_heal

__all__ = [
    "BundleError",
    "read_bundle",
    "validate_bundle",
    "build_timeline",
    "blast_radius",
    "blast_radius_decisions",
    "bundle_trace_records",
    "postmortem_report",
    "postmortem_json",
    "postmortem_text",
]

#: Tie-break rank when several timeline entries share a timestamp: the
#: causal story reads fault → deviation → alert → exception → action →
#: repair → resolution.
_TYPE_RANK = {
    "fault": 0,
    "deviation": 1,
    "alert": 2,
    "exception": 3,
    "action": 4,
    "repair": 5,
    "resolution": 6,
}

#: Span attr keys that name a worker/node (for blast radius).
_WORKER_ATTRS = ("worker", "node", "source", "target_worker")


class BundleError(ArtifactError):
    """An unreadable or structurally invalid incident bundle."""


def read_bundle(path: str) -> dict:
    """Read an incident bundle (plain or ``.gz``) and sanity-check it."""
    return read_artifact(path, "bundle", error=BundleError)[1]


def validate_bundle(bundle: dict) -> list[str]:
    """Structural check of a bundle; returns problems (empty = ok)."""
    return validate("bundle", bundle)


# ----------------------------------------------------------------------
# Causal timeline
# ----------------------------------------------------------------------
def _series_key(delta: dict) -> tuple:
    return (
        delta.get("metric", ""),
        tuple(sorted((delta.get("labels") or {}).items())),
    )


def _deviations(bundle: dict, factor: float) -> list[dict]:
    """The first sample per watched series that left its baseline.

    The baseline is the largest value the series showed at or before
    the first damaging fault (the incident's presumed cause); the
    deviation is the first later sample exceeding ``factor`` × that
    baseline. A series with no pre-fault samples of its own — e.g.
    reads that only started hitting the HDD tier once the memory
    medium degraded — is judged against the metric-wide pre-fault
    baseline instead; metrics entirely absent before the fault are
    skipped (nothing to deviate from).
    """
    faults = [
        f for f in bundle.get("faults", ())
        if not is_heal(f.get("kind", ""), f.get("detail", ""))
    ]
    if not faults:
        return []
    fault_time = min(f["time"] for f in faults)
    baselines: dict[tuple, float] = {}
    metric_baselines: dict[str, float] = {}
    deviations: list[dict] = []
    flagged: set[tuple] = set()
    for delta in bundle.get("metric_deltas", ()):
        key = _series_key(delta)
        metric = delta.get("metric", "")
        value = delta.get("value")
        if not isinstance(value, (int, float)):
            continue
        if delta["time"] <= fault_time:
            if value > baselines.get(key, 0.0):
                baselines[key] = value
            if value > metric_baselines.get(metric, 0.0):
                metric_baselines[metric] = value
            continue
        baseline = baselines.get(key, metric_baselines.get(metric))
        if key in flagged or baseline is None or baseline <= 0:
            continue
        if value > factor * baseline:
            flagged.add(key)
            deviations.append(
                {
                    "time": delta["time"],
                    "type": "deviation",
                    "label": delta.get("metric", ""),
                    "detail": (
                        f"value {value:g} > {factor:g}x baseline "
                        f"{baseline:g}"
                    ),
                    "metric": delta.get("metric", ""),
                    "labels": dict(delta.get("labels") or {}),
                    "value": value,
                    "baseline": baseline,
                }
            )
    return deviations


def build_timeline(bundle: dict, deviation_factor: float = 2.0) -> list[dict]:
    """The merged causal timeline of one incident.

    Every entry carries ``time``, ``type`` (one of ``fault``,
    ``deviation``, ``alert``, ``exception``, ``action``, ``repair``,
    ``resolution``), a short ``label``, and a ``detail`` string; typed
    entries add their own fields. Ordered by time, then causal rank,
    then label — fully deterministic.
    """
    entries: list[dict] = []
    for record in bundle.get("faults", ()):
        kind = record.get("kind", "")
        detail = record.get("detail", "")
        entry_type = "repair" if is_heal(kind, detail) else "fault"
        entries.append(
            {
                "time": record["time"],
                "type": entry_type,
                "label": kind,
                "detail": " ".join(
                    part for part in (record.get("target", ""), detail)
                    if part
                ),
                "target": record.get("target", ""),
            }
        )
    for record in bundle.get("alerts", ()):
        state = record.get("state")
        entry_type = "alert" if state == "firing" else "resolution"
        group = record.get("group", "")
        entries.append(
            {
                "time": record["time"],
                "type": entry_type,
                "label": record.get("name", ""),
                "detail": (
                    f"{record.get('source', '')} {state}"
                    + (f" group={group}" if group else "")
                ),
                "source": record.get("source", ""),
                "severity": record.get("severity", ""),
            }
        )
    for record in bundle.get("events", ()):
        name = record.get("name", "")
        attrs = record.get("attrs", {})
        if name in ("tier.promote", "tier.demote"):
            entries.append(
                {
                    "time": record["time"],
                    "type": "action",
                    "label": name,
                    "detail": " ".join(
                        f"{key}={attrs[key]}" for key in sorted(attrs)
                    ),
                }
            )
        elif name == "recorder.exception":
            entries.append(
                {
                    "time": record["time"],
                    "type": "exception",
                    "label": attrs.get("error", "Exception"),
                    "detail": attrs.get("component", ""),
                }
            )
    entries.extend(_deviations(bundle, deviation_factor))
    entries.sort(
        key=lambda e: (e["time"], _TYPE_RANK.get(e["type"], 9), e["label"])
    )
    return entries


def causal_chain(timeline: list[dict]) -> dict:
    """First occurrence per causal stage and whether the story closed.

    ``complete`` means the canonical arc — fault, deviation, alert,
    repair, resolution — all appeared, in non-decreasing time order.
    """
    first: dict[str, float] = {}
    for entry in timeline:
        first.setdefault(entry["type"], entry["time"])
    stages = ("fault", "deviation", "alert", "repair", "resolution")
    times = [first.get(stage) for stage in stages]
    complete = all(t is not None for t in times) and all(
        a <= b for a, b in zip(times, times[1:])
    )
    return {
        "stages": {stage: first.get(stage) for stage in stages},
        "complete": complete,
        "detection_delay": (
            first["alert"] - first["fault"]
            if "alert" in first and "fault" in first
            and first["alert"] >= first["fault"]
            else None
        ),
        "time_to_repair": (
            first["repair"] - first["fault"]
            if "repair" in first and "fault" in first
            and first["repair"] >= first["fault"]
            else None
        ),
        "time_to_resolve": (
            first["resolution"] - first["fault"]
            if "resolution" in first and "fault" in first
            and first["resolution"] >= first["fault"]
            else None
        ),
    }


# ----------------------------------------------------------------------
# Blast radius and degraded critical paths
# ----------------------------------------------------------------------
def _degraded_interval(bundle: dict, timeline: list[dict]) -> tuple:
    """``[first damaging fault, last resolution]``, clipped to window."""
    lo, hi = bundle["incident"]["window"]
    fault_times = [e["time"] for e in timeline if e["type"] == "fault"]
    resolution_times = [
        e["time"] for e in timeline if e["type"] == "resolution"
    ]
    start = min(fault_times) if fault_times else lo
    end = max(resolution_times) if resolution_times else hi
    return (start, max(start, end))


def _bundle_trace(bundle: dict) -> Trace:
    # Window clipping orphans some parents; the DAG degrades gracefully
    # (clipped children become roots) and validation noise is expected,
    # so Trace.problems is deliberately ignored here.
    return Trace([*bundle.get("spans", ()), *bundle.get("events", ())])


def blast_radius(
    bundle: dict, timeline: list[dict], trace: Trace | None = None
) -> dict:
    """Who got hurt: requests, tiers, and workers in the degraded window."""
    if trace is None:
        trace = _bundle_trace(bundle)
    start, end = _degraded_interval(bundle, timeline)
    requests: set[int] = set()
    tiers: set[str] = set()
    workers: set[str] = set()
    tenants: set[str] = set()
    for node in trace.spans.values():
        if node.end < start or node.start > end:
            continue
        requests.add(node.trace_id)
        tier = node.tier_label()
        if tier is not None:
            tiers.update(tier.split("+"))
        attrs = node.attrs
        for key in _WORKER_ATTRS:
            value = attrs.get(key)
            if isinstance(value, str) and value:
                workers.add(value.split(":", 1)[0])
        tenant = attrs.get("tenant")
        if isinstance(tenant, str) and tenant:
            tenants.add(tenant)
    for entry in timeline:
        if entry["type"] in ("fault", "repair") and entry.get("target"):
            workers.add(entry["target"].split(":", 1)[0])
    return {
        "degraded_interval": [start, end],
        "affected_requests": len(requests),
        "request_ids": sorted(requests),
        "tiers": sorted(tiers),
        "workers": sorted(workers),
        "tenants": sorted(tenants),
    }


def blast_radius_decisions(bundle: dict, timeline: list[dict]) -> list[dict]:
    """Replica-affecting decisions inside the degraded interval.

    Pulled from the bundle's optional ``decisions`` section (fed by an
    attached provenance ledger); empty for pre-provenance bundles or
    runs without a ledger.
    """
    decisions = bundle.get("decisions")
    if not decisions:
        return []
    start, end = _degraded_interval(bundle, timeline)
    return [
        {
            "seq": record.get("seq"),
            "time": record["time"],
            "action": record.get("action", ""),
            "path": record.get("path", ""),
            "incident": record.get("incident"),
            "summary": decision_summary(record),
        }
        for record in decisions
        if start <= record["time"] <= end
    ]


def degraded_critical_paths(
    bundle: dict,
    timeline: list[dict],
    trace: Trace | None = None,
    top: int = 5,
) -> list[dict]:
    """Critical paths of the slowest requests inside the degraded window.

    Only *true* request roots (``span_id == trace_id``) are analyzed —
    clipped subtrees whose parents fell off the ring would misattribute
    time.
    """
    if trace is None:
        trace = _bundle_trace(bundle)
    start, end = _degraded_interval(bundle, timeline)
    roots = [
        node for node in trace.roots
        if node.span_id == node.trace_id
        and node.end >= start and node.start <= end
    ]
    roots.sort(key=lambda r: (-r.duration, r.span_id))
    return [critical_path_report(trace, root) for root in roots[:top]]


# ----------------------------------------------------------------------
# Chrome bridge
# ----------------------------------------------------------------------
def bundle_trace_records(bundle: dict, timeline: list[dict] | None = None):
    """The bundle as a trace-record stream with an incidents lane.

    The captured spans and events pass through untouched; every
    timeline entry additionally becomes an ``incident.<type>`` instant
    event with no trace id, which :mod:`repro.obs.chrome` renders on a
    dedicated ``incidents`` lane of the global row.
    """
    if timeline is None:
        timeline = build_timeline(bundle)
    records = [*bundle.get("spans", ()), *bundle.get("events", ())]
    for entry in timeline:
        records.append(
            {
                "kind": "event",
                "name": f"incident.{entry['type']}",
                "time": entry["time"],
                "trace_id": None,
                "parent_id": None,
                "attrs": {
                    "label": entry["label"],
                    "detail": entry["detail"],
                },
            }
        )
    return records


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------
def postmortem_report(
    bundle: dict, top: int = 5, deviation_factor: float = 2.0
) -> dict:
    """The complete postmortem document for one incident bundle."""
    incident = bundle["incident"]
    timeline = build_timeline(bundle, deviation_factor=deviation_factor)
    trace = _bundle_trace(bundle)
    return {
        "incident": {
            "id": incident["id"],
            "triggered_at": incident["triggered_at"],
            "closed_at": incident["closed_at"],
            "window": list(incident["window"]),
            "triggers": list(incident["triggers"]),
        },
        "captured": {
            section: len(bundle.get(section, ()))
            for section in bundle_sections(bundle)
        },
        "timeline": timeline,
        "causal_chain": causal_chain(timeline),
        "blast_radius": blast_radius(bundle, timeline, trace),
        "decisions": blast_radius_decisions(bundle, timeline),
        "critical_paths": degraded_critical_paths(
            bundle, timeline, trace, top=top
        ),
        "problems": validate_bundle(bundle),
    }


def postmortem_json(report: dict) -> str:
    """Canonical (byte-stable) JSON rendering of a postmortem report."""
    return canonical_json(report, indent=2)


def postmortem_text(report: dict) -> str:
    """The human rendering ``repro postmortem`` prints by default."""
    incident = report["incident"]
    chain = report["causal_chain"]
    radius = report["blast_radius"]
    lines = [
        f"incident #{incident['id']}  "
        f"window [{incident['window'][0]:.3f}s, "
        f"{incident['window'][1]:.3f}s]",
        "triggers: " + "; ".join(
            f"{t['reason']}@{t['time']:.3f}s ({t['detail']})"
            if t.get("detail") else f"{t['reason']}@{t['time']:.3f}s"
            for t in incident["triggers"]
        ),
        "",
        "timeline:",
    ]
    for entry in report["timeline"]:
        detail = f"  {entry['detail']}" if entry["detail"] else ""
        lines.append(
            f"  {entry['time']:9.3f}s  {entry['type']:<10s} "
            f"{entry['label']}{detail}"
        )
    lines.append("")
    lines.append(
        "causal chain: "
        + ("complete" if chain["complete"] else "incomplete")
        + " ("
        + " -> ".join(
            f"{stage}@{time:.3f}s" if time is not None else f"{stage}@?"
            for stage, time in chain["stages"].items()
        )
        + ")"
    )
    if chain["detection_delay"] is not None:
        lines.append(
            f"detection delay: {chain['detection_delay']:.3f}s"
            + (
                f"  time to repair: {chain['time_to_repair']:.3f}s"
                if chain["time_to_repair"] is not None else ""
            )
            + (
                f"  time to resolve: {chain['time_to_resolve']:.3f}s"
                if chain["time_to_resolve"] is not None else ""
            )
        )
    lines.append(
        f"blast radius: {radius['affected_requests']} requests, "
        f"tiers [{', '.join(radius['tiers'])}], "
        f"workers [{', '.join(radius['workers'])}]"
        + (
            f", tenants [{', '.join(radius['tenants'])}]"
            if radius["tenants"] else ""
        )
    )
    if report.get("decisions"):
        lines.append("")
        lines.append("decisions in the blast radius:")
        for entry in report["decisions"]:
            lines.append(
                f"  {entry['time']:9.3f}s  {entry['action']:<16s} "
                f"{entry['path']}  {entry['summary']}"
            )
    if report["critical_paths"]:
        lines.append("")
        lines.append("degraded critical paths:")
        for path in report["critical_paths"]:
            lines.append(
                f"  request {path['trace_id']} ({path['root']}, "
                f"{path['duration']:.3f}s) dominated by {path['dominant']}"
            )
    if report["problems"]:
        lines.append("")
        lines.append("bundle problems:")
        for problem in report["problems"]:
            lines.append(f"  - {problem}")
    return "\n".join(lines) + "\n"
