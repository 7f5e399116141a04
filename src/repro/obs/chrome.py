"""Chrome/Perfetto trace-event export.

Converts the JSONL span/event stream into the Trace Event Format that
``chrome://tracing`` and ``ui.perfetto.dev`` load directly:

* **process (pid) = request** — every trace root gets its own process
  row, named after the root span, so one block write/read reads as one
  collapsed track;
* **thread (tid) = lane** — within a request, spans land on lanes named
  for the component doing the work: ``client``, ``master``, ``worker``,
  and one ``flow …`` lane per tier combination a transfer crossed;
* spans become complete (``"ph": "X"``) events carrying their attrs as
  ``args``; point events become instants (``"ph": "i"``); process and
  thread names ship as metadata (``"ph": "M"``) records.

Timestamps are simulated **microseconds** (the format's native unit),
so one simulated second reads as one second in the viewer. Output is
deterministic: metadata first (sorted), then payload events in record
order, keys sorted by the serializer.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.export import canonical_json, read_artifact, validate, write_text

#: pid used for records that belong to no request (orphan events).
GLOBAL_PID = 0

_MICROS = 1e6


def _lane(record: dict) -> str:
    """The thread-lane a record renders on inside its request."""
    name = record.get("name", "")
    if name == "flow.transfer":
        attrs = record.get("attrs", {})
        tier = attrs.get("tier")
        if tier is None and attrs.get("tiers"):
            tier = "+".join(str(t) for t in attrs["tiers"])
        return f"flow {tier}" if tier else "flow"
    if record.get("kind") == "event":
        # Monitoring transitions get their own lane so burn alerts and
        # health flips line up visually against faults and transfers;
        # postmortem timeline markers get theirs for the same reason.
        if name in ("slo.alert", "health.alert"):
            return "alerts"
        if name.startswith("incident."):
            return "incidents"
        return "events"
    prefix = name.split(".", 1)[0]
    return prefix if prefix else "spans"


def chrome_trace(records: Iterable[dict]) -> dict:
    """Build the trace-event JSON document for a record stream.

    Linear in the records: one pass names the request roots, one builds
    the payload with O(1) pid/tid bookkeeping, and the metadata is one
    row per request and lane.
    """
    materialized = list(records)
    # Root names label the per-request process rows.
    root_names: dict[int, str] = {}
    for record in materialized:
        if (
            record.get("kind") == "span"
            and record.get("span_id") == record.get("trace_id")
        ):
            root_names[record["trace_id"]] = record.get("name", "request")

    pids: dict[int, None] = {}  # insertion-ordered set: O(1) membership
    tids: dict[tuple[int, str], int] = {}
    payload: list[dict] = []
    for record in materialized:
        trace_id = record.get("trace_id")
        pid = GLOBAL_PID if trace_id is None else trace_id
        pids[pid] = None
        lane = _lane(record)
        tid = tids.setdefault((pid, lane), len(tids) + 1)
        args = dict(record.get("attrs", {}))
        if record.get("kind") == "span":
            args["span_id"] = record["span_id"]
            args["status"] = record["status"]
            payload.append(
                {
                    "ph": "X",
                    "name": record["name"],
                    "cat": lane,
                    "ts": record["start"] * _MICROS,
                    "dur": (record["end"] - record["start"]) * _MICROS,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        elif record.get("kind") == "event":
            payload.append(
                {
                    "ph": "i",
                    "s": "t",  # thread-scoped instant
                    "name": record["name"],
                    "cat": lane,
                    "ts": record["time"] * _MICROS,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        # Unknown kinds are dropped; validate_trace_records flags them.

    metadata: list[dict] = []
    for pid in sorted(pids):
        label = (
            "(no request)"
            if pid == GLOBAL_PID
            else f"request {pid}: {root_names.get(pid, 'trace')}"
        )
        metadata.append(
            {
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": label},
            }
        )
        metadata.append(
            {
                "ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
                "args": {"sort_index": pid},
            }
        )
    for (pid, lane), tid in sorted(tids.items(), key=lambda kv: kv[1]):
        metadata.append(
            {
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": lane},
            }
        )
    return {
        "traceEvents": metadata + payload,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.chrome", "spec": "trace-event"},
    }


def chrome_trace_json(records: Iterable[dict]) -> str:
    """The document as canonical (byte-stable) JSON."""
    return canonical_json(chrome_trace(records))


def write_chrome_trace(records: Iterable[dict], path: str) -> dict:
    """Write the Chrome trace for *records* to *path*; returns the document.

    A path ending in ``.gz`` compresses with the same pinned-header
    gzip conventions as :func:`repro.obs.export.write_jsonl` (mtime=0,
    no embedded filename), so compressed artifacts stay byte-stable.
    """
    document = chrome_trace(records)
    write_text(canonical_json(document), path)
    return document


def read_chrome_trace(path: str) -> dict:
    """Read a Chrome trace document back (plain or ``.gz``).

    Raises :class:`~repro.obs.export.ArtifactError` (a
    :class:`ValueError`) with the offending path on unreadable or
    malformed content, or when the file holds some other artefact.
    """
    return read_artifact(path, "chrome")[1]


def validate_chrome_trace(document: dict) -> list[str]:
    """Structural check against the trace-event schema (empty = ok)."""
    return validate("chrome", document)
