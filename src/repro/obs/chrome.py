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

The document is streamed. Its metadata comes first but names every
request and lane, so it needs a first pass over the records: that pass
keeps each request's root name and each record's tid, and nothing else
outlives it. The second pass builds each payload event only when the
writer reaches it, and the writer encodes a small batch at a time, so
no event list and no document-sized string is ever held. Records of
any kind but ``span`` and ``event`` are dropped before either pass and
leave no row behind; ``validate("trace", records)`` flags them.
"""

from __future__ import annotations

import json
from array import array
from itertools import islice
from typing import Iterable, Iterator

from repro.obs.export import canonical_json, write_text

#: pid used for records that belong to no request (orphan events).
GLOBAL_PID = 0

_MICROS = 1e6
_KINDS = ("span", "event")
_OTHER_DATA = {"exporter": "repro.obs.chrome", "spec": "trace-event"}
#: The document's text around its event list: ``…"traceEvents":[`` and ``]}\n``.
_HEAD, _TAIL = canonical_json(
    {"displayTimeUnit": "ms", "otherData": _OTHER_DATA, "traceEvents": [None]}
).split("null")
#: Events per encoder call: few enough that a batch weighs less than the
#: first pass's state, enough that the per-call cost does not show.
_BATCH = 32
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


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


def _pid(record: dict) -> int:
    """The process row (request) a record renders on."""
    trace_id = record.get("trace_id")
    return GLOBAL_PID if trace_id is None else trace_id


def _events(records: Iterable[dict]) -> Iterator[dict]:
    """The document's trace events in order: metadata, then payload."""
    records = [record for record in records if record.get("kind") in _KINDS]
    # The first pass keeps each request's root name and each record's
    # tid, the rank of its (pid, lane) by first appearance; the map that
    # ranks the pairs is gone before the first event is built.
    roots: dict[int, str] = {}  # pid -> its root span's name
    tids = array("L")
    ranks: dict[str, dict[int, int]] = {}  # lane -> pid -> tid
    pairs = 0
    for record in records:
        pid = _pid(record)
        tid = ranks.setdefault(_lane(record), {}).setdefault(pid, pairs + 1)
        pairs = max(pairs, tid)
        tids.append(tid)
        if record["kind"] == "span" and record.get("span_id") == record.get("trace_id"):
            roots[pid] = record.get("name", "request")
        else:
            roots.setdefault(pid, "trace")
    del ranks

    for pid in sorted(roots):
        label = "(no request)" if pid == GLOBAL_PID else f"request {pid}: {roots[pid]}"
        yield {
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": label},
        }
        yield {
            "ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
            "args": {"sort_index": pid},
        }
    named = 0
    for record, tid in zip(records, tids):
        if tid > named:  # the pair's first record
            named = tid
            yield {
                "ph": "M", "name": "thread_name", "pid": _pid(record), "tid": tid,
                "args": {"name": _lane(record)},
            }

    for record, tid in zip(records, tids):
        pid, lane = _pid(record), _lane(record)
        args = dict(record.get("attrs", {}))
        if record["kind"] == "span":
            args["span_id"] = record["span_id"]
            args["status"] = record["status"]
            yield {
                "ph": "X", "name": record["name"], "cat": lane,
                "ts": record["start"] * _MICROS,
                "dur": (record["end"] - record["start"]) * _MICROS,
                "pid": pid, "tid": tid, "args": args,
            }
        else:
            yield {
                "ph": "i", "s": "t",  # thread-scoped instant
                "name": record["name"], "cat": lane,
                "ts": record["time"] * _MICROS,
                "pid": pid, "tid": tid, "args": args,
            }


def _pieces(events: Iterator[dict]) -> Iterator[str]:
    """The document's canonical text around *events*, a batch at a time.

    An encoded list minus its brackets is its members joined by ``,``.
    """
    yield _HEAD
    separator = ""
    while batch := list(islice(events, _BATCH)):
        yield separator + _ENCODER.encode(batch)[1:-1]
        separator = ","
    yield _TAIL


def chrome_trace(records: Iterable[dict]) -> dict:
    """Build the trace-event JSON document for a record stream."""
    return {
        "traceEvents": list(_events(records)),
        "displayTimeUnit": "ms",
        "otherData": dict(_OTHER_DATA),
    }


def chrome_trace_json(records: Iterable[dict]) -> str:
    """The document as canonical (byte-stable) JSON."""
    return "".join(_pieces(_events(records)))


def write_chrome_trace(records: Iterable[dict], path: str) -> int:
    """Write the Chrome trace for *records* to *path*, streamed; returns
    the number of trace events written.

    A path ending in ``.gz`` compresses with the same pinned-header
    gzip conventions as :func:`repro.obs.export.write_jsonl` (mtime=0,
    no embedded filename), so compressed artifacts stay byte-stable.
    """
    written = 0

    def counted() -> Iterator[dict]:
        nonlocal written
        for written, event in enumerate(_events(records), 1):
            yield event

    write_text(_pieces(counted()), path)
    return written
