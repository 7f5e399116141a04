"""The on-disk format of every artefact this package writes.

This is the only module that knows it: canonical JSON text (compact for
streams and machine documents, indented for reports), the gz-or-plain
file convention, the ``schema_version`` header, and the schema table
behind :func:`validate`. The writers and readers of the other modules
(:func:`~repro.obs.chrome.write_chrome_trace`,
:func:`~repro.obs.recorder.write_bundle`,
:func:`~repro.obs.analyze.read_trace_file`,
:func:`~repro.obs.postmortem.read_bundle`, ...) are thin bindings onto
the functions here.

All serialization is deterministic: dict keys are sorted, instruments
are emitted in registry order, floats pass through ``repr`` via
``json.dumps``, and gzip streams pin ``mtime=0`` with no embedded
filename — so two identically-seeded simulation runs produce
byte-identical artefacts, compressed or not.
"""

from __future__ import annotations

import gzip
import io
import json
from contextlib import contextmanager
from itertools import chain
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from repro.obs.registry import Counter, Gauge, Histogram, TimeSeries, snapshot_entry

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.system import OctopusFileSystem
    from repro.obs.registry import MetricsRegistry

#: The export format version stamped on every JSONL header and JSON
#: document this package writes. Bump the major on breaking layout
#: changes; readers accept any minor of the current major and reject
#: newer majors with a clear error instead of a cryptic parse failure.
SCHEMA_VERSION = "1.0"

#: The highest major version the readers in this tree understand.
SCHEMA_MAJOR = 1


class ArtifactError(ValueError):
    """An unreadable, too-new, mislabelled or structurally invalid artefact."""


def header_record(stream: str | None = None) -> dict:
    """The header line every JSONL export starts with."""
    record = {"kind": "header", "schema_version": SCHEMA_VERSION}
    if stream:
        record["stream"] = stream
    return record


def schema_version_problem(version: object) -> str | None:
    """Why ``version`` cannot be read by this tree (``None`` = fine)."""
    if version is None:
        return "header is missing schema_version"
    try:
        major = int(str(version).split(".", 1)[0])
    except ValueError:
        return f"unparseable schema_version {version!r}"
    if major > SCHEMA_MAJOR:
        return (
            f"schema_version {version} is newer than the supported "
            f"{SCHEMA_MAJOR}.x; upgrade this tool to read it"
        )
    return None


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def canonical_json(value: object, indent: int | None = None) -> str:
    """``value`` as byte-stable JSON text ending in a newline: one
    compact line by default, an indented report with ``indent``."""
    if indent is not None:
        return "".join(_indented(value, " " * indent)) + "\n"
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


def _indented(value: object, step: str, pad: str = "\n") -> Iterator[str]:
    """The text ``json.dumps(value, sort_keys=True, indent=len(step))``
    returns, in pieces; ``pad`` is the newline and indentation the
    enclosing level closes on.

    ``json`` itself is not asked: its C encoder does not indent, and
    the pure-Python one it falls back to resumes a chain of generators
    per token. So the layout — every member of a non-empty container on
    its own line, one ``step`` deeper — is spelled here, and the C
    encoder renders the keys, the scalars and the empty containers. A
    registry instrument becomes its snapshot entry when the writer
    reaches it and not before, so one series' samples are copied at a
    time; an array of ``[float, float]`` pairs — those samples — is one
    piece, rendered by :func:`_sample_array`.
    """
    inner = pad + step
    if isinstance(value, dict) and value:
        lead = "{" + inner
        for key, member in sorted(value.items()):
            # '{"key": 0}' minus the braces and the 0: json's own key
            # coercion (int, float, bool, None), its TypeError otherwise.
            yield lead + json.dumps({key: 0})[1:-2]
            yield from _indented(member, step, inner)
            lead = "," + inner
        yield pad + "}"
    elif isinstance(value, (list, tuple)) and value:
        samples = _sample_array(value, inner, inner + step)
        if samples is not None:
            yield "[" + inner + samples + pad + "]"
            return
        lead = "[" + inner
        for member in value:
            yield lead
            yield from _indented(member, step, inner)
            lead = "," + inner
        yield pad + "]"
    elif isinstance(value, (Counter, Gauge, Histogram, TimeSeries)):
        yield from _indented(snapshot_entry(value), step, pad)
    else:
        yield json.dumps(value)


def _sample_array(pairs: list | tuple, inner: str, leaf: str) -> str | None:
    """The members of a non-empty array of ``[float, float]`` pairs, each
    number exactly as ``json`` writes it (``float.__repr__``) — or
    ``None`` for anything else, which the general route then renders:
    a member that is not a pair, a ``bool`` or ``int`` among the
    numbers, ``inf`` / ``nan`` (``Infinity`` / ``NaN`` to ``json``)."""
    if {*map(type, pairs)} <= {list, tuple} and {*map(len, pairs)} == {2}:
        numbers = tuple(chain.from_iterable(pairs))
        if {*map(type, numbers)} == {float}:
            pair = f"[{leaf}%r,{leaf}%r{inner}]"
            text = f",{inner}".join([pair] * len(pairs)) % numbers
            # repr spells the non-finite inf and nan; no finite float has an n.
            return None if "n" in text else text
    return None


@contextmanager
def open_text(path: str, mode: str = "r") -> Iterator[IO[str]]:
    """A UTF-8 text handle on ``path`` (``"r"`` or ``"w"``), through gzip
    when the path ends in ``.gz``.

    The gzip stream is built with ``mtime=0`` and no embedded filename,
    so compressed artefacts depend only on their content — as
    byte-deterministic as the plain-text ones.
    """
    if not path.endswith(".gz"):
        with open(path, mode, encoding="utf-8") as handle:
            yield handle
    elif mode == "r":
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            yield handle
    else:
        # The BufferedWriter batches per-line writes and keeps the text
        # layer's closing flush() away from the GzipFile, where it would
        # append a sync-flush block and change the bytes.
        with open(path, "wb") as raw, gzip.GzipFile(
            fileobj=raw, mode="wb", mtime=0, filename=""
        ) as packed, io.TextIOWrapper(
            io.BufferedWriter(packed, 1 << 16), encoding="utf-8", newline="\n"
        ) as handle:
            yield handle


def to_jsonl(records: Iterable[dict]) -> str:
    """Serialize trace records, one canonical JSON object per line."""
    return "".join(canonical_json(record) for record in records)


def write_jsonl(
    records: Iterable[dict], path: str, stream: str | None = None
) -> None:
    """Write records as JSONL behind a ``schema_version`` header line,
    one line at a time (the stream is never held as one string)."""
    with open_text(path, "w") as handle:
        handle.write(canonical_json(header_record(stream)))
        for record in records:
            handle.write(canonical_json(record))


def write_text(text: str | Iterable[str], path: str) -> None:
    """Write ``text`` — one string, or the pieces of one — to ``path``
    (``.gz`` compresses)."""
    with open_text(path, "w") as handle:
        handle.writelines((text,) if isinstance(text, str) else text)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def iter_records(
    lines: Iterable[str],
    on_error: str = "raise",
    problems: list[str] | None = None,
    error: type[ArtifactError] = ArtifactError,
    where: str = "",
) -> Iterator[dict]:
    """Yield one dict per good JSONL line.

    ``on_error`` is ``"raise"`` (default) or ``"skip"``. Raising names
    ``where`` (the file) and the line number in an ``error``; skipping
    drops malformed lines — garbage, truncation mid-object, non-object
    JSON — and describes them in ``problems`` (when a list is passed)
    so callers can report without aborting. Blank lines are ignored
    either way.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', not {on_error!r}")
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            message = (
                None if isinstance(record, dict)
                else f"line {lineno}: not a JSON object"
            )
        except ValueError as exc:
            message = f"line {lineno}: invalid JSON ({exc})"
        if message is None:
            yield record
        elif on_error == "raise":
            raise error(where + message)
        elif problems is not None:
            problems.append(message)


def read_records(
    lines: Iterable[str],
    on_error: str = "raise",
    problems: list[str] | None = None,
    error: type[ArtifactError] = ArtifactError,
    where: str = "",
) -> list[dict]:
    """JSONL lines → records, the leading header checked and stripped.

    A header from a newer major version raises ``error`` with a clear
    upgrade message rather than surfacing as record-level schema noise.
    Headerless streams (in-memory records, pre-versioning files) read
    unchanged.
    """
    records = list(iter_records(lines, on_error, problems, error, where))
    if records and records[0].get("kind") == "header":
        problem = schema_version_problem(records.pop(0).get("schema_version"))
        if problem:
            raise error(where + problem)
    return records


def read_artifact(
    path: str,
    expect: str | None = None,
    on_error: str = "raise",
    problems: list[str] | None = None,
    error: type[ArtifactError] = ArtifactError,
) -> tuple[str | None, list[dict] | dict]:
    """Read any artefact this package writes: ``(kind, payload)``.

    The kind (a :data:`SCHEMAS` key) is sniffed from the content — the
    first record's ``kind``, a bundle's ``kind``, ``traceEvents``,
    ``counters`` — never from the file name; ``None`` means the content
    is nothing this package writes. The payload is the header-stripped
    record list of a JSONL stream, or the dict of a JSON document. With
    ``expect``, any other kind is one ``error`` naming the kind found
    (an empty stream passes for every stream kind). An unreadable file,
    a malformed line (``on_error``/``problems`` as for
    :func:`iter_records`) or a newer-major ``schema_version`` is an
    ``error`` naming the path.
    """
    where = f"{path}: "
    try:
        with open_text(path) as handle:
            lines = list(handle)
    except (OSError, EOFError, UnicodeDecodeError) as exc:
        raise error(
            f"{where}cannot read {expect or 'artefact'} ({exc})"
        ) from None
    streamed = expect is not None and SCHEMAS[expect].records is not None
    if not streamed:
        # A document may be indented over many lines; it is then one
        # value, not a stream, exactly when its first line is not.
        try:
            json.loads(next((ln for ln in lines if ln.strip()), "null"))
        except ValueError:
            lines = ["".join(lines)]
    records = read_records(lines, on_error, problems, error, where)
    first = records[0] if records else {}
    found = _sniff(first)
    if expect not in (None, found) and (records or not streamed):
        seen = _describe(found) if found else f"kind {first.get('kind')!r}"
        raise error(f"{where}expected {_describe(expect)}, found {seen}")
    if found is None or SCHEMAS[found].records is not None:
        return found or expect, records
    if SCHEMAS[found].versioned:
        problem = schema_version_problem(first.get("schema_version"))
        if problem:
            raise error(where + problem)
    return found, first


def read_jsonl_records(path: str) -> list[dict]:
    """Read a JSONL export back, checking and stripping its header.

    A path ending in ``.gz`` is transparently gunzipped. Raises
    :class:`ArtifactError` (a :class:`ValueError`) on an unreadable
    file, malformed lines or a header whose major schema version is
    newer than this tree supports.
    """
    return read_artifact(path)[1]


def load(path: str, kind: str) -> list[dict] | dict:
    """Read the ``kind`` artefact at ``path`` and validate it: the
    payload, or one :class:`ArtifactError` listing every problem (one
    per line)."""
    payload = read_artifact(path, kind)[1]
    problems = validate(kind, payload)
    if problems:
        raise ArtifactError("\n".join(f"{path}: {p}" for p in problems))
    return payload


# ----------------------------------------------------------------------
# The schema table
# ----------------------------------------------------------------------
#: The sections every incident bundle carries (all lists of records).
BUNDLE_SECTIONS = (
    "spans", "events", "metric_deltas", "faults", "health", "alerts"
)

#: Sections newer recorders add; validated and reported only when
#: present, so pre-provenance bundles stay fully readable.
OPTIONAL_SECTIONS = ("decisions",)


def bundle_sections(bundle: dict) -> tuple[str, ...]:
    """The sections ``bundle`` carries: the fixed ones plus the
    optional ones present."""
    return BUNDLE_SECTIONS + tuple(
        s for s in OPTIONAL_SECTIONS if s in bundle
    )


#: Required keys per ledger ``action``, beyond the decision base keys.
LEDGER_ACTION_KEYS = {
    "placement": {"block", "vector", "cause", "targets"},
    "repair": {"block", "destination", "source", "context"},
    "tiering": {"tiering_kind", "tier", "heat", "outcome", "policy", "round"},
    "balancer_move": {"block", "source", "destination", "tier", "bytes"},
    "set_replication": {"old", "new", "outcome"},
    "replica_removed": {"block", "medium", "tier", "cause"},
    "delete": {"blocks"},
}


def _trace_checks(records: list[tuple[int, dict]]) -> Iterator[tuple]:
    """Spans end after they start; every non-root ``parent_id`` and
    ``trace_id`` refers to a span that appears in the stream."""
    spans = [record for _, record in records if record["kind"] == "span"]
    known = {
        "parent_id": {span["span_id"] for span in spans},
        "trace_id": {span["trace_id"] for span in spans},
    }
    for index, record in records:
        if record["kind"] == "span" and record["end"] < record["start"]:
            yield index, "span ends before it starts"
        for key, ids in known.items():
            if record[key] is not None and record[key] not in ids:
                yield index, f"{key} {record[key]} not in stream"


def _alert_checks(records: list[tuple[int, dict]]) -> Iterator[tuple]:
    """Sim timestamps never go backwards, and each alert key's states
    alternate (a resolve must follow a firing, and vice versa)."""
    last_time: float | None = None
    state: dict[tuple, str] = {}
    for index, record in records:
        if record["state"] not in ("firing", "resolved"):
            yield index, f"unknown state {record['state']!r}"
            continue
        if last_time is not None and record["time"] < last_time:
            yield index, "time goes backwards"
        last_time = record["time"]
        key = (record["source"], record["name"], record["group"])
        previous = state.get(key)
        if previous == record["state"]:
            yield index, (
                f"{record['name']!r} repeated state {record['state']!r} "
                "without a transition"
            )
        if previous is None and record["state"] == "resolved":
            yield index, f"{record['name']!r} resolved before firing"
        state[key] = record["state"]


def _ledger_checks(records: list[tuple[int, dict]]) -> Iterator[tuple]:
    """Known actions with their per-action keys; sequence numbers
    strictly increase and timestamps never go backwards."""
    last_seq: int | None = None
    last_time: float | None = None
    for index, record in records:
        action = record["action"]
        if action not in LEDGER_ACTION_KEYS:
            yield index, f"unknown action {action!r}"
            continue
        missing = LEDGER_ACTION_KEYS[action] - record.keys()
        if missing:
            yield index, f"{action} missing {sorted(missing)}"
        if last_seq is not None and record["seq"] <= last_seq:
            yield index, (
                f"seq {record['seq']} does not increase (after {last_seq})"
            )
        last_seq = record["seq"]
        if last_time is not None and record["time"] < last_time:
            yield index, "time goes backwards"
        last_time = record["time"]


def _metrics_checks(document: dict) -> Iterator[str]:
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(document.get(section), list):
            yield f"section {section!r} missing or not a list"


#: Keys a trace event needs beyond ph/name/pid/tid, per phase: complete
#: spans, instants, metadata.
_PHASE_KEYS = {"X": {"ts", "dur"}, "i": {"ts"}, "M": {"args"}}


def _chrome_checks(document: dict) -> Iterator[str]:
    """Structural check against the trace-event schema."""
    events = document.get("traceEvents")
    if not isinstance(events, list):
        yield "traceEvents missing or not a list"
        return
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            yield f"event {index}: not an object"
            continue
        missing = {"ph", "name", "pid", "tid"} - event.keys()
        if missing:
            yield f"event {index}: missing {sorted(missing)}"
            continue
        phase = event["ph"]
        if phase not in _PHASE_KEYS:
            yield f"event {index}: unsupported phase {phase!r}"
        elif needs := _PHASE_KEYS[phase] - event.keys():
            yield f"event {index}: {phase} event needs {sorted(needs)}"
        elif phase == "X" and event["dur"] < 0:
            yield f"event {index}: negative duration"
        elif phase == "M" and not (
            isinstance(event["args"], dict) and event["args"]
        ):
            yield f"event {index}: metadata needs non-empty args"


def _bundle_checks(bundle: dict) -> Iterator[str]:
    """An incident with a ``[lo, hi]`` window and at least one trigger;
    every section a list whose records fall inside the window."""
    incident = bundle.get("incident")
    if not isinstance(incident, dict):
        yield "incident section missing or not an object"
        return
    for key in ("id", "triggered_at", "closed_at", "window", "triggers"):
        if key not in incident:
            yield f"incident missing {key!r}"
    window = incident.get("window")
    if (
        not isinstance(window, list) or len(window) != 2
        or not all(isinstance(v, (int, float)) for v in window)
    ):
        yield "incident window is not a [lo, hi] pair"
        window = None
    elif window[0] > window[1]:
        yield "incident window lo > hi"
    if not incident.get("triggers"):
        yield "incident has no triggers"
    for section in bundle_sections(bundle):
        records = bundle.get(section)
        if not isinstance(records, list):
            yield f"section {section!r} missing or not a list"
            continue
        if window is None:
            continue
        lo, hi = window
        for index, record in enumerate(records):
            if not isinstance(record, dict):
                yield f"{section}[{index}]: not an object"
                continue
            if section == "spans":
                inside = (
                    record.get("end", lo) >= lo
                    and record.get("start", hi) <= hi
                )
            else:
                time = record.get("time")
                inside = (
                    isinstance(time, (int, float)) and lo <= time <= hi
                )
            if not inside:
                yield f"{section}[{index}]: outside the incident window"


class Schema(NamedTuple):
    """How one artefact kind is recognised and checked."""

    #: What the artefact holds, for "expected ..., found ..." errors.
    what: str
    #: JSONL streams: required keys per record ``kind``. ``None`` marks
    #: a single JSON document.
    records: dict[str, set] | None
    #: Checks beyond required keys. Streams: the well-formed
    #: ``(index, record)`` pairs → ``(index, problem)`` pairs;
    #: documents: the dict → problems.
    checks: Callable
    #: Whether a document carries ``schema_version`` (streams carry it
    #: in their header line; the trace-event format has no place for it).
    versioned: bool = True


#: Every artefact kind this package writes.
SCHEMAS: dict[str, Schema] = {
    "trace": Schema(
        "span/event records",
        {
            "span": {"name", "span_id", "trace_id", "parent_id", "start",
                     "end", "status"},
            "event": {"name", "time", "trace_id", "parent_id"},
        },
        _trace_checks,
    ),
    "alerts": Schema(
        "alert records",
        {"alert": {"source", "name", "state", "severity", "group", "time",
                   "details"}},
        _alert_checks,
    ),
    "ledger": Schema(
        "decision records",
        {"decision": {"seq", "time", "action", "path"}},
        _ledger_checks,
    ),
    "metrics": Schema("a metrics snapshot", None, _metrics_checks),
    "chrome": Schema("a traceEvents document", None, _chrome_checks, versioned=False),
    "bundle": Schema("an incident_bundle document", None, _bundle_checks),
}

_STREAM_OF = {
    record_kind: name
    for name, schema in SCHEMAS.items()
    for record_kind in schema.records or ()
}


def _sniff(first: dict) -> str | None:
    """The artefact kind whose first record (or document) is ``first``."""
    if "traceEvents" in first:
        return "chrome"
    if "counters" in first:
        return "metrics"
    kind = first.get("kind")
    return "bundle" if kind == "incident_bundle" else _STREAM_OF.get(kind)


def _describe(kind: str) -> str:
    return f"{kind} ({SCHEMAS[kind].what})"


def validate(kind: str, payload: Iterable[dict] | dict) -> list[str]:
    """Schema-check an artefact of ``kind``; problems (empty = ok).

    Streams: every record's ``kind`` is one the schema lists and
    carries its required keys (header lines are version-checked), then
    the schema's stream checks run over the well-formed records;
    problems come back in record order. Documents: the schema's
    structural check.
    """
    schema = SCHEMAS[kind]
    if schema.records is None:
        return list(schema.checks(payload))
    problems: list[tuple[int, str]] = []
    good: list[tuple[int, dict]] = []
    for index, record in enumerate(payload):
        name = record.get("kind")
        if name == "header":
            problem = schema_version_problem(record.get("schema_version"))
            if problem:
                problems.append((index, problem))
        elif name not in schema.records:
            problems.append((index, f"unknown kind {name!r}"))
        elif missing := schema.records[name] - record.keys():
            problems.append((index, f"{name} missing {sorted(missing)}"))
        else:
            good.append((index, record))
    problems.extend(schema.checks(good))
    problems.sort(key=lambda found: found[0])
    return [f"record {index}: {problem}" for index, problem in problems]


def validate_trace_records(records: Iterable[dict]) -> list[str]:
    """Schema-check trace records; return a list of problems (empty = ok)."""
    return validate("trace", records)


def validate_alert_records(records: Iterable[dict]) -> list[str]:
    """Schema-check alert records; return a list of problems (empty = ok)."""
    return validate("alerts", records)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_labels(labels, extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


def prometheus_text(registry: "MetricsRegistry") -> str:
    """Render the registry in the Prometheus text exposition format.

    Time-series instruments are exposed as gauges holding their last
    sample (the full series only exists in the JSON snapshot).
    """
    lines: list[str] = []
    seen_types: set[str] = set()
    for instrument in registry.instruments():
        name = _prom_name(instrument.name)
        kind = instrument.kind
        prom_type = {"counter": "counter", "gauge": "gauge",
                     "histogram": "histogram", "timeseries": "gauge"}[kind]
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {prom_type}")
        if kind == "counter" or kind == "gauge":
            lines.append(
                f"{name}{_prom_labels(instrument.labels)} "
                f"{_prom_value(instrument.value)}"
            )
        elif kind == "timeseries":
            last = instrument.last
            lines.append(
                f"{name}{_prom_labels(instrument.labels)} "
                f"{_prom_value(last if last is not None else 0.0)}"
            )
        elif kind == "histogram":
            for bound, count in instrument.cumulative_buckets():
                le = "+Inf" if bound == float("inf") else _prom_value(bound)
                le_label = 'le="' + le + '"'
                lines.append(
                    f"{name}_bucket"
                    f"{_prom_labels(instrument.labels, le_label)} {count}"
                )
            lines.append(
                f"{name}_sum{_prom_labels(instrument.labels)} "
                f"{_prom_value(instrument.total)}"
            )
            lines.append(
                f"{name}_count{_prom_labels(instrument.labels)} "
                f"{instrument.count}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Tier report
# ----------------------------------------------------------------------
def tier_report_data(fs: "OctopusFileSystem") -> dict:
    """The ``report`` command's data as a JSON-serializable dict."""
    tiers = []
    for stats in fs.master.get_storage_tier_reports():
        tiers.append(
            {
                "tier": stats.tier_name,
                "media_count": stats.media_count,
                "total_capacity": stats.total_capacity,
                "used": stats.used,
                "remaining": stats.remaining,
                "remaining_percent": stats.remaining_percent,
                "avg_write_throughput": stats.avg_write_throughput,
                "avg_read_throughput": stats.avg_read_throughput,
                "active_connections": stats.active_connections,
            }
        )
    return {
        "placement": repr(fs.master.placement_policy),
        "retrieval": repr(fs.master.retrieval_policy),
        "nodes": len(fs.cluster.nodes),
        "workers": len(fs.workers),
        "racks": len(fs.cluster.topology.racks),
        "tiers": tiers,
    }


def tier_utilization_rows(fs: "OctopusFileSystem") -> list[list]:
    """Per-tier summary rows (tier, media, used, remaining %, connections)."""
    return [
        [
            stats.tier_name,
            stats.media_count,
            stats.used,
            f"{stats.remaining_percent:.1f}%",
            stats.active_connections,
        ]
        for stats in fs.master.get_storage_tier_reports()
    ]


def _metrics_pieces(registry: "MetricsRegistry") -> Iterator[str]:
    """``metrics.json`` in pieces: what :meth:`MetricsRegistry.snapshot`
    holds under a ``schema_version``, read straight from the
    instruments, one at a time."""
    # A disabled registry has no sections, as its snapshot() has none.
    kinds = ("counter", "gauge", "histogram", "timeseries") if registry.enabled else ()
    sections: dict[str, list] = {kind + "s": [] for kind in kinds}
    for instrument in registry.instruments():
        sections[instrument.kind + "s"].append(instrument)
    yield from _indented({"schema_version": SCHEMA_VERSION, **sections}, "  ")
    yield "\n"


def metrics_json(registry: "MetricsRegistry") -> str:
    """The metrics snapshot as canonical (byte-stable) JSON."""
    return "".join(_metrics_pieces(registry))


def write_metrics(registry: "MetricsRegistry", path: str) -> None:
    """Write metrics to ``path`` — JSON if it ends in ``.json`` or
    ``.json.gz``, else Prometheus text exposition; a trailing ``.gz``
    gzip-compresses either format deterministically."""
    as_json = path.endswith((".json", ".json.gz"))
    write_text(_metrics_pieces(registry) if as_json else prometheus_text(registry), path)
