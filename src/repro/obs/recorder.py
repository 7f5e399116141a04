"""The always-on flight recorder: triggered forensics over the trace.

When a fault fires an alert mid-run, the forensics question is "what
happened in the thirty seconds around it", not "replay everything".
The :class:`FlightRecorder` answers it with an *incident bundle*: a
self-contained, sim-clock window of the run's telemetry.

Most of that telemetry is already kept elsewhere, so the recorder keeps
no copy of it. At close it cuts the window from the sources:

* finished **trace spans** and point **events** from the tracer's
  :attr:`~repro.obs.tracing.Tracer.records`;
* applied **faults** from the window's ``fault.<kind>`` trace events,
  which the fault injector emits for every fault it applies;
* replica-affecting **decisions** from the attached
  :class:`~repro.obs.provenance.ProvenanceLedger`.

Only records produced while the recorder is attached count, in their
recorded order. What nothing else keeps lands in three bounded rings:
**metric watch-deltas** of the stock read-path instruments (via
:meth:`~repro.obs.registry.MetricsRegistry.watch`), **health sweeps**
and **alerts** (fed by the health monitor and every
:class:`~repro.obs.slo.AlertSink`). The recorder's own
``recorder.exception`` events are kept beside the trace and merged into
the window at the position they were raised.

When a trigger fires — a fault activation, an SLO alert, a health
invariant violation, or an unhandled engine exception — the recorder
opens an *incident*: it keeps collecting for ``post_roll`` simulated
seconds (an engine timer closes it deterministically), then cuts the
``pre_roll``-to-close window into an incident bundle, dumped as
byte-stable gzip JSON.

Determinism contract, mirroring the tracer and the SLO monitor: an
attached recorder only *observes* — it mints no instruments and emits
no trace records, so trace/metrics/Prometheus exports of a run with a
quiet recorder are byte-identical to a recorder-less run. All bundle
timestamps are simulation time and serialization is canonical, so two
seeded runs dump byte-identical bundles. Attaching takes the empty
``obs.recorder`` slot and detaching empties it again; while it is
``None``, every instrumented site costs one attribute load and one
``is not None`` check.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.obs.export import SCHEMA_VERSION, canonical_json, write_text

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.system import OctopusFileSystem
    from repro.sim.faults import FaultRecord

__all__ = [
    "RecorderConfig",
    "FlightRecorder",
    "HEAL_KINDS",
    "is_heal",
    "bundle_json",
    "write_bundle",
    "bundle_path",
]

#: Fault kinds that undo damage rather than cause it; they are recorded
#: but never open an incident, and the postmortem timeline renders them
#: as ``repair`` entries.
HEAL_KINDS = frozenset(
    {"restart", "unsilence", "repair_medium", "restore_node"}
)

#: The trigger sources that open incidents.
TRIGGER_KINDS = ("fault", "alert", "health", "exception")

#: Metric streams the recorder snapshots deltas of — the read-path
#: signals the stock SLO rules watch, so a bundle can show the
#: deviation that preceded the alert.
WATCH_METRICS = (
    ("histogram", "tier_read_seconds"),
    ("counter", "blocks_read_total"),
    ("counter", "block_reads_failed_total"),
)

#: Bounds of the rings holding what no other component keeps.
RING_LIMITS = {"metric_deltas": 8192, "health": 512, "alerts": 256}

#: Incidents per run; later triggers are counted as dropped instead of
#: dumping unbounded bundles.
MAX_INCIDENTS = 16

#: The trace event name prefix the fault injector emits per fault.
_FAULT_EVENT = "fault."


def is_heal(kind: str, detail: str = "") -> bool:
    """Whether a fault record undoes damage instead of causing it.

    ``degrade_medium``/``slow_node`` with ``factor >= 1`` restore full
    throughput and count as heals too.
    """
    if kind in HEAL_KINDS:
        return True
    if kind in ("degrade_medium", "slow_node") and detail.startswith(
        "factor="
    ):
        try:
            return float(detail[len("factor="):]) >= 1.0
        except ValueError:
            return False
    return False


@dataclass(frozen=True)
class RecorderConfig:
    """The capture window around a trigger."""

    #: Simulated seconds of history kept before the trigger instant.
    pre_roll: float = 30.0
    #: Simulated seconds captured after the trigger before the bundle
    #: is sealed (an engine timer closes the incident).
    post_roll: float = 10.0

    def __post_init__(self) -> None:
        if self.pre_roll < 0 or self.post_roll < 0:
            raise ConfigurationError("pre_roll/post_roll must be >= 0")


# ----------------------------------------------------------------------
# Bundle serialization (the read side lives in repro.obs.postmortem)
# ----------------------------------------------------------------------
def bundle_json(bundle: dict) -> str:
    """An incident bundle as canonical (byte-stable) JSON."""
    return canonical_json(bundle)


def write_bundle(bundle: dict, path: str) -> None:
    """Write a bundle; a ``.gz`` path compresses deterministically."""
    write_text(bundle_json(bundle), path)


def bundle_path(out_dir: str, bundle: dict) -> str:
    """Where ``bundle`` is dumped under ``out_dir`` (created on demand)."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(
        out_dir, f"incident-{bundle['incident']['id']:03d}.json.gz"
    )


def _require_enabled(obs) -> None:
    # The recorder windows the live tracer and hooks the registry, which
    # exist only while the bundle is enabled.
    if not obs.enabled:
        raise ConfigurationError(
            "FlightRecorder needs observability enabled; call "
            "obs.enable() first"
        )


def _fault(event: dict) -> dict:
    """A ``fault.<kind>`` trace event as a bundle's fault record."""
    attrs = event["attrs"]
    return {
        "time": event["time"],
        "kind": event["name"][len(_FAULT_EVENT):],
        "target": attrs["target"],
        "detail": attrs["detail"],
    }


class FlightRecorder:
    """Always-on capture with triggered incident bundles.

    Construct with a ``system`` (engine-driven runs; incidents close on
    an engine timer) or with ``obs=``/``clock=`` for engine-less
    harnesses, where :meth:`flush` seals any open incident. Call
    :meth:`attach` to start observing and :meth:`detach` (or
    :meth:`flush` at end of run) to stop.
    """

    def __init__(
        self,
        system: "OctopusFileSystem | None" = None,
        config: RecorderConfig | None = None,
        out_dir: str | None = None,
        obs=None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if system is not None:
            obs = system.obs
            engine = system.engine
            if clock is None:
                clock = lambda: engine.now  # noqa: E731
        elif obs is None:
            raise ConfigurationError(
                "FlightRecorder needs a system or an explicit obs bundle"
            )
        _require_enabled(obs)
        self.system = system
        self.obs = obs
        self.clock = clock if clock is not None else obs.now
        self.config = config if config is not None else RecorderConfig()
        self.out_dir = out_dir
        self.metric_deltas: deque = deque(
            maxlen=RING_LIMITS["metric_deltas"]
        )
        self.health: deque = deque(maxlen=RING_LIMITS["health"])
        self.alerts: deque = deque(maxlen=RING_LIMITS["alerts"])
        #: Closed incident summaries, in close order.
        self.incidents: list[dict] = []
        #: Closed bundles (always kept in memory; also written under
        #: ``out_dir`` when one is configured).
        self.bundles: list[dict] = []
        self.bundle_paths: list[str] = []
        self.dropped_triggers = 0
        self._open: dict | None = None
        self._timer = None
        # Where this attachment's window starts: the tracer's record
        # list and its length at attach, the attached ledger and its
        # sequence number then (a ledger attached later counts whole).
        self._trace: list = []
        self._trace_start = 0
        self._ledger_mark: tuple = (None, 0)
        #: ``(trace position, event)`` per ``recorder.exception``.
        self._exceptions: list[tuple[int, dict]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self.obs.recorder is self

    def attach(self) -> "FlightRecorder":
        """Take the empty ``obs.recorder`` slot, mark where the window
        starts in the trace and the ledger, and hook the metric
        watchers."""
        _require_enabled(self.obs)
        if self.obs.recorder is self:
            raise ConfigurationError("recorder already attached")
        if self.obs.recorder is not None:
            raise ConfigurationError(
                "another FlightRecorder is already attached to this obs "
                "bundle; detach it first"
            )
        self.obs.recorder = self
        self._trace = self.obs.tracer.records
        self._trace_start = len(self._trace)
        ledger = self.obs.ledger
        self._ledger_mark = (ledger, ledger.seq if ledger is not None else 0)
        self._exceptions = []
        for kind, name in WATCH_METRICS:
            self.obs.metrics.watch(kind, name, self._on_metric)
        if self.system is not None:
            self.system.engine.crash_listeners.append(self._on_crash)
        return self

    def detach(self) -> None:
        """Seal any open incident and empty the slot (idempotent)."""
        if self.obs.recorder is not self:
            return
        self.flush()
        self.obs.recorder = None
        if self.system is not None:
            listeners = self.system.engine.crash_listeners
            if self._on_crash in listeners:
                listeners.remove(self._on_crash)
        # Registry watchers cannot be unregistered; _on_metric checks
        # the slot and goes inert instead.

    def flush(self) -> None:
        """Close any open incident at the current instant (end of run)."""
        if self._open is not None:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self._close_open()

    # ------------------------------------------------------------------
    # Feeds
    # ------------------------------------------------------------------
    def _on_trace_record(self, record: dict) -> None:
        """Nothing to do: bundles cut spans and events from the trace.

        Kept because the end-to-end benchmark's layer tracer looks this
        name up on the class.
        """

    def _on_metric(self, instrument, value: float) -> None:
        if self.obs.recorder is not self:
            return
        self.metric_deltas.append(
            {
                "time": self.clock(),
                "kind": instrument.kind,
                "metric": instrument.name,
                "labels": dict(instrument.labels),
                "value": value,
            }
        )

    def on_fault(self, record: "FaultRecord") -> None:
        """Fed by :meth:`repro.sim.faults.FaultInjector._record`: a
        damaging fault opens an incident. The fault itself reaches the
        bundle through its ``fault.<kind>`` trace event."""
        if not is_heal(record.kind, record.detail):
            self.trigger("fault", f"{record.kind} {record.target}")

    def on_alert(self, record: dict) -> None:
        """Fed by every :class:`~repro.obs.slo.AlertSink` transition."""
        self.alerts.append(record)
        if record.get("state") != "firing":
            return
        reason = "health" if record.get("source") == "health" else "alert"
        self.trigger(reason, str(record.get("name", "")))

    def on_health(self, entry: dict) -> None:
        """Fed by :meth:`repro.obs.health.HealthMonitor.tick` sweeps."""
        self.health.append(entry)

    def on_decision(self, record: dict) -> None:
        """Nothing to do: bundles cut decisions from the attached ledger.

        Kept because the end-to-end benchmark's layer tracer looks this
        name up on the class.
        """

    def _on_crash(self, process, exc: BaseException) -> None:
        name = getattr(process, "name", "") or "anonymous"
        self.on_exception(f"process:{name}", exc)

    def on_exception(self, component: str, exc: BaseException) -> None:
        """Fed by engine crash listeners and subsystem guard rails."""
        self._exceptions.append(
            (
                len(self._trace),
                {
                    "kind": "event",
                    "name": "recorder.exception",
                    "time": self.clock(),
                    "trace_id": None,
                    "parent_id": None,
                    "attrs": {
                        "component": component,
                        "error": type(exc).__name__,
                    },
                },
            )
        )
        self.trigger("exception", f"{component}: {type(exc).__name__}")

    # ------------------------------------------------------------------
    # Incidents
    # ------------------------------------------------------------------
    def trigger(self, reason: str, detail: str = "") -> dict | None:
        """Open an incident (or note a trigger on the open one)."""
        now = self.clock()
        if self._open is not None:
            self._open["triggers"].append(
                {"time": now, "reason": reason, "detail": detail}
            )
            return self._open
        if len(self.incidents) >= MAX_INCIDENTS:
            self.dropped_triggers += 1
            return None
        incident = {
            "id": len(self.incidents) + 1,
            "triggered_at": now,
            "deadline": now + self.config.post_roll,
            "triggers": [
                {"time": now, "reason": reason, "detail": detail}
            ],
        }
        self._open = incident
        if self.system is not None:
            self._timer = self.system.engine.call_at(
                incident["deadline"], self._close_open
            )
        return incident

    @property
    def open_incident(self) -> dict | None:
        return self._open

    def _cut_trace(self, lo: float, hi: float) -> tuple[list, list, list]:
        """The window's spans, events and faults, in recorded order,
        with ``recorder.exception`` events merged in where they were
        raised."""
        spans, events, faults = [], [], []
        exceptions = [
            (at, event) for at, event in self._exceptions
            if lo <= event["time"] <= hi
        ]
        pending = 0
        trace = self._trace
        for position in range(self._trace_start, len(trace)):
            while (
                pending < len(exceptions)
                and exceptions[pending][0] <= position
            ):
                events.append(exceptions[pending][1])
                pending += 1
            record = trace[position]
            if record["kind"] == "span":
                if record["end"] >= lo and record["start"] <= hi:
                    spans.append(record)
            elif lo <= record["time"] <= hi:
                events.append(record)
                if record["name"].startswith(_FAULT_EVENT):
                    faults.append(_fault(record))
        events.extend(event for _, event in exceptions[pending:])
        return spans, events, faults

    def _cut_decisions(self, lo: float, hi: float) -> list[dict]:
        ledger = self.obs.ledger
        if ledger is None:
            return []
        marked, seq = self._ledger_mark
        after = seq if ledger is marked else 0
        return [
            r for r in ledger.records
            if r["seq"] > after and lo <= r["time"] <= hi
        ]

    def _close_open(self) -> None:
        incident = self._open
        if incident is None:
            return
        self._open = None
        self._timer = None
        closed_at = self.clock()
        lo = max(0.0, incident["triggered_at"] - self.config.pre_roll)
        hi = closed_at
        spans, events, faults = self._cut_trace(lo, hi)
        bundle = {
            "kind": "incident_bundle",
            "schema_version": SCHEMA_VERSION,
            "incident": {
                "id": incident["id"],
                "triggered_at": incident["triggered_at"],
                "closed_at": closed_at,
                "window": [lo, hi],
                "pre_roll": self.config.pre_roll,
                "post_roll": self.config.post_roll,
                "triggers": incident["triggers"],
            },
            "spans": spans,
            "events": events,
            "metric_deltas": [
                r for r in self.metric_deltas if lo <= r["time"] <= hi
            ],
            "faults": faults,
            "health": [r for r in self.health if lo <= r["time"] <= hi],
            "alerts": [r for r in self.alerts if lo <= r["time"] <= hi],
            "decisions": self._cut_decisions(lo, hi),
            "context": {
                "watch_metrics": [list(pair) for pair in WATCH_METRICS],
                "triggers_enabled": list(TRIGGER_KINDS),
                "ring_limits": dict(RING_LIMITS),
            },
        }
        summary = {
            "id": incident["id"],
            "triggered_at": incident["triggered_at"],
            "closed_at": closed_at,
            "triggers": len(incident["triggers"]),
            "records": sum(
                len(bundle[section])
                for section in ("spans", "events", "metric_deltas",
                                "faults", "health", "alerts", "decisions")
            ),
            "path": None,
        }
        if self.out_dir:
            path = bundle_path(self.out_dir, bundle)
            write_bundle(bundle, path)
            summary["path"] = path
            self.bundle_paths.append(path)
        self.bundles.append(bundle)
        self.incidents.append(summary)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "attached" if self.attached else "detached"
        return (
            f"<FlightRecorder {state} incidents={len(self.incidents)} "
            f"open={self._open is not None}>"
        )
