"""The always-on flight recorder: bounded capture, triggered forensics.

A full-run trace of a busy simulation is millions of records; when a
fault fires an alert mid-run, the forensics question is "what happened
in the last thirty seconds", not "replay everything". The
:class:`FlightRecorder` answers it the way aircraft recorders do —
bounded, sim-clock ring buffers of the most recent telemetry:

* finished **trace spans** and point **events** (fed by the tracer's
  single :attr:`~repro.obs.tracing.Tracer.tap` subscriber);
* **metric watch-deltas** for a configurable set of instruments
  (via :meth:`~repro.obs.registry.MetricsRegistry.watch`);
* applied **fault records**, **health sweeps**, and **alerts** (fed by
  the fault injector, the health monitor, and every
  :class:`~repro.obs.slo.AlertSink`).

When a trigger fires — a fault activation, an SLO alert, a health
invariant violation, or an unhandled engine exception — the recorder
opens an *incident*: it keeps collecting for ``post_roll`` simulated
seconds (an engine timer closes it deterministically), then snapshots
the ``pre_roll``-to-close window of every ring into a self-contained
**incident bundle**, dumped as byte-stable gzip JSON.

Determinism contract, mirroring the tracer and the SLO monitor: an
attached recorder only *observes* — it mints no instruments and emits
no trace records, so trace/metrics/Prometheus exports of a run with a
quiet recorder are byte-identical to a recorder-less run. All bundle
timestamps are simulation time and serialization is canonical, so two
seeded runs dump byte-identical bundles. The detached path is the
shared :data:`NULL_RECORDER` singleton — every instrumented site costs
one attribute load and a no-op method call.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.obs.export import SCHEMA_VERSION, canonical_json, to_jsonl, write_text

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.system import OctopusFileSystem
    from repro.sim.faults import FaultRecord

__all__ = [
    "RecorderConfig",
    "FlightRecorder",
    "NullRecorder",
    "NULL_RECORDER",
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

#: The trigger sources a config may enable.
TRIGGER_KINDS = ("fault", "alert", "health", "exception")

#: Metric streams the recorder snapshots deltas of by default — the
#: read-path signals the stock SLO rules watch, so a bundle can show
#: the deviation that preceded the alert.
DEFAULT_WATCH_METRICS = (
    ("histogram", "tier_read_seconds"),
    ("counter", "blocks_read_total"),
    ("counter", "block_reads_failed_total"),
)


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
    """Ring bounds, capture window, and trigger selection."""

    #: Simulated seconds of history kept before the trigger instant.
    pre_roll: float = 30.0
    #: Simulated seconds captured after the trigger before the bundle
    #: is sealed (an engine timer closes the incident).
    post_roll: float = 10.0
    max_spans: int = 4096
    max_events: int = 2048
    max_metric_deltas: int = 8192
    max_faults: int = 512
    max_health: int = 512
    max_alerts: int = 256
    #: Provenance decision records mirrored from an attached
    #: :class:`~repro.obs.provenance.ProvenanceLedger`.
    max_decisions: int = 1024
    #: ``(kind, name)`` metric streams whose updates land in the
    #: watch-delta ring.
    watch_metrics: tuple = DEFAULT_WATCH_METRICS
    #: Which trigger sources open incidents.
    triggers: tuple = TRIGGER_KINDS
    #: Hard cap on incidents per run; later triggers are counted as
    #: dropped instead of dumping unbounded bundles.
    max_incidents: int = 16

    def __post_init__(self) -> None:
        if self.pre_roll < 0 or self.post_roll < 0:
            raise ConfigurationError("pre_roll/post_roll must be >= 0")
        for name in ("max_spans", "max_events", "max_metric_deltas",
                     "max_faults", "max_health", "max_alerts",
                     "max_decisions"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.max_incidents < 1:
            raise ConfigurationError("max_incidents must be >= 1")
        unknown = set(self.triggers) - set(TRIGGER_KINDS)
        if unknown:
            raise ConfigurationError(
                f"unknown trigger kinds {sorted(unknown)}; "
                f"choose from {TRIGGER_KINDS}"
            )


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


class FlightRecorder:
    """Bounded always-on capture with triggered incident bundles.

    Construct with a ``system`` (engine-driven runs; incidents close on
    an engine timer) or with ``obs=``/``clock=`` for engine-less
    harnesses like S-Live, where :meth:`flush` seals any open incident.
    Call :meth:`attach` to start observing and :meth:`detach` (or
    :meth:`flush` at end of run) to stop.
    """

    enabled = True

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
        if not obs.enabled:
            raise ConfigurationError(
                "FlightRecorder needs observability enabled; call "
                "obs.enable() before constructing the recorder"
            )
        self.system = system
        self.obs = obs
        self.clock = clock if clock is not None else obs.now
        self.config = config if config is not None else RecorderConfig()
        self.out_dir = out_dir
        c = self.config
        self.spans: deque = deque(maxlen=c.max_spans)
        self.events: deque = deque(maxlen=c.max_events)
        self.metric_deltas: deque = deque(maxlen=c.max_metric_deltas)
        self.faults: deque = deque(maxlen=c.max_faults)
        self.health: deque = deque(maxlen=c.max_health)
        self.alerts: deque = deque(maxlen=c.max_alerts)
        self.decisions: deque = deque(maxlen=c.max_decisions)
        #: Closed incident summaries, in close order.
        self.incidents: list[dict] = []
        #: Closed bundles (always kept in memory; also written under
        #: ``out_dir`` when one is configured).
        self.bundles: list[dict] = []
        self.bundle_paths: list[str] = []
        self.dropped_triggers = 0
        self._trigger_set = frozenset(c.triggers)
        self._open: dict | None = None
        self._timer = None
        self._attached = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self._attached

    def attach(self) -> "FlightRecorder":
        """Hook the tracer tap, metric watchers, and ``obs.recorder``."""
        if self._attached:
            raise ConfigurationError("recorder already attached")
        if getattr(self.obs.recorder, "enabled", False):
            raise ConfigurationError(
                "another FlightRecorder is already attached to this obs "
                "bundle; detach it first"
            )
        if self.obs.tracer.tap is not None:
            raise ConfigurationError("the tracer tap is already taken")
        self._attached = True
        self.obs.recorder = self
        self.obs.tracer.tap = self._on_trace_record
        for kind, name in self.config.watch_metrics:
            self.obs.metrics.watch(kind, name, self._on_metric)
        if self.system is not None:
            self.system.engine.crash_listeners.append(self._on_crash)
        return self

    def detach(self) -> None:
        """Seal any open incident and stop observing (idempotent)."""
        if not self._attached:
            return
        self.flush()
        self._attached = False
        # Bound-method equality (not identity): each attribute access
        # mints a fresh method object.
        if self.obs.tracer.tap == self._on_trace_record:
            self.obs.tracer.tap = None
        if self.obs.recorder is self:
            self.obs.recorder = NULL_RECORDER
        if self.system is not None:
            listeners = self.system.engine.crash_listeners
            if self._on_crash in listeners:
                listeners.remove(self._on_crash)
        # Registry watchers cannot be unregistered; _on_metric checks
        # _attached and goes inert instead.

    def flush(self) -> None:
        """Close any open incident at the current instant (end of run)."""
        if self._open is not None:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self._close_open()

    # ------------------------------------------------------------------
    # Ring-buffer feeds (hot paths: append only, no allocation beyond
    # the entry itself)
    # ------------------------------------------------------------------
    def _on_trace_record(self, record: dict) -> None:
        if record["kind"] == "span":
            self.spans.append(record)
        else:
            self.events.append(record)

    def _on_metric(self, instrument, value: float) -> None:
        if not self._attached:
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
        """Fed by :meth:`repro.sim.faults.FaultInjector._record`."""
        self.faults.append(
            {
                "time": record.time,
                "kind": record.kind,
                "target": record.target,
                "detail": record.detail,
            }
        )
        if "fault" in self._trigger_set and not is_heal(
            record.kind, record.detail
        ):
            self.trigger("fault", f"{record.kind} {record.target}")

    def on_alert(self, record: dict) -> None:
        """Fed by every :class:`~repro.obs.slo.AlertSink` transition."""
        self.alerts.append(record)
        if record.get("state") != "firing":
            return
        reason = "health" if record.get("source") == "health" else "alert"
        if reason in self._trigger_set:
            self.trigger(reason, str(record.get("name", "")))

    def on_health(self, entry: dict) -> None:
        """Fed by :meth:`repro.obs.health.HealthMonitor.tick` sweeps."""
        self.health.append(entry)

    def on_decision(self, record: dict) -> None:
        """Fed by an attached provenance ledger, so incident bundles
        carry the replica-affecting decisions inside their window."""
        self.decisions.append(record)

    def _on_crash(self, process, exc: BaseException) -> None:
        name = getattr(process, "name", "") or "anonymous"
        self.on_exception(f"process:{name}", exc)

    def on_exception(self, component: str, exc: BaseException) -> None:
        """Fed by engine crash listeners and subsystem guard rails."""
        self.events.append(
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
            }
        )
        if "exception" in self._trigger_set:
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
        if len(self.incidents) >= self.config.max_incidents:
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

    def _window(self, ring, lo: float, hi: float) -> list[dict]:
        return [r for r in ring if lo <= r["time"] <= hi]

    def _close_open(self) -> None:
        incident = self._open
        if incident is None:
            return
        self._open = None
        self._timer = None
        closed_at = self.clock()
        lo = max(0.0, incident["triggered_at"] - self.config.pre_roll)
        hi = closed_at
        c = self.config
        bundle = {
            "kind": "incident_bundle",
            "schema_version": SCHEMA_VERSION,
            "incident": {
                "id": incident["id"],
                "triggered_at": incident["triggered_at"],
                "closed_at": closed_at,
                "window": [lo, hi],
                "pre_roll": c.pre_roll,
                "post_roll": c.post_roll,
                "triggers": incident["triggers"],
            },
            "spans": [
                r for r in self.spans
                if r["end"] >= lo and r["start"] <= hi
            ],
            "events": self._window(self.events, lo, hi),
            "metric_deltas": self._window(self.metric_deltas, lo, hi),
            "faults": self._window(self.faults, lo, hi),
            "health": self._window(self.health, lo, hi),
            "alerts": self._window(self.alerts, lo, hi),
            "decisions": self._window(self.decisions, lo, hi),
            "context": {
                "watch_metrics": [list(pair) for pair in c.watch_metrics],
                "triggers_enabled": list(c.triggers),
                "ring_limits": {
                    "spans": c.max_spans,
                    "events": c.max_events,
                    "metric_deltas": c.max_metric_deltas,
                    "faults": c.max_faults,
                    "health": c.max_health,
                    "alerts": c.max_alerts,
                    "decisions": c.max_decisions,
                },
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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def ring_sizes(self) -> dict:
        """Current ring occupancy, for bound assertions and reports."""
        return {
            "spans": len(self.spans),
            "events": len(self.events),
            "metric_deltas": len(self.metric_deltas),
            "faults": len(self.faults),
            "health": len(self.health),
            "alerts": len(self.alerts),
            "decisions": len(self.decisions),
        }

    def dump(self) -> str:
        """The current ring contents as canonical JSONL (debug aid)."""
        return to_jsonl(
            [
                *self.spans, *self.events, *self.metric_deltas,
                *self.faults, *self.health, *self.alerts,
            ]
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "attached" if self._attached else "detached"
        return (
            f"<FlightRecorder {state} incidents={len(self.incidents)} "
            f"open={self._open is not None}>"
        )


class NullRecorder:
    """The detached path: stateless, allocation-free, shared singleton."""

    enabled = False

    __slots__ = ()

    def on_fault(self, record) -> None:
        pass

    def on_alert(self, record) -> None:
        pass

    def on_health(self, entry) -> None:
        pass

    def on_decision(self, record) -> None:
        pass

    def on_exception(self, component, exc) -> None:
        pass

    def trigger(self, reason: str = "", detail: str = "") -> None:
        return None

    def flush(self) -> None:
        pass

    def detach(self) -> None:
        pass


#: Process-wide shared singleton for the detached path.
NULL_RECORDER = NullRecorder()
