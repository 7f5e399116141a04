"""Simulation-time observability: metrics, tracing, and exporters.

The :class:`Observability` facade bundles a :class:`MetricsRegistry`
and a :class:`Tracer` behind one ``enabled`` switch. Every cluster owns
one (``cluster.obs``, mirrored as ``fs.obs`` and ``master.obs``),
disabled by default so instrumented hot paths cost one attribute load
and one branch.

Typical enablement::

    fs = build_deployment("octopus", spec=spec, seed=0)
    fs.obs.enable()
    ... run a workload ...
    write_jsonl(fs.obs.tracer.records, "trace.jsonl")
    print(prometheus_text(fs.obs.metrics))

Observability has one off switch. While it is off, ``obs.tracer`` and
``obs.metrics`` are ``None``; while nothing is attached, so are
``obs.recorder`` and ``obs.ledger``. Every instrumented call site
checks the state it feeds at the moment it feeds::

    obs = self.obs
    if obs.enabled:
        obs.metrics.counter("bytes_written_total", tier=tier).inc(n)
    if obs.ledger is not None:
        obs.ledger.on_delete(path, blocks=n)

A span that outlives a ``yield`` is ended under
``span is not None and obs.enabled``: once :meth:`Observability.disable`
has run, nothing can read the tracer that span belongs to.

See ``docs/OBSERVABILITY.md`` for the metric catalog and span taxonomy.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

from repro.obs.analyze import (
    Trace,
    alert_report,
    analysis_json,
    analyze_trace,
    critical_path,
    read_trace,
    read_trace_file,
)
from repro.obs.chrome import (
    chrome_trace,
    chrome_trace_json,
    read_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import (
    ArtifactError,
    metrics_json,
    prometheus_text,
    read_jsonl_records,
    tier_report_data,
    tier_utilization_rows,
    to_jsonl,
    validate,
    validate_alert_records,
    validate_trace_records,
    write_jsonl,
    write_metrics,
)
from repro.obs.health import HealthMonitor
from repro.obs.provenance import (
    DECISION_ACTIONS,
    ProvenanceLedger,
    decision_summary,
    explain,
    explain_text,
    validate_ledger_records,
)
from repro.obs.postmortem import (
    BundleError,
    blast_radius_decisions,
    build_timeline,
    postmortem_json,
    postmortem_report,
    postmortem_text,
    read_bundle,
    validate_bundle,
)
from repro.obs.recorder import (
    FlightRecorder,
    RecorderConfig,
    bundle_path,
    write_bundle,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    AlertSink,
    AvailabilitySlo,
    BurnRateRule,
    LatencySlo,
    SloMonitor,
    default_read_rules,
)
from repro.obs.tracing import Span, Tracer
from repro.obs.windows import QuantileSketch, WindowedCounts, WindowedSketch

__all__ = [
    "Observability",
    "ObsCapture",
    "active_capture",
    "MetricsRegistry",
    "Tracer",
    "Span",
    "to_jsonl",
    "write_jsonl",
    "read_jsonl_records",
    "validate",
    "ArtifactError",
    "validate_trace_records",
    "validate_alert_records",
    "QuantileSketch",
    "WindowedSketch",
    "WindowedCounts",
    "LatencySlo",
    "AvailabilitySlo",
    "BurnRateRule",
    "AlertSink",
    "SloMonitor",
    "HealthMonitor",
    "FlightRecorder",
    "RecorderConfig",
    "ProvenanceLedger",
    "DECISION_ACTIONS",
    "validate_ledger_records",
    "decision_summary",
    "explain",
    "explain_text",
    "write_bundle",
    "read_bundle",
    "validate_bundle",
    "build_timeline",
    "blast_radius_decisions",
    "postmortem_report",
    "postmortem_json",
    "postmortem_text",
    "BundleError",
    "default_read_rules",
    "alert_report",
    "prometheus_text",
    "metrics_json",
    "write_metrics",
    "tier_report_data",
    "tier_utilization_rows",
    "Trace",
    "read_trace",
    "read_trace_file",
    "analyze_trace",
    "analysis_json",
    "critical_path",
    "chrome_trace",
    "chrome_trace_json",
    "read_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]


class Observability:
    """One switchable bundle of metrics + tracing for a cluster."""

    __slots__ = ("enabled", "metrics", "tracer", "recorder", "ledger",
                 "last_placement", "_clock")

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        enabled: bool = False,
    ) -> None:
        self._clock = clock
        self.enabled = False
        #: Both ``None`` while observability is off.
        self.metrics: MetricsRegistry | None = None
        self.tracer: Tracer | None = None
        #: The attached :class:`~repro.obs.recorder.FlightRecorder` and
        #: :class:`~repro.obs.provenance.ProvenanceLedger`; each takes
        #: its empty slot on ``attach()`` and empties it on ``detach()``.
        self.recorder: FlightRecorder | None = None
        self.ledger: ProvenanceLedger | None = None
        #: Side channel: the most recent placement decision's objective
        #: scores, written by ``core.moop.place_replicas`` and read by
        #: the client stream that triggered the allocation (the two are
        #: separated by the master RPC boundary). ``None`` when the last
        #: allocation bypassed MOOP (rule-based/HDFS policies).
        self.last_placement: dict | None = None
        if enabled:
            self.enable()

    def enable(self) -> "Observability":
        """Switch on collection (idempotent; state survives re-enable)."""
        if not self.enabled:
            self.enabled = True
            self.metrics = MetricsRegistry(self._clock)
            self.tracer = Tracer(self._clock)
        return self

    def disable(self) -> "Observability":
        """Switch off collection and drop all recorded state."""
        # Observers go first: the recorder seals an open incident while
        # the trace it cuts from still exists; the tracer is then dropped
        # with everything it recorded.
        if self.recorder is not None:
            self.recorder.detach()
        if self.ledger is not None:
            self.ledger.detach()
        self.enabled = False
        self.metrics = None
        self.tracer = None
        self.last_placement = None
        return self

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0


#: Innermost active :class:`ObsCapture` scopes, outermost first.
_capture_stack: list["ObsCapture"] = []


def active_capture() -> "ObsCapture | None":
    """The innermost active capture scope, or ``None``."""
    return _capture_stack[-1] if _capture_stack else None


class ObsCapture:
    """Collect telemetry from every cluster built inside a ``with`` block.

    The experiment runners (``repro experiment fig2`` etc.) construct
    deployments internally — sometimes dozens per run — so the CLI
    cannot reach in and enable each one's observability. A capture scope
    inverts the hookup: :class:`repro.cluster.Cluster` checks
    :func:`active_capture` at construction and, inside a scope, hands
    its bundle to :meth:`attach`, which switches everything on (tracer,
    metrics, flight recorder, provenance ledger). :meth:`write` then
    puts every captured deployment's artefacts on disk in the one
    directory layout ``--obs-out`` documents.
    """

    def __init__(self) -> None:
        self.captured: list[Observability] = []

    def __enter__(self) -> "ObsCapture":
        _capture_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _capture_stack.pop()

    def attach(self, obs: Observability, system=None) -> Observability:
        """Enable ``obs``, attach a recorder and a ledger, and include
        it in :meth:`write`. ``system`` (anything with ``.obs`` and
        ``.engine``) lets incidents close on an engine timer; without
        one (S-Live) they are sealed when the capture is written."""
        obs.enable()
        FlightRecorder(system, obs=obs).attach()
        ProvenanceLedger(obs).attach()
        self.captured.append(obs)
        return obs

    def write(
        self, out_dir: str, alerts: Iterable[dict] | None = None
    ) -> None:
        """Detach every captured bundle and write its artefacts.

        One deployment lands in ``out_dir`` itself, several in
        ``out_dir/run-NN/`` in construction order, each as::

            trace.jsonl.gz  metrics.json  metrics.prom  ledger.jsonl.gz
            incidents/incident-NNN.json.gz   (one per sealed incident)
            alerts.jsonl    (only when the run's monitors' alert
                             timeline is passed as ``alerts``)
        """
        for index, obs in enumerate(self.captured):
            run_dir = (
                out_dir if len(self.captured) == 1
                else os.path.join(out_dir, f"run-{index:02d}")
            )
            recorder, ledger = obs.recorder, obs.ledger
            recorder.detach()  # seals an incident still open at the end
            ledger.detach()
            os.makedirs(run_dir, exist_ok=True)
            write_jsonl(
                obs.tracer.records, os.path.join(run_dir, "trace.jsonl.gz")
            )
            write_metrics(obs.metrics, os.path.join(run_dir, "metrics.json"))
            write_metrics(obs.metrics, os.path.join(run_dir, "metrics.prom"))
            ledger.export(os.path.join(run_dir, "ledger.jsonl.gz"))
            incidents = os.path.join(run_dir, "incidents")
            for bundle in recorder.bundles:
                write_bundle(bundle, bundle_path(incidents, bundle))
            if alerts is not None:
                write_jsonl(alerts, os.path.join(run_dir, "alerts.jsonl"))
