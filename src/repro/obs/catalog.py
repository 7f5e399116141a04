"""The metric catalog: what a finished span or a point event implies.

A feed site emits its span or its event once and names no metric. The
tracer appends the record, then hands it to :func:`derive`, which runs
the record's entry here: a finished span's by its name and status, a
point event's by its name (``fault.`` keys the injector's family, whose
kind is the rest of the name). An entry updates the counters and
histograms the record implies in the tracer's registry, the one it was
enabled with, so a span ended after a ``disable()``/``enable()`` cycle
counts beside its own trace record and never in the new registry. The
same entries feed the attached observers' pinned subscribers:
``FlightRecorder.on_fault`` and ``ProvenanceLedger.on_fault`` from each
``fault.<kind>`` event, ``ProvenanceLedger.on_liveness`` from
``worker.dead`` and ``worker.silent``.

An entry mints an instrument only where its feed site used to (a zero
increment creates one): a zero-byte flow makes no ``flow_bytes_total``
and an allocation refusal no ``block_writes_failed_total``.

Metrics with no record to derive from stay at their feed sites:
``heartbeats_total``, ``workers_reachable``, the replication pass's
``replication_passes_total`` / ``repairs_scheduled_total`` /
``replication_pending``, ``flows_started_total``, ``flows_active``,
``resource_utilization``, ``placement_replicas_total``,
``replication_bytes_total`` and ``tier_policy_cached_files``.
docs/OBSERVABILITY.md *Metric catalog* lists every metric with the
record it comes from.
"""

from __future__ import annotations

__all__ = ["SPANS", "EVENTS", "derive"]


def _count(metric: str):
    """The entry of a record that counts once in ``metric``."""

    def entry(tracer, record):
        tracer.metrics.counter(metric).inc()

    return entry


def _block_written(tracer, record):
    metrics, attrs = tracer.metrics, record["attrs"]
    for tier in attrs["tiers"]:
        metrics.counter("bytes_written_total", tier=tier).inc(attrs["size"])
    metrics.counter("blocks_written_total").inc()
    metrics.histogram("block_write_seconds").observe(_seconds(record))


def _block_write_failed(tracer, record):
    # An allocation refusal ends the span before it names a block: it is
    # a failed allocation only.
    if "block" in record["attrs"]:
        tracer.metrics.counter("block_writes_failed_total").inc()


def _block_read(tracer, record):
    metrics, attrs = tracer.metrics, record["attrs"]
    ok = record["status"] == "ok"
    # Every replica the read tried, but the one that served, failed over.
    if attrs["attempts"] > ok:
        metrics.counter("read_failovers_total").inc(attrs["attempts"] - ok)
    if not ok:
        metrics.counter("block_reads_failed_total").inc()
        return
    tier, seconds = attrs["tier"], _seconds(record)
    metrics.counter("bytes_read_total", tier=tier).inc(attrs["size"])
    metrics.counter("tier_read_hits_total", tier=tier).inc()
    metrics.counter("blocks_read_total").inc()
    metrics.histogram("block_read_seconds").observe(seconds)
    metrics.histogram("tier_read_seconds", tier=tier).observe(seconds)


def _flow_completed(tracer, record):
    tracer.metrics.counter("flows_completed_total").inc()
    size = record["attrs"]["size"]
    if size:  # a zero-byte flow finishes as it starts and moves nothing
        tracer.metrics.counter("flow_bytes_total").inc(size)


def _seconds(span):
    return span["end"] - span["start"]


def _placement(tracer, record):
    tracer.metrics.counter("placement_decisions_total").inc()
    tracer.metrics.histogram("placement_score").observe(record["attrs"]["score"])


def _liveness(metric: str):
    """The entry of a ``worker.<verdict>`` event: ``metric`` once, and
    the verdict as context for the ledger's next decisions."""

    def entry(tracer, record):
        tracer.metrics.counter(metric).inc()
        if tracer.obs is not None and tracer.obs.ledger is not None:
            tracer.obs.ledger.on_liveness(record)

    return entry


def _phase(tracer, record):
    attrs = record["attrs"]
    if attrs["workload"] == "slive":
        tracer.metrics.counter(
            "slive_ops_total", system=attrs["system"], op=attrs["phase"]
        ).inc(attrs["ops"])


def _alert(tracer, record):
    attrs = record["attrs"]
    tracer.metrics.counter(
        "alerts_total", alert=attrs["alert"], state=attrs["state"]
    ).inc()


def _tier_action(tracer, record):
    kind, outcome = record["name"][len("tier."):], record["attrs"]["outcome"]
    tracer.metrics.counter("tier_actions_total", kind=kind, outcome=outcome).inc()
    if outcome == "conflict":  # a lost CAS race, attributable
        tracer.metrics.counter("tiering_cas_conflicts_total").inc()


def _fault(tracer, record):
    kind = record["name"][len("fault."):]
    tracer.metrics.counter("faults_injected_total", kind=kind).inc()
    obs = tracer.obs
    if obs is not None and obs.recorder is not None:
        obs.recorder.on_fault(record)
    if obs is not None and obs.ledger is not None:
        obs.ledger.on_fault(record)


#: A finished span's entry, by span name and status.
SPANS = {
    ("client.write_block", "ok"): _block_written,
    ("client.write_block", "error"): _block_write_failed,
    ("client.read_block", "ok"): _block_read,
    ("client.read_block", "error"): _block_read,
    ("master.allocate_block", "ok"): _count("allocations_total"),
    ("master.allocate_block", "error"): _count("allocations_failed_total"),
    ("master.repair", "ok"): _count("repairs_completed_total"),
    ("master.repair", "error"): _count("repairs_failed_total"),
    ("flow.transfer", "ok"): _flow_completed,
    ("flow.transfer", "cancelled"): _count("flows_cancelled_total"),
}

#: A point event's entry, by event name or (``fault.``) family.
EVENTS = {
    "placement.decision": _placement,
    "worker.reconciled": _count("workers_reconciled_total"),
    "worker.silent": _liveness("workers_declared_silent_total"),
    "worker.dead": _liveness("workers_declared_dead_total"),
    "repair.missing": _count("blocks_missing_total"),
    "repair.deferred": _count("repairs_deferred_total"),
    "workload.phase": _phase,
    "slo.alert": _alert,
    "health.alert": _alert,
    "tier.promote": _tier_action,
    "tier.demote": _tier_action,
    "fault.": _fault,
}


def derive(tracer, record: dict) -> None:
    """Run the entry of ``record``, just appended by ``tracer``."""
    name = record["name"]
    if record["kind"] == "span":
        entry = SPANS.get((name, record["status"]))
    else:
        entry = EVENTS.get(name) or EVENTS.get(name[:name.find(".") + 1])
    if entry is not None:
        entry(tracer, record)
