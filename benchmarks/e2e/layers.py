"""Per-layer metrics of one traced repeat, by the names BENCHMARK.json lists."""

from __future__ import annotations

from statistics import median
from typing import Any

from tracer import LayerTracer, TraceAnalysis

#: Simulated results that only some workloads define. They are reported
#: with the traced run (0 where a workload has no such result) because a
#: driver run prints every declared metric for every workload.
RESULT_METRICS = (
    "sim_write_mbs_per_worker",
    "sim_write_p50_ms",
    "sim_write_p99_ms",
    "sim_read_p50_ms",
    "sim_read_p99_ms",
    "mem_hit_rate",
    "sim_repair_s",
    "paper_gap_pct",
)

NAMESPACE_OPS = ("mkdir", "create_file", "get_status", "list_status", "rename", "delete")


def layer_metrics(
    trace: TraceAnalysis,
    tracer: LayerTracer,
    repeat: Any,
    untraced_host_s: list[float],
    host: float,
    plain_host: float | None,
) -> dict[str, float]:
    """Every ``per_layer`` metric, from the trace plus the traced repeat's own counts.

    ``untraced_host_s`` are the raw timed regions of the untraced
    repeats; ``host`` is the run's ``host_s`` and ``plain_host`` the same
    for meta_churn's inputs with no observer attached (both at
    reference speed). Everything read off the trace is as measured.
    """
    counts = repeat.counts
    events = trace.count("sim.engine.step")
    m: dict[str, float] = {
        "run.host_s_max": max(untraced_host_s),
        "run.host_spread_frac": (max(untraced_host_s) - min(untraced_host_s)) / min(untraced_host_s),
        "run.trace_overhead_frac": repeat.host_raw_s / median(untraced_host_s) - 1.0,
        "run.unattributed_frac": trace.unattributed_frac,
        "run.gc_collections": repeat.gc_collections,
        "run.ops": repeat.attempted,
        "run.ops_per_host_s": repeat.attempted / host,
        "sim.engine.events": events,
        "sim.engine.events_per_host_s": events / host,
        # Dispatch plus the generator bodies that are not a layer of the
        # file system: the benchmark's own clients and the periodic shell.
        "sim.engine.self_s": trace.self_time("sim.engine", "sim.periodic", "bench.driver"),
        "sim.engine.step_p50_us": trace.quantile_us("sim.engine.step", 0.50),
        "sim.engine.step_p99_us": trace.quantile_us("sim.engine.step", 0.99),
        "sim.engine.peak_heap_len": tracer.peaks.get("heap", 0),
        "sim.flows.starts": trace.count("sim.flows.start_flow"),
        "sim.flows.rate_computations": tracer.rate_computations,
        "sim.flows.rate_computations_per_event": tracer.rate_computations / events if events else 0.0,
        "sim.flows.self_s": trace.self_time("sim.flows"),
        "sim.flows.wakeup_self_s": trace.self_time("sim.flows.wakeup"),
        "sim.flows.peak_active": tracer.peaks.get("active_flows", 0),
        "sim.flows.start_p99_us": trace.quantile_us("sim.flows.start_flow", 0.99),
        "core.placement.calls": trace.count("core.placement.choose_targets"),
        "core.placement.self_s": trace.self_time("core.placement"),
        "core.placement.call_p50_us": trace.quantile_us("core.placement.choose_targets", 0.50),
        "core.placement.call_p99_us": trace.quantile_us("core.placement.choose_targets", 0.99),
        "core.moop.solves": trace.count("core.moop.solve_moop"),
        "core.moop.self_s": trace.self_time("core.moop"),
        "core.moop.solve_p50_us": trace.quantile_us("core.moop.solve_moop", 0.50),
        "core.retrieval.calls": trace.count("core.retrieval.order_replicas"),
        "core.retrieval.self_s": trace.self_time("core.retrieval"),
        "core.replication.analyses": trace.count("core.replication.analyze_block"),
        "core.replication.self_s": trace.self_time("core.replication"),
        "fs.namespace.ops": trace.count("fs.namespace"),
        "fs.namespace.self_s": trace.self_time("fs.namespace"),
        "fs.namespace.list_status_p99_us": trace.quantile_us("fs.namespace.list_status", 0.99),
        "fs.master.self_s": trace.self_time("fs.master"),
        "fs.master.allocate_calls": trace.count("fs.master.allocate_block"),
        "fs.master.allocate_self_s": trace.self_time("fs.master.allocate_block"),
        "fs.master.commit_self_s": trace.self_time("fs.master.commit_block"),
        "fs.master.rename_p50_us": trace.quantile_us("fs.master.rename", 0.50),
        "fs.master.rename_p99_us": trace.quantile_us("fs.master.rename", 0.99),
        "fs.master.delete_p50_us": trace.quantile_us("fs.master.delete", 0.50),
        "fs.master.heartbeat_self_s": trace.self_time("fs.master.receive_heartbeat"),
        "fs.master.check_replication_calls": trace.count("fs.master.check_replication"),
        "fs.master.check_replication_self_s": trace.self_time("fs.master.check_replication"),
        "fs.master.repairs_scheduled": tracer.repairs_scheduled,
        "fs.master.block_map_peak": tracer.peaks.get("block_map", 0),
        "fs.master.rebuild_s": trace.total_time("fs.master.rebuild"),
        "fs.streams.self_s": trace.self_time("fs.streams"),
        "fs.streams.blocks_written": counts.get("blocks_written", 0),
        "fs.streams.blocks_read": counts.get("blocks_read", 0),
        "fs.editlog.records": counts.get("editlog_records", 0),
        "fs.editlog.replay_s": trace.total_time("fs.editlog.replay"),
        "fs.checkpoint.write_s": trace.total_time("fs.checkpoint.write"),
        "fs.checkpoint.load_s": trace.total_time("fs.checkpoint.load"),
        "fs.backup.apply_self_s": trace.self_time("fs.backup"),
        "tier.rounds": trace.count("tier.engine.run_round"),
        "tier.round_p50_ms": trace.quantile_us("tier.engine.run_round", 0.50) / 1000.0,
        "tier.round_p99_ms": trace.quantile_us("tier.engine.run_round", 0.99) / 1000.0,
        "tier.observe_self_s": trace.self_time("tier.engine.observe"),
        "tier.self_s": trace.self_time("tier"),
        "tier.heat_tracked": tracer.peaks.get("heat_tracked", 0),
        "tier.promotions": counts.get("tier_promotions", 0),
        "tier.demotions": counts.get("tier_demotions", 0),
        "tier.cas_conflicts": counts.get("tier_cas_conflicts", 0),
        "obs.tracer.records": counts.get("obs_tracer_records", 0),
        "obs.tracer.self_s": trace.self_time("obs.tracer"),
        "obs.metrics.instruments": counts.get("obs_metrics_instruments", 0),
        "obs.metrics.self_s": trace.self_time("obs.metrics"),
        "obs.recorder.self_s": trace.self_time("obs.recorder"),
        "obs.ledger.records": counts.get("obs_ledger_records", 0),
        "obs.ledger.self_s": trace.self_time("obs.ledger"),
        "obs.monitor.self_s": trace.self_time("obs.monitor"),
        "obs.export.self_s": trace.self_time("obs.export"),
        "obs.export.bytes": counts.get("obs_export_bytes", 0),
        "obs.overhead_frac": (host - plain_host) / plain_host if plain_host else 0.0,
        "sim.faults.applied": counts.get("faults_applied", 0),
        "bench.fig3.host_s": trace.total_time("bench.fig3"),
        "bench.fig5.host_s": trace.total_time("bench.fig5"),
        "bench.fig6.host_s": trace.total_time("bench.fig6"),
        "workloads.mapreduce.self_s": trace.self_time("workloads.mapreduce"),
        "workloads.spark.self_s": trace.self_time("workloads.spark"),
    }
    for op in NAMESPACE_OPS:
        m[f"fs.namespace.{op}_p50_us"] = trace.quantile_us(f"fs.namespace.{op}", 0.50)
    for name in RESULT_METRICS:
        m[name] = repeat.sim.get(name, 0.0)
    return {name: float(value) for name, value in m.items()}
