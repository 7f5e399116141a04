#!/usr/bin/env python3
"""Observability walkthrough: metrics, traces, and exporters.

Demonstrates `repro.obs` (see docs/OBSERVABILITY.md):

1. **enable and run** — switch a cluster's observability on and drive a
   small DFSIO write/read round plus a fault so every record kind shows
   up in the trace;
2. **request tracing** — walk one block-write trace from the client op
   span down through the master allocation, the placement decision with
   its per-objective MOOP scores, and the block transfer flow;
3. **metrics** — per-tier byte counters, latency histograms, and the
   per-resource utilization time series;
4. **exporters** — write the JSONL event log, the Prometheus text
   exposition, and the per-tier utilization table to
   ``observability-out/``;
5. **analysis** — reconstruct the span DAG from the exported JSONL,
   print each request's critical path, and emit a Chrome/Perfetto trace
   (load ``observability-out/trace.chrome.json`` at ui.perfetto.dev).

Run:  python examples/observability.py
"""

import os

from repro import OctopusFileSystem
from repro.bench.tables import format_report
from repro.cluster import small_cluster_spec
from repro.obs import (
    analyze_trace,
    critical_path,
    prometheus_text,
    read_trace_file,
    tier_report_data,
    validate,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from repro.obs.export import load
from repro.util.units import MB

OUT_DIR = "observability-out"


def main() -> None:
    fs = OctopusFileSystem(small_cluster_spec())
    fs.obs.enable()
    fs.start_services()
    client = fs.client(on="worker1")

    # ---------------------------------------------------------- workload
    print("1. running a small workload with observability enabled")
    for index in range(4):
        client.write_file(f"/data/file_{index}", size=24 * MB)
    for index in range(4):
        with client.open(f"/data/file_{index}") as stream:
            stream.read_size()
    # One fault, so the trace shows fault events interleaved with repair.
    fs.faults.crash("worker2")
    fs.await_replication()
    print(f"   sim time now {fs.engine.now:.1f}s, "
          f"{len(fs.obs.tracer.records)} trace records collected")

    # ------------------------------------------------------------ traces
    print("2. one block-write trace, client op -> placement -> transfer")
    spans = {
        r["span_id"]: r
        for r in fs.obs.tracer.records
        if r["kind"] == "span"
    }
    flow = next(
        r
        for r in fs.obs.tracer.records
        if r["kind"] == "span"
        and r["name"] == "flow.transfer"
        and r.get("attrs", {}).get("op") == "write"
    )
    chain = [flow]
    while chain[-1].get("parent_id") is not None:
        chain.append(spans[chain[-1]["parent_id"]])
    for record in reversed(chain):
        attrs = record.get("attrs", {})
        extra = ""
        if "moop" in attrs:
            scores = ", ".join(
                f"{k}={v:.3f}" for k, v in sorted(attrs["moop"].items())
            )
            extra = f"  [moop: {scores}]"
        print(f"   {record['name']:<22} span={record['span_id']:<4} "
              f"{record['end'] - record['start']:.3f}s{extra}")

    # ----------------------------------------------------------- metrics
    print("3. per-tier I/O counters")
    for instrument in fs.obs.metrics.instruments():
        if instrument.name in ("bytes_written_total", "bytes_read_total"):
            labels = dict(instrument.labels)
            print(f"   {instrument.name}{labels} = "
                  f"{instrument.value / MB:.0f} MB")
    series = [
        i for i in fs.obs.metrics.instruments()
        if i.name == "resource_utilization"
    ]
    print(f"   utilization series for {len(series)} resources, e.g. "
          f"{dict(series[0].labels)['resource']} with "
          f"{len(series[0].samples)} samples")

    # --------------------------------------------------------- exporters
    print(f"4. exporting to {OUT_DIR}/")
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, "trace.jsonl")
    write_jsonl(fs.obs.tracer.records, trace_path)
    write_metrics(fs.obs.metrics, os.path.join(OUT_DIR, "metrics.prom"))
    write_metrics(fs.obs.metrics, os.path.join(OUT_DIR, "metrics.json"))
    problems = validate("trace", fs.obs.tracer.records)
    assert not problems, problems
    assert len(fs.obs.tracer.records) > 0
    print(f"   trace.jsonl ({len(fs.obs.tracer.records)} records, "
          "schema-valid), metrics.prom, metrics.json")
    print("   tier utilization:")
    tiers = format_report({"tiers": tier_report_data(fs)["tiers"]})
    for line in tiers.splitlines():
        print("    ", line)
    print("   first Prometheus lines:")
    for line in prometheus_text(fs.obs.metrics).splitlines()[:4]:
        print("    ", line)

    # ----------------------------------------------------------- analysis
    print("5. analyzing the exported trace")
    trace = read_trace_file(trace_path)
    assert trace.problems == []
    for root in trace.requests()[:3]:
        segments = critical_path(root)
        hops = " -> ".join(
            f"{s.span.name}:{s.duration:.3f}s" for s in segments
        )
        print(f"   {root.name} ({root.duration:.3f}s): {hops}")
    analysis = analyze_trace(trace)
    slowest = analysis["stragglers"][0]
    print(f"   slowest span: {slowest['name']} at {slowest['duration']:.3f}s "
          f"({slowest['concurrent_flows']} concurrent flows)")
    chrome_path = os.path.join(OUT_DIR, "trace.chrome.json")
    events = write_chrome_trace(fs.obs.tracer.records, chrome_path)
    document = load(chrome_path, "chrome")
    assert len(document["traceEvents"]) == events
    print(f"   trace.chrome.json ({events} events) — "
          "load it at ui.perfetto.dev")


if __name__ == "__main__":
    main()
