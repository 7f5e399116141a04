#!/usr/bin/env python3
"""SLO monitoring walkthrough: burn-rate alerts on a live fault.

Demonstrates the online monitoring layer (see docs/OBSERVABILITY.md,
"Online monitoring & SLOs"):

1. **watch** — attach a latency SLO with a multi-window burn-rate rule
   and a live health monitor to a running cluster;
2. **chaos** — degrade the memory medium holding a hot file's fast
   replica mid-run, so reads reroute to the slow HDD replica and the
   error budget starts burning;
3. **alerts** — the rule fires within its documented detection bound,
   then resolves after the repair once the short window drains;
4. **exporters** — write the alert timeline (``alerts.jsonl``), the
   gzip-compressed trace (``trace.jsonl.gz``), and gzip metrics to
   ``slo-out/``; everything is a pure function of the seed;
5. **analysis** — read the gzip trace back and pair each alert with
   the fault that caused it, reporting the detection delay.

Run:  python examples/slo_monitoring.py
"""

import os

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.obs import (
    BurnRateRule,
    HealthMonitor,
    LatencySlo,
    SloMonitor,
    alert_report,
    read_trace_file,
    validate,
    write_jsonl,
    write_metrics,
)
from repro.util.units import MB

OUT_DIR = "slo-out"
FAULT_AT = 3.0
REPAIR_AT = 6.0


def main() -> None:
    fs = OctopusFileSystem(small_cluster_spec(seed=0))
    fs.obs.enable()
    client = fs.client(on="worker1")
    client.write_file(
        "/hot",
        size=4 * MB,
        rep_vector=ReplicationVector.of(memory=1, hdd=1),
        overwrite=True,
    )
    engine = fs.engine

    # -------------------------------------------------------------- watch
    print("1. attaching a latency SLO and a live health monitor")
    rule = BurnRateRule(
        LatencySlo(
            "read-latency", "tier_read_seconds", threshold=0.01, target=0.95
        ),
        threshold=4.0,
        long_window=2.0,
        short_window=0.5,
    )
    monitor = SloMonitor(fs, rules=[rule], interval=0.25)
    health = HealthMonitor(fs, interval=1.0, sink=monitor.sink)
    print(f"   rule: p95 of reads under 10ms, page when the error budget "
          f"burns {rule.threshold}x too fast")

    # -------------------------------------------------------------- chaos
    print("2. reading the hot file while its memory medium degrades")

    def reader():
        reading_client = fs.client(on="worker2")
        for _ in range(200):
            stream = reading_client.open("/hot")
            yield from stream.read_proc(collect=False)
            yield engine.timeout(0.05)

    def degrader():
        yield engine.timeout(FAULT_AT)
        fs.faults.degrade_medium("worker1:memory0", factor=0.02)
        yield engine.timeout(REPAIR_AT - FAULT_AT)
        fs.faults.repair_medium("worker1:memory0")

    monitor.start()
    health.start()
    done = engine.all_of([
        engine.process(reader(), name="reader"),
        engine.process(degrader(), name="degrader"),
    ])
    engine.run(done)
    monitor.stop()
    health.stop()
    engine.run()

    # ------------------------------------------------------------- alerts
    print("3. the alert timeline")
    assert validate("alerts", monitor.sink.timeline) == []
    for record in monitor.sink.timeline:
        print(f"   t={record['time']:7.3f}s  {record['name']:<28} "
              f"{record['state']:<9} severity={record['severity']}")
    assert monitor.firing() == (), "every alert must have resolved"
    summary = monitor.watch_summary()
    print(f"   watched {summary['rules']} rule(s) over "
          f"{summary['ticks']} ticks, "
          f"{summary['alerts_emitted']} alert transitions")

    # ---------------------------------------------------------- exporters
    print(f"4. exporting to {OUT_DIR}/")
    os.makedirs(OUT_DIR, exist_ok=True)
    write_jsonl(monitor.sink.timeline, os.path.join(OUT_DIR, "alerts.jsonl"))
    trace_path = os.path.join(OUT_DIR, "trace.jsonl.gz")
    write_jsonl(fs.obs.tracer.records, trace_path)
    write_metrics(fs.obs.metrics, os.path.join(OUT_DIR, "metrics.json.gz"))
    print(f"   alerts.jsonl ({len(monitor.sink.timeline)} records), "
          "trace.jsonl.gz, metrics.json.gz")

    # ----------------------------------------------------------- analysis
    print("5. pairing alerts with their faults (from the gzip trace)")
    trace = read_trace_file(trace_path)
    assert trace.problems == []
    report = alert_report(trace)
    for detection in report["detections"]:
        print(f"   {detection['alert']} fired {detection['detection_delay']:.3f}s "
              f"after {detection['fault']}, cleared in "
              f"{detection['time_to_clear']:.3f}s")
    assert report["firing_at_end"] == []


if __name__ == "__main__":
    main()
