#!/usr/bin/env python3
"""Flight recorder walkthrough: from fault to automated postmortem.

Demonstrates the incident-forensics layer (see docs/OBSERVABILITY.md,
"Incident forensics"):

1. **record** — attach the always-on flight recorder to a running
   cluster; it marks where its window starts in the trace and keeps
   bounded rings of what the trace does not hold: watched metric
   deltas, health sweeps, and alerts;
2. **chaos** — degrade the memory medium under a hot file mid-run; the
   fault trigger opens an incident, and the engine timer seals it
   ``post_roll`` seconds later into a self-contained gzip bundle in
   ``recorder-out/``;
3. **postmortem** — rebuild the causal timeline (fault → metric
   deviation → alert → repair → resolution), the blast radius, and the
   degraded requests' critical paths from the bundle alone;
4. **render** — the same analysis is available as
   ``repro postmortem recorder-out/incident-001.json.gz``
   (add ``--json`` or ``--chrome-out incident.chrome.json.gz``).

Everything is a pure function of the seed: run it twice and the bundle
bytes match.

Run:  python examples/flight_recorder.py
"""

import os

from repro import OctopusFileSystem, ReplicationVector
from repro.bench.tables import format_report
from repro.cluster import small_cluster_spec
from repro.obs import (
    BurnRateRule,
    FlightRecorder,
    HealthMonitor,
    LatencySlo,
    RecorderConfig,
    SloMonitor,
    postmortem_report,
)
from repro.obs.export import load
from repro.util.units import MB

OUT_DIR = "recorder-out"
FAULT_AT = 3.0
REPAIR_AT = 6.0


def main() -> None:
    fs = OctopusFileSystem(small_cluster_spec(seed=0))
    fs.obs.enable()

    # ------------------------------------------------------------- record
    print("1. attaching the flight recorder (trace windows, gzip bundles)")
    recorder = FlightRecorder(
        fs,
        config=RecorderConfig(pre_roll=30.0, post_roll=6.0),
        out_dir=OUT_DIR,
    ).attach()
    client = fs.client(on="worker1")
    client.write_file(
        "/hot",
        size=4 * MB,
        rep_vector=ReplicationVector.of(memory=1, hdd=1),
        overwrite=True,
    )
    engine = fs.engine
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

    # -------------------------------------------------------------- chaos
    print("2. degrading the hot file's memory medium mid-run")

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
    recorder.detach()

    (summary,) = recorder.incidents
    print(f"   incident #{summary['id']} triggered at "
          f"{summary['triggered_at']:.3f}s, sealed at "
          f"{summary['closed_at']:.3f}s -> {summary['path']}")

    # --------------------------------------------------------- postmortem
    print("3. rebuilding the incident from the bundle alone")
    bundle = load(summary["path"], "bundle")
    report = postmortem_report(bundle)
    chain = report["causal_chain"]
    assert chain["complete"], "the causal arc must close"
    print(f"   causal chain complete: detection "
          f"{chain['detection_delay']:.3f}s, repair "
          f"{chain['time_to_repair']:.3f}s, resolution "
          f"{chain['time_to_resolve']:.3f}s after the fault")
    radius = report["blast_radius"]
    print(f"   blast radius: {radius['affected_requests']} requests on "
          f"tiers {radius['tiers']} via workers {radius['workers']}")

    # ------------------------------------------------------------- render
    print("4. the rendered postmortem (what `repro postmortem` prints)")
    print()
    for line in format_report(report).splitlines():
        print(f"   {line}")
    print()
    print(f"   also try: repro postmortem {os.path.join(OUT_DIR, 'incident-001.json.gz')} --json")


if __name__ == "__main__":
    main()
