#!/usr/bin/env python3
"""Decision provenance walkthrough: "why is this replica here?".

Demonstrates the provenance ledger (see docs/OBSERVABILITY.md,
"Explaining placement"):

1. **record** — attach the :class:`~repro.obs.ProvenanceLedger` to a
   running cluster; every replica-affecting decision (MOOP placements
   with their rejected candidates, repair re-replications with their
   triggering faults, tiering promotions with heat and thresholds,
   balancer moves, deletions) appends one compact record;
2. **chaos + tiering** — run seeded chaos with the adaptive
   :class:`~repro.tier.DecayHeatPolicy` live, so replicas get created
   by initial placement, promoted by policy, and re-created by repair;
3. **export** — dump the ledger as a schema-versioned, byte-stable
   JSONL.gz (identical seeds → identical bytes), then validate it;
4. **explain** — rebuild each replica's causal chain ("why-here") and
   the score deltas vs the best rejected alternative ("why-not"); the
   same query is available as
   ``repro explain /chaos/f0 --ledger provenance-out/ledger.jsonl.gz``
   (add ``--json`` for the machine-readable form).

Everything is a pure function of the seed: run it twice and the ledger
bytes match.

Run:  python examples/explain_placement.py
"""

import os

from repro import OctopusFileSystem, ReplicationVector
from repro.bench.tables import format_report
from repro.cluster import small_cluster_spec
from repro.errors import OctopusError
from repro.obs import ProvenanceLedger, explain
from repro.obs.export import load
from repro.tier import DecayHeatPolicy, TieringEngine
from repro.util.units import MB

OUT_DIR = "provenance-out"
DURATION = 30.0

VECTORS = [
    ReplicationVector.of(hdd=2),
    ReplicationVector.of(ssd=1, hdd=1),
    ReplicationVector.of(memory=1, hdd=1),
    ReplicationVector.from_replication_factor(3),
]


def main() -> None:
    fs = OctopusFileSystem(small_cluster_spec(seed=0))
    fs.obs.enable()

    # ------------------------------------------------------------- record
    print("1. attaching the provenance ledger (bounded, append-only)")
    ledger = ProvenanceLedger(fs.obs).attach()

    client = fs.client(on="worker1")
    paths = []
    for index in range(4):
        path = f"/chaos/f{index}"
        client.write_file(
            path, size=4 * MB, rep_vector=VECTORS[index % len(VECTORS)]
        )
        paths.append(path)

    # ---------------------------------------------------- chaos + tiering
    print("2. seeded chaos with the adaptive tiering policy live")
    engine = TieringEngine(
        fs,
        policy=DecayHeatPolicy(
            promote_heat=1.5, demote_heat=0.5, movement_budget=2
        ),
        interval=4.0,
        half_life=10.0,
    ).start()

    def reader():
        index = 0
        while fs.engine.now < DURATION:
            path = paths[index % len(paths)]
            index += 1
            try:
                stream = client.open(path)
                yield from stream.read_proc(collect=False)
            except OctopusError:
                pass  # a fault ate the read; carry on
            yield fs.engine.timeout(1.0)

    fs.engine.process(reader(), name="heat-reader")
    fs.master.heartbeat_expiry = 6.0
    fs.start_services(heartbeat_interval=2.0, replication_interval=3.0)
    chaos = fs.faults.start_chaos(
        seed=0, mean_interval=2.0, duration=DURATION, heal_delay=(1.0, 5.0)
    )
    fs.engine.run(until=chaos.process)  # chaos exits fully healed
    fs.stop_services()
    engine.stop()
    fs.await_replication()
    ledger.detach()
    print(
        f"   {chaos.strikes} chaos strikes, "
        f"{engine.stats.promotions} promotions, "
        f"{len(ledger)} decision records"
    )

    # ------------------------------------------------------------- export
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "ledger.jsonl.gz")
    ledger.export(out)
    records = load(out, "ledger")
    print(f"3. ledger exported to {out} ({len(records)} records, schema-valid)")

    # ------------------------------------------------------------ explain
    print("4. why is each replica where it is?\n")
    for path in paths:
        result = explain(records, path)
        if result["records"]:
            print(format_report(result), end="\n\n")
    print(
        "same query from the CLI:\n"
        f"  python -m repro explain {paths[0]} --ledger {out}"
    )


if __name__ == "__main__":
    main()
