#!/usr/bin/env python3
"""Interactive analytics: pinning a working set in cluster memory (§6).

An analyst explores one dataset with many consecutive queries. With
explicit memory management, the application pins its working set in the
memory tier before the session (one memory replica; the disk replicas
provide fault tolerance), and every query after the first reads at
memory speed. The example contrasts three sessions:

* cold    — data on HDDs, every query pays disk+network reads;
* pinned  — working set pinned via ``setReplication`` before querying;
* failure — a worker dies mid-session; reads fail over to the disk
            replicas and the replication manager restores the memory
            copy, demonstrating that pinning is safe.

Run:  python examples/interactive_analytics.py
"""

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.util.units import MB

WORKING_SET = "/warehouse/events"
PINNED = ReplicationVector.of(memory=1, hdd=2)
UNPINNED = ReplicationVector.of(hdd=3)
QUERIES = 5


def new_session() -> tuple[OctopusFileSystem, object]:
    fs = OctopusFileSystem(small_cluster_spec())
    client = fs.client(on="worker1")
    client.write_file(WORKING_SET, size=24 * MB, rep_vector=UNPINNED)
    return fs, client


def run_queries(fs, client, label: str) -> None:
    times = []
    for _query in range(QUERIES):
        start = fs.engine.now
        client.open(WORKING_SET).read_size()
        times.append((fs.engine.now - start) * 1000)
    rendered = " ".join(f"{t:6.1f}" for t in times)
    print(f"  {label:8} query times (ms): {rendered}")


def main() -> None:
    print("cold session (working set on HDDs):")
    fs, client = new_session()
    run_queries(fs, client, "cold")

    print("\npinned session (one replica moved to memory first):")
    fs, client = new_session()
    client.set_replication(WORKING_SET, PINNED)
    fs.await_replication()
    run_queries(fs, client, "pinned")

    print("\npinned session surviving a worker failure:")
    locations = client.get_file_block_locations(WORKING_SET)
    memory_host = next(
        host
        for location in locations
        for host, tier in zip(location.hosts, location.tiers)
        if tier == "MEMORY"
    )
    print(f"  killing {memory_host} (holds the in-memory replica)...")
    fs.faults.crash(memory_host)
    run_queries(fs, client, "degraded")  # falls over to disk replicas
    fs.await_replication()  # the manager re-pins memory elsewhere
    tiers = sorted(client.get_file_block_locations(WORKING_SET)[0].tiers)
    print(f"  after repair, block tiers: {tiers}")
    run_queries(fs, client, "repaired")


if __name__ == "__main__":
    main()
