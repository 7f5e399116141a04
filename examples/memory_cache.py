#!/usr/bin/env python3
"""The memory tier as a budgeted cache (§6).

A tiering engine under ``BudgetedCachePolicy`` promotes hot files to
memory within a byte budget and evicts in LRU order: two files read
often are promoted, and a newly hot one displaces the least recently
used of them.

Run:  python examples/memory_cache.py
"""

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.tier import BudgetedCachePolicy, TieringEngine
from repro.util.units import MB


def main() -> None:
    fs = OctopusFileSystem(small_cluster_spec())
    client = fs.client(on="worker1")

    print("memory tier as a cache (LRU, 32 MB budget)")
    policy = BudgetedCachePolicy(budget=32 * MB, promote_after=2)
    engine = TieringEngine(fs, policy).attach()
    for name in ("alpha", "beta", "gamma"):
        client.write_file(f"/tables/{name}", size=12 * MB,
                          rep_vector=ReplicationVector.of(hdd=2))
    for _ in range(3):  # alpha and beta become hot; gamma stays cold
        client.open("/tables/alpha").read_size()
        client.open("/tables/beta").read_size()
    client.open("/tables/gamma").read_size()
    engine.run_round()  # engine.start() would run one every `interval`
    fs.await_replication()
    cached = [f for f in engine.observe().files if f.policy_memory_replicas]
    assert [f.path for f in cached] == ["/tables/alpha", "/tables/beta"]
    print(f"  promoted: {[f.path for f in cached]}")
    print(f"  memory pinned: {sum(f.length for f in cached) // MB} MB "
          f"of {policy.budget // MB} MB budget")
    client.write_file("/tables/delta", size=12 * MB,
                      rep_vector=ReplicationVector.of(hdd=2))
    for _ in range(2):
        client.open("/tables/beta").read_size()
        client.open("/tables/delta").read_size()
    for decision in engine.run_round():  # delta displaces the LRU victim
        print(f"  {decision.action.kind} {decision.action.path}")
    fs.await_replication()
    engine.detach()
    alpha = client.get_status("/tables/alpha").rep_vector
    assert alpha == ReplicationVector.of(hdd=2), alpha


if __name__ == "__main__":
    main()
