#!/usr/bin/env python3
"""Day-2 operations: memory cache, balancer, decommissioning, append.

A tour of the operational tooling built around the paper's mechanisms:

1. the **memory tier as a cache** (§6): a tiering engine under
   ``BudgetedCachePolicy`` promotes hot files to memory within a byte
   budget and evicts in LRU order;
2. the **balancer** redistributes replicas within a tier after skewed
   ingestion;
3. **append** extends an existing log file, filling its tail block;
4. **decommissioning** retires a worker gracefully — replicas drain to
   the remaining nodes while reads keep working.

Run:  python examples/cluster_operations.py
"""

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.fs.balancer import Balancer
from repro.tier import BudgetedCachePolicy, TieringEngine
from repro.util.units import MB


def show_spread(balancer, label):
    spread = balancer.spread()
    rendered = ", ".join(f"{t}: {v * 100:.1f}%" for t, v in spread.items())
    print(f"  {label}: worst deviation from tier mean -> {rendered}")


def main() -> None:
    fs = OctopusFileSystem(small_cluster_spec())
    client = fs.client(on="worker1")

    # ------------------------------------------------------- memory cache
    print("1. memory tier as a cache (LRU, 32 MB budget)")
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

    # ----------------------------------------------------------- balancer
    print("\n2. balancer (after skewed single-node ingestion)")
    for index in range(8):
        client.write_file(f"/skewed/part-{index}", size=4 * MB,
                          rep_vector=ReplicationVector.of(hdd=1))
    balancer = Balancer(fs, threshold=0.002)
    show_spread(balancer, "before")
    report = balancer.run()
    show_spread(balancer, "after ")
    print(f"  moved {report.moves_executed} replicas, "
          f"{report.bytes_moved // MB} MB total")

    # ------------------------------------------------------------- append
    print("\n3. append (tail block fills in place)")
    client.write_file("/logs/app.log", data=b"2026-07-06 boot\n")
    with client.append("/logs/app.log") as stream:
        stream.write(b"2026-07-06 ready\n")
    print("  log now reads:", client.read_file("/logs/app.log").decode().strip().split("\n"))

    # ----------------------------------------------------- decommissioning
    print("\n4. decommissioning worker2")
    before = len(fs.workers["worker2"].block_report())
    drained = fs.decommission_worker("worker2")
    print(f"  drained {drained} replicas (had {before}); data still readable:")
    sample = fs.client(on="worker3").read_file("/logs/app.log")
    print("  ", sample.decode().strip().splitlines()[-1])
    live_workers = [n for n, r in fs.master.workers.items() if not r.dead]
    print(f"  remaining workers: {sorted(live_workers)}")


if __name__ == "__main__":
    main()
