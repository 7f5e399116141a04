#!/usr/bin/env python3
"""What one MOOP placement decision costs, phase by phase.

    PYTHONPATH=src python tools/placement_phases.py

Places 2 000 blocks (``u=3``, a client on a worker) on ``fault_repair``'s
cluster (18 workers on 3 racks, 90 media) through ``place_replicas``,
reserving every pick and releasing them every 50 blocks, so the view
re-forms moved rows as it does in a workload. Each phase is timed by a
wrapper around the function that does it: the cluster read
(``snapshot_cluster``), the option lists (``gen_options``), the tie
shuffles, the scorer's set-up (``prefix_scorer``) and its scoring. Three
rounds; the fastest of each is printed, in µs per decision, with a
digest of the picks. Put another checkout's ``src`` on ``PYTHONPATH``
to time that one: the phases are the same functions there.
"""

from __future__ import annotations

import hashlib
import sys
import time

from repro.cluster import Cluster, paper_cluster_spec
from repro.core import moop
from repro.core.moop import PlacementRequest, place_replicas
from repro.core.replication_vector import ReplicationVector
from repro.util.rng import DeterministicRng

DECISIONS = 2000
ROUNDS = 3
PHASES = ("snapshot", "gen_options", "shuffle", "scorer_setup", "scoring")


def timed(spent: dict, phase: str, function):
    def wrapper(*args, **kwargs):
        began = time.perf_counter()
        result = function(*args, **kwargs)
        spent[phase] += time.perf_counter() - began
        return result
    return wrapper


def one_round() -> tuple[dict, float, str]:
    spent = dict.fromkeys(PHASES, 0.0)
    stock = moop.snapshot_cluster, moop.gen_options, moop.prefix_scorer
    shuffle = DeterministicRng.shuffle

    def scorer(*args):
        score = stock[2](*args)
        return None if score is None else timed(spent, "scoring", score)

    moop.snapshot_cluster = timed(spent, "snapshot", stock[0])
    moop.gen_options = timed(spent, "gen_options", stock[1])
    moop.prefix_scorer = timed(spent, "scorer_setup", scorer)
    DeterministicRng.shuffle = timed(spent, "shuffle", shuffle)
    try:
        cluster = Cluster(paper_cluster_spec(workers=18, racks=3, seed=7))
        workers, rng, held, picks = cluster.worker_nodes, DeterministicRng(0, "phases"), [], []
        began = time.perf_counter()
        for index in range(DECISIONS):
            request = PlacementRequest(
                rep_vector=ReplicationVector.of(u=3), block_size=cluster.block_size,
                client_node=workers[(5 * index) % len(workers)],
            )
            chosen = place_replicas(cluster, request, rng=rng)
            for medium in chosen:
                medium.reserve(request.block_size)
            held.extend(chosen)
            if index % 50 == 49:
                for medium in held:
                    medium.release_reservation(request.block_size)
                held.clear()
            picks.extend(medium.medium_id for medium in chosen)
        total = time.perf_counter() - began
    finally:
        moop.snapshot_cluster, moop.gen_options, moop.prefix_scorer = stock
        DeterministicRng.shuffle = shuffle
    return spent, total, hashlib.md5(" ".join(picks).encode()).hexdigest()[:10]


def main() -> int:
    rounds = [one_round() for _ in range(ROUNDS)]
    per = 1e6 / DECISIONS
    print(f"place_replicas {min(total for _, total, _ in rounds) * per:.1f} us/decision, "
          f"picks {rounds[0][2]}")
    for phase in PHASES:
        print(f"  {phase:13s} {min(spent[phase] for spent, _, _ in rounds) * per:6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
