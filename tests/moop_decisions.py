"""Print 400 seeded MOOP placement decisions: the picks and the ``repr``
of every score that chose them.

``python tests/moop_decisions.py`` (it puts ``src`` on the path itself;
numpy and pytest are not needed). The cluster has degraded media, so the
tier averages and every sum behind a score are floats that round; the
decisions cycle through every subset of the objectives in the paper's
order, and each one's reservations and write flow load the next.
``tests/test_bench_experiments.py`` runs it under every interpreter it
finds and requires the same bytes from each.
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cluster import Cluster, paper_cluster_spec  # noqa: E402
from repro.core.moop import PlacementRequest, place_replicas  # noqa: E402
from repro.core.objectives import ALL_OBJECTIVES  # noqa: E402
from repro.core.replication_vector import ReplicationVector  # noqa: E402
from repro.errors import InsufficientStorageError  # noqa: E402
from repro.obs import ProvenanceLedger  # noqa: E402
from repro.util.rng import DeterministicRng  # noqa: E402

DECISIONS = 400
SUBSETS = [
    subset
    for size in range(1, len(ALL_OBJECTIVES) + 1)
    for subset in itertools.combinations(ALL_OBJECTIVES, size)
]
VECTORS = (
    ReplicationVector.of(u=3),
    ReplicationVector.of(memory=1, u=2),
    ReplicationVector.of(ssd=1, hdd=1, u=1),
    ReplicationVector.of(u=2),
)


def main() -> None:
    cluster = Cluster(paper_cluster_spec(workers=12, racks=3, seed=5))
    cluster.obs.enable()
    ProvenanceLedger(cluster.obs).attach()
    draw = DeterministicRng(5, "moop-decisions/cluster")
    media = list(cluster.media.values())
    for medium in draw.sample(media, 7):
        medium.degrade(draw.uniform(0.1, 0.95))
    workers = cluster.worker_nodes
    ties = DeterministicRng(5, "moop-decisions/ties")
    held = []
    for index in range(DECISIONS):
        objectives = SUBSETS[index % len(SUBSETS)]
        live = cluster.live_media()
        request = PlacementRequest(
            rep_vector=VECTORS[index % len(VECTORS)],
            block_size=cluster.block_size,
            client_node=draw.choice(workers + [None]),
            existing_replicas=tuple(draw.sample(live, index % 3)),
            memory_enabled=index % 5 != 0,
        )
        try:
            chosen = place_replicas(cluster, request, objectives, rng=ties)
        except InsufficientStorageError:
            print(index, "full")
            continue
        decision = cluster.obs.last_placement
        scores = [entry["score"] for entry in decision["entries"]]
        print(index, ",".join(objectives), " ".join(m.medium_id for m in chosen),
              repr(scores), repr(decision["score"]))
        for medium in chosen:
            medium.reserve(request.block_size)
            held.append(medium)
        cluster.flows.start_flow(
            request.block_size, [medium.write_channel for medium in chosen]
        )
        if index % 20 == 19:
            cluster.engine.run(until=cluster.engine.now + 1.0)
            for medium in held:
                medium.release_reservation(request.block_size)
            held.clear()


if __name__ == "__main__":
    main()
