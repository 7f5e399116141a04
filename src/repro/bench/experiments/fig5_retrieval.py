"""Figure 5: OctopusFS vs HDFS data retrieval policies.

DFSIO generates 10 GB under the MOOP placement policy, then reads it
back at five degrees of parallelism — once ordering replicas with the
tier-aware OctopusFS policy (Eq. 12) and once with the stock HDFS
locality-only ordering. Placement is *not* shared between the two
runs: both use the same MOOP policy, but each deployment draws its
placement tie-breaks from its own stream
(``DeterministicRng(seed, f"deployment/{name}").fork("placement")``), so
at seed 0 every one of the 81 blocks lands on different media. The gap
is the retrieval decision plus that difference in placement.

Paper shape to hold: OctopusFS retrieval wins everywhere; the advantage
shrinks from ~4× at d=3 to ~2× at d=27 as network congestion grows, but
stays significant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.deployments import build_deployment
from repro.bench.tables import format_table
from repro.cluster.spec import paper_cluster_spec
from repro.util.units import GB
from repro.workloads.dfsio import Dfsio

PARALLELISM = (3, 6, 12, 18, 27)
RETRIEVALS = {"octopus": "octopus", "hdfs": "octopus-hdfs-read"}


@dataclass
class Fig5Result:
    rows: list[list[object]] = field(default_factory=list)

    def format(self) -> str:
        return format_table(
            ["d", "octopus MB/s", "hdfs MB/s", "speedup"],
            self.rows,
            title="Fig 5: avg read throughput per worker, by retrieval policy",
        )


def run(scale: float = 1.0, seed: int = 0) -> Fig5Result:
    total_bytes = int(10 * GB * scale)
    result = Fig5Result()
    for d in PARALLELISM:
        throughput: dict[str, float] = {}
        for label, deployment in RETRIEVALS.items():
            fs = build_deployment(
                deployment,
                spec=paper_cluster_spec(racks=1, seed=seed),
                seed=seed,
            )
            bench = Dfsio(fs)
            bench.write(total_bytes, parallelism=d, rep_vector=3)
            read = bench.read(parallelism=d)
            throughput[label] = read.throughput_per_worker_mbs
        result.rows.append(
            [
                d,
                throughput["octopus"],
                throughput["hdfs"],
                throughput["octopus"] / throughput["hdfs"],
            ]
        )
    return result
