"""Figure 2: effect of tiered storage on DFSIO write/read throughput.

DFSIO writes 10 GB (×3 replicas) under six replication vectors — three
single-tier (⟨3,0,0⟩, ⟨0,3,0⟩, ⟨0,0,3⟩) and three multi-tier (⟨1,1,1⟩,
⟨1,0,2⟩, ⟨0,1,2⟩) — at five degrees of parallelism, then reads it back.
Reported: average write/read throughput per worker (MB/s).

Paper shape to hold: memory ≫ SSD > HDD at low d; SSD drops below HDD
at d=27 (1 SSD vs 3 HDDs per node); multi-tier vectors equal the HDD
bottleneck at low d but reach ~2× HDD at high d; ~1/3 of reads are
node-local.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add

from repro.bench.deployments import build_deployment
from repro.bench.tables import format_table
from repro.cluster.spec import paper_cluster_spec
from repro.core.replication_vector import ReplicationVector
from repro.util.units import GB
from repro.workloads.dfsio import Dfsio

#: The six vectors of Fig. 2, in ⟨M,S,H⟩ shorthand.
VECTORS = {
    "<3,0,0>": ReplicationVector.of(memory=3),
    "<0,3,0>": ReplicationVector.of(ssd=3),
    "<0,0,3>": ReplicationVector.of(hdd=3),
    "<1,1,1>": ReplicationVector.of(memory=1, ssd=1, hdd=1),
    "<1,0,2>": ReplicationVector.of(memory=1, hdd=2),
    "<0,1,2>": ReplicationVector.of(ssd=1, hdd=2),
}

PARALLELISM = (3, 6, 12, 18, 27)

#: The experiment stores 3 replicas of 10 GB; the memory tier must be
#: able to hold the ⟨3,0,0⟩ case, so the testbed uses 16 GB per worker
#: for this figure (the paper controls placement explicitly here, so
#: capacity only gates feasibility, not policy behaviour).
MEMORY_PER_WORKER = "16GB"


@dataclass
class Fig2Result:
    write_rows: list[list[object]] = field(default_factory=list)
    read_rows: list[list[object]] = field(default_factory=list)
    localities: list[float] = field(default_factory=list)

    def format(self) -> str:
        headers = ["d", *VECTORS.keys()]
        parts = [
            format_table(
                headers, self.write_rows,
                title="Fig 2(a): avg write throughput per worker (MB/s)",
            ),
            format_table(
                headers, self.read_rows,
                title="Fig 2(b): avg read throughput per worker (MB/s)",
            ),
        ]
        if self.localities:
            avg = reduce(add, self.localities, 0) / len(self.localities)
            parts.append(f"mean node-local read fraction: {avg:.2f} (paper: ~1/3)")
        return "\n\n".join(parts)


def run(scale: float = 1.0, seed: int = 0) -> Fig2Result:
    """Run the full d × vector sweep; ``scale`` shrinks the 10 GB."""
    total_bytes = int(10 * GB * scale)
    result = Fig2Result()
    for d in PARALLELISM:
        write_row: list[object] = [d]
        read_row: list[object] = [d]
        for vector in VECTORS.values():
            fs = build_deployment(
                "octopus",
                spec=paper_cluster_spec(
                    racks=1, memory=MEMORY_PER_WORKER, seed=seed
                ),
                seed=seed,
            )
            bench = Dfsio(fs)
            write = bench.write(total_bytes, parallelism=d, rep_vector=vector)
            read = bench.read(parallelism=d)
            write_row.append(write.throughput_per_worker_mbs)
            read_row.append(read.throughput_per_worker_mbs)
            if read.locality_fraction is not None:
                result.localities.append(read.locality_fraction)
        result.write_rows.append(write_row)
        result.read_rows.append(read_row)
    return result
