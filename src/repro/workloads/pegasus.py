"""Pegasus graph-mining workloads with tiering optimizations (§7.6, Fig. 7).

Pegasus runs iterative graph algorithms as chains of MapReduce jobs
over an adjacency-list file. The paper modifies it with two
optimizations built on OctopusFS's controllability APIs:

1. **Prefetch** — datasets reused every iteration (the graph itself)
   get one replica *moved* into the memory tier via ``setReplication``
   before the iterations start, so every iteration's reads hit memory.
2. **Intermediate data in memory** — short-lived outputs consumed by
   the next job are written with a ``⟨1,0,1⟩``-style vector (one memory
   replica + one disk replica) instead of the default three disk-bound
   replicas, cutting both write and subsequent read cost.

Four workloads are modeled with per-iteration profiles matching their
published characters: Pagerank, Connected Components (ConComp), Graph
Diameter/Radius (HADI — noted in the paper for its ~18 GB of
intermediate data per iteration), and Random Walk with Restart (RWR).
All converge within four iterations, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.replication_vector import ReplicationVector
from repro.util.units import GB
from repro.workloads.mapreduce import JobResult, MapReduceEngine, MapReduceJobSpec
from repro.workloads.tasks import list_files, write_parts

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.system import OctopusFileSystem

#: The paper's input: a 2M-vertex graph, 3.3 GB on disk.
GRAPH_BYTES = int(3.3 * GB)


@dataclass(frozen=True)
class PegasusWorkload:
    """One graph-mining algorithm's per-iteration profile."""

    name: str
    iterations: int
    #: Per-iteration intermediate output as a multiple of the graph size.
    intermediate_ratio: float
    map_cpu_per_mb: float
    reduce_cpu_per_mb: float
    shuffle_ratio: float


#: The four workloads of Fig. 7. HADI's heavy intermediate data (about
#: 18 GB per iteration on the 3.3 GB graph, i.e. ~5.5x) is what makes
#: the intermediate-data optimization so valuable for it.
WORKLOADS: dict[str, PegasusWorkload] = {
    "pagerank": PegasusWorkload("pagerank", 4, 0.35, 0.003, 0.005, 0.9),
    "concomp": PegasusWorkload("concomp", 4, 0.35, 0.002, 0.004, 0.9),
    "hadi": PegasusWorkload("hadi", 4, 5.5, 0.004, 0.006, 1.2),
    "rwr": PegasusWorkload("rwr", 4, 0.5, 0.003, 0.005, 0.9),
}

#: Vector used for prefetching: move one graph replica into memory.
PREFETCH_VECTOR = ReplicationVector.of(memory=1, u=2)
#: Vector for short-lived intermediate data: one memory replica plus one
#: SSD replica. Short-lived data needs neither three copies nor archival
#: durability, so the modified Pegasus pins it to the two fastest tiers.
INTERMEDIATE_VECTOR = ReplicationVector.of(memory=1, ssd=1)


@dataclass
class PegasusResult:
    workload: str
    duration: float
    jobs: list[JobResult]


class PegasusDriver:
    """Runs one Pegasus workload over one deployment.

    ``prefetch`` and ``intermediate_in_memory`` correspond to the two
    §7.6 optimizations; they require OctopusFS's vector APIs, so they
    are only meaningful on an OctopusFS-configured deployment (on an
    HDFS-configured one the vectors cannot name tiers usefully).
    """

    def __init__(
        self,
        system: "OctopusFileSystem",
        prefetch: bool = False,
        intermediate_in_memory: bool = False,
        base: str = "/pegasus",
    ) -> None:
        self.system = system
        self.prefetch = prefetch
        self.intermediate_in_memory = intermediate_in_memory
        self.base = base

    # ------------------------------------------------------------------
    # Input generation
    # ------------------------------------------------------------------
    def prepare_graph(self, graph_bytes: int = GRAPH_BYTES) -> str:
        """Write the adjacency-list file with parallel generators."""
        directory = f"{self.base}/graph"
        per_file = graph_bytes // len(self.system.workers)
        self.system.engine.run(
            write_parts(self.system, f"{directory}/edges", per_file, None)
        )
        return directory

    # ------------------------------------------------------------------
    # Workload execution
    # ------------------------------------------------------------------
    def run(
        self, workload: PegasusWorkload, graph_bytes: int = GRAPH_BYTES
    ) -> PegasusResult:
        graph_dir = self.prepare_graph(graph_bytes)
        graph_files = list_files(self.system, graph_dir)
        client = self.system.client()
        engine = MapReduceEngine(self.system)

        start = self.system.engine.now
        if self.prefetch:
            # Ask for one replica of the reused dataset in memory; the
            # copies run *concurrently* with the first iteration (the §6
            # prefetch "overlaps I/O with task processing"), so later
            # iterations read from memory without an upfront stall.
            for path in graph_files:
                client.set_replication(path, PREFETCH_VECTOR)
            self.system.master.check_replication()

        output_vector = (
            INTERMEDIATE_VECTOR if self.intermediate_in_memory else None
        )
        jobs: list[JobResult] = []
        prev_outputs: list[str] = []
        for iteration in range(workload.iterations):
            out = f"{self.base}/{workload.name}/iter-{iteration}"
            is_last = iteration == workload.iterations - 1
            spec = MapReduceJobSpec(
                name=f"{workload.name}-{iteration}",
                input_paths=graph_files + prev_outputs,
                output_path=out,
                map_cpu_per_mb=workload.map_cpu_per_mb,
                reduce_cpu_per_mb=workload.reduce_cpu_per_mb,
                shuffle_ratio=workload.shuffle_ratio,
                # Per-iteration intermediate output, relative to the
                # *graph*; final iteration emits the (small) result.
                output_ratio=self._output_ratio(
                    workload, graph_bytes, prev_outputs, final=is_last
                ),
                # Final results are durable: never memory-light vectors.
                output_vector=None if is_last else output_vector,
            )
            result = engine.run_job(spec)
            jobs.append(result)
            # The next iteration consumes this iteration's output and
            # drops the previous one (Pegasus deletes consumed temps).
            for stale in prev_outputs:
                client.delete(stale)
            prev_outputs = list_files(self.system, out)
            # Drive any pending replication work (prefetch move cleanup)
            # at the iteration boundary, still overlapped with the run.
            self.system.master.check_replication()
        duration = self.system.engine.now - start
        return PegasusResult(workload.name, duration, jobs)

    def _output_ratio(
        self,
        workload: PegasusWorkload,
        graph_bytes: int,
        prev_outputs: list[str],
        final: bool,
    ) -> float:
        if final:
            target = 0.05 * graph_bytes  # small converged result
        else:
            target = workload.intermediate_ratio * graph_bytes
        input_bytes = graph_bytes + sum(
            self.system.master.get_status(p).length
            for p in prev_outputs
        )
        return target / input_bytes if input_bytes else 0.0
