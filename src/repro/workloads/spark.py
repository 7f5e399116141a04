"""A stage-level Spark engine simulation (paper §7.5 substrate).

Spark differs from MapReduce in the ways that matter for the paper's
Fig. 6: it caches working sets in *executor memory* (its own heap, not
the file system's memory tier), so iterative stages after the first
barely touch the DFS — which is why the paper sees smaller OctopusFS
gains for Spark (~17 %) than for Hadoop (~35 %).

The model: one executor per worker node with ``cores`` task slots,
each taking its next partition by Spark's locality levels (cached on
its executor, then node-local, then rack-local, then any). A
job is ``iterations`` passes over its input; pass 1 reads the input
through the DFS (retrieval policy and tiers apply), later passes hit
the executor cache at memory bandwidth when the partitions fit in the
per-node cache budget (LRU-less: first-come, until full). Shuffles move
data between executors' local disks; the final result is written back
through the DFS client.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Generator

from repro.core.replication_vector import ReplicationVector
from repro.util.units import GB, MB
from repro.workloads.tasks import (
    Split,
    pick_local,
    plan_splits,
    read_split,
    run_wave,
    shuffle,
    write_parts,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Node
    from repro.fs.system import OctopusFileSystem

#: Bandwidth of reading a cached partition from executor memory.
EXECUTOR_MEMORY_BANDWIDTH = 5.0 * GB

#: Spark's per-MB CPU multiplier relative to the MapReduce profile.
#: RDD processing pays JVM object / serialization overhead that the
#: tighter MapReduce record loops avoid (Spark 1.x era, as evaluated).
PROCESSING_OVERHEAD = 1.5


@dataclass
class SparkJobSpec:
    """One Spark application: its input, passes, and resource profile."""

    name: str
    input_paths: list[str]
    output_path: str
    #: Seconds of task CPU per MB processed, per pass.
    cpu_per_mb: float
    #: Shuffle bytes per pass as a fraction of input bytes.
    shuffle_ratio: float
    #: Final-output bytes as a fraction of input bytes.
    output_ratio: float
    #: Passes over the data (1 = single-scan job, >1 = iterative).
    iterations: int = 1
    #: Whether the application calls ``rdd.cache()`` on its input.
    cache_input: bool = True
    output_vector: ReplicationVector | int | None = None


@dataclass
class SparkJobResult:
    name: str
    started_at: float
    finished_at: float
    tasks: int
    input_bytes: int
    cached_reads: int
    dfs_reads: int

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def cache_hit_rate(self) -> float:
        total = self.cached_reads + self.dfs_reads
        return self.cached_reads / total if total else 0.0


class SparkEngine:
    """Executor/core model running stages over one file system."""

    def __init__(
        self,
        system: "OctopusFileSystem",
        cores_per_executor: int = 4,
        cache_per_node: int = 8 * GB,
    ) -> None:
        self.system = system
        self.cores = cores_per_executor
        self.cache_capacity = cache_per_node

    def run_job(self, spec: SparkJobSpec) -> SparkJobResult:
        return self.system.run_to_completion(self.run_job_proc(spec))

    def run_job_proc(self, spec: SparkJobSpec) -> Generator:
        system = self.system
        started_at = system.engine.now
        partitions = list(plan_splits(system, spec.input_paths))
        input_bytes = sum(split.block.size for split in partitions)
        cache_used: dict[str, int] = {}
        cached_blocks: dict[int, str] = {}  # block id -> caching node
        stats = {"cached": 0, "dfs": 0}

        def cached_here(split: Split, node: "Node") -> bool:
            return cached_blocks.get(split.block.block_id) == node.name

        pick = partial(pick_local, first=cached_here)
        task = partial(self._run_task, spec, cache_used, cached_blocks, stats)
        nodes = [system.cluster.node(name) for name in sorted(system.workers)]
        # Stage-boundary shuffle: local disk to local disk, all-to-all.
        per_pair = int(input_bytes * spec.shuffle_ratio) // max(
            1, len(nodes) * (len(nodes) - 1)
        )
        for _iteration in range(spec.iterations):
            yield from run_wave(system, self.cores, list(partitions), pick, task, "core")
            yield from shuffle(
                system,
                ((src, dst, per_pair) for src in nodes for dst in nodes if src is not dst),
                label=f"shuffle:{spec.name}",
            )
        per_node = int(input_bytes * spec.output_ratio) // len(nodes)
        if per_node > 0:
            system.client().mkdir(spec.output_path)
            yield write_parts(
                system, f"{spec.output_path}/part", per_node, spec.output_vector
            )

        return SparkJobResult(
            name=spec.name,
            started_at=started_at,
            finished_at=system.engine.now,
            tasks=len(partitions) * spec.iterations,
            input_bytes=input_bytes,
            cached_reads=stats["cached"],
            dfs_reads=stats["dfs"],
        )

    def _run_task(
        self, spec, cache_used, cached_blocks, stats, split: Split, node: "Node"
    ) -> Generator:
        """Run one task: its input I/O overlaps its CPU.

        Spark pipelines iterators through a stage, so a task's duration
        is ~max(I/O, CPU) rather than their sum — one reason DFS-side
        speedups help Spark less than they help MapReduce.
        """
        engine = self.system.engine
        block = split.block
        cached_on = cached_blocks.get(block.block_id)
        if cached_on == node.name:
            stats["cached"] += 1
            io_event = engine.timeout(block.size / EXECUTOR_MEMORY_BANDWIDTH)
        elif cached_on is not None:
            # Cached on a different executor: pull over the network.
            stats["cached"] += 1
            source = self.system.cluster.node(cached_on)
            resources = self.system.cluster.topology.path_resources(source, node)
            io_event = self.system.cluster.flows.transfer(
                block.size, resources, label=f"remote-cache:{spec.name}"
            )
        else:
            stats["dfs"] += 1
            io_event = read_split(split, node, label=f"rdd:{block.block_id}")
            if spec.cache_input:
                used = cache_used.get(node.name, 0)
                if used + block.size <= self.cache_capacity:
                    cache_used[node.name] = used + block.size
                    cached_blocks[block.block_id] = node.name
        waits = [io_event]
        cpu_seconds = (block.size / MB) * spec.cpu_per_mb * PROCESSING_OVERHEAD
        if cpu_seconds > 0:
            waits.append(engine.timeout(cpu_seconds))
        yield engine.all_of(waits)
