"""A stage-level Spark engine simulation (paper §7.5 substrate).

Spark differs from MapReduce in the ways that matter for the paper's
Fig. 6: it caches working sets in *executor memory* (its own heap, not
the file system's memory tier), so iterative stages after the first
barely touch the DFS — which is why the paper sees smaller OctopusFS
gains for Spark (~17 %) than for Hadoop (~35 %).

The model: one executor per worker node with ``cores`` task slots. A
job is ``iterations`` passes over its input; pass 1 reads the input
through the DFS (retrieval policy and tiers apply), later passes hit
the executor cache at memory bandwidth when the partitions fit in the
per-node cache budget (LRU-less: first-come, until full). Shuffles move
data between executors' local disks; the final result is written back
through the DFS client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro.core.replication_vector import ReplicationVector
from repro.fs.transfer import copy_resources
from repro.util.rng import DeterministicRng
from repro.util.units import GB, MB
from repro.workloads.splits import Split, plan_splits, read_split

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
        rng: DeterministicRng | None = None,
    ) -> None:
        self.system = system
        self.cores = cores_per_executor
        self.cache_capacity = cache_per_node
        self.rng = rng or DeterministicRng(system.cluster.spec.seed, "spark")

    def run_job(self, spec: SparkJobSpec) -> SparkJobResult:
        return self.system.run_to_completion(self.run_job_proc(spec))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_job_proc(self, spec: SparkJobSpec) -> Generator:
        engine = self.system.engine
        started_at = engine.now
        partitions = list(plan_splits(self.system, spec.input_paths))
        input_bytes = sum(split.block.size for split in partitions)
        cache_used: dict[str, int] = {}
        cached_blocks: dict[int, str] = {}  # block id -> caching node
        stats = {"cached": 0, "dfs": 0}

        for iteration in range(spec.iterations):
            yield from self._run_stage(
                spec, partitions, cache_used, cached_blocks, stats
            )
        yield from self._write_output(spec, input_bytes)

        return SparkJobResult(
            name=spec.name,
            started_at=started_at,
            finished_at=engine.now,
            tasks=len(partitions) * spec.iterations,
            input_bytes=input_bytes,
            cached_reads=stats["cached"],
            dfs_reads=stats["dfs"],
        )

    def _run_stage(
        self, spec, partitions, cache_used, cached_blocks, stats
    ) -> Generator:
        engine = self.system.engine
        queue = list(partitions)

        def core_worker(node: "Node") -> Generator:
            while queue:
                split = self._pick_partition(queue, node, cached_blocks)
                queue.remove(split)
                yield from self._run_task(
                    spec, split, node, cache_used, cached_blocks, stats
                )

        procs = []
        for node_name in sorted(self.system.workers):
            node = self.system.cluster.node(node_name)
            for _core in range(self.cores):
                procs.append(
                    engine.process(core_worker(node), name=f"core:{node_name}")
                )
        yield engine.all_of(procs)
        # Stage-boundary shuffle (local-disk to local-disk, all-to-all).
        shuffle = int(
            sum(split.block.size for split in partitions) * spec.shuffle_ratio
        )
        if shuffle > 0:
            yield from self._shuffle(spec, shuffle)

    def _pick_partition(self, queue, node: "Node", cached_blocks):
        """Prefer partitions cached here, then replica-local, then any."""
        for split in queue:
            if cached_blocks.get(split.block.block_id) == node.name:
                return split
        for split in queue:
            if node.name in split.hosts:
                return split
        return queue[0]

    def _run_task(
        self, spec, split: Split, node: "Node", cache_used, cached_blocks,
        stats,
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

    def _shuffle(self, spec, shuffle_bytes: int) -> Generator:
        """All-to-all between executors' local disks."""
        engine = self.system.engine
        names = sorted(self.system.workers)
        per_pair = shuffle_bytes // max(1, len(names) * (len(names) - 1))
        if per_pair <= 0:
            return
        flows = []
        for src_name in names:
            for dst_name in names:
                if src_name == dst_name:
                    continue
                src = self.system.cluster.node(src_name)
                dst = self.system.cluster.node(dst_name)
                src_disk = min(
                    src.medium_for_tier("HDD") or src.live_media,
                    key=lambda m: m.read_channel.active_count,
                )
                dst_disk = min(
                    dst.medium_for_tier("HDD") or dst.live_media,
                    key=lambda m: m.write_channel.active_count,
                )
                resources = copy_resources(
                    self.system.cluster.topology, src_disk, dst_disk
                )
                flows.append(
                    self.system.cluster.flows.transfer(
                        per_pair, resources, label=f"shuffle:{spec.name}"
                    )
                )
        yield engine.all_of(flows)

    def _write_output(self, spec, input_bytes: int) -> Generator:
        output_bytes = int(input_bytes * spec.output_ratio)
        if output_bytes <= 0:
            return
        names = sorted(self.system.workers)
        per_node = output_bytes // len(names)
        if per_node <= 0:
            return
        self.system.client().mkdir(spec.output_path)
        procs = []
        for index, name in enumerate(names):
            client = self.system.client(on=name)

            def write_part(client=client, index=index) -> Generator:
                stream = client.create(
                    f"{spec.output_path}/part-{index:05d}",
                    rep_vector=spec.output_vector,
                    overwrite=True,
                )
                yield from stream.write_size_proc(per_node)
                yield from stream.close_proc()

            procs.append(self.system.engine.process(write_part()))
        yield self.system.engine.all_of(procs)
