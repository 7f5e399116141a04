"""A task-level Hadoop MapReduce engine simulation (paper §7.5 substrate).

Models the parts of Hadoop that interact with the file system, which is
where OctopusFS's gains come from:

* **Map tasks** — one per input block, scheduled onto per-node map slots
  with locality preference (node-local first, then rack-local, then
  remote), reading their split through the DFS's retrieval policy so a
  tier-aware ordering speeds the read.
* **Intermediate data** — map outputs spill to a local disk; reducers
  shuffle them across the network into their own local disks.
* **Reduce tasks** — merge + user CPU, then write job output through
  the DFS client, so the active placement policy (and any replication
  vector on the output) shapes the write cost.

CPU costs are supplied per workload (seconds of task CPU per MB); the
engine is deliberately agnostic of what the job computes. The scheduler
is slot-based like Hadoop 1.x/YARN-with-static-containers: ``map_slots``
per worker node, reducers starting after the map phase completes
(slowstart = 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro.core.replication_vector import ReplicationVector
from repro.fs.transfer import copy_resources
from repro.util.rng import DeterministicRng
from repro.util.units import MB
from repro.workloads.splits import Split, plan_splits, read_split

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Node
    from repro.fs.system import OctopusFileSystem


@dataclass
class MapReduceJobSpec:
    """One job: inputs, output, and its resource profile."""

    name: str
    input_paths: list[str]
    output_path: str
    #: Seconds of map CPU per MB of input read.
    map_cpu_per_mb: float
    #: Seconds of reduce CPU per MB of shuffle data.
    reduce_cpu_per_mb: float
    #: Map-output bytes as a fraction of input bytes.
    shuffle_ratio: float
    #: Job-output bytes as a fraction of input bytes.
    output_ratio: float
    num_reducers: int = 9
    #: Replication of the job output (None = file system default).
    output_vector: ReplicationVector | int | None = None


@dataclass
class JobResult:
    """Timing and I/O accounting for one executed job."""

    name: str
    started_at: float
    finished_at: float
    map_tasks: int
    reduce_tasks: int
    input_bytes: int
    shuffle_bytes: int
    output_bytes: int
    local_map_reads: int

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def map_locality(self) -> float:
        return self.local_map_reads / self.map_tasks if self.map_tasks else 0.0


class MapReduceEngine:
    """Slot-based scheduler + task execution over one file system."""

    def __init__(
        self,
        system: "OctopusFileSystem",
        map_slots: int = 4,
        rng: DeterministicRng | None = None,
    ) -> None:
        self.system = system
        self.map_slots = map_slots
        self.rng = rng or DeterministicRng(system.cluster.spec.seed, "mapreduce")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run_job(self, spec: MapReduceJobSpec) -> JobResult:
        """Run one job to completion (synchronous wrapper)."""
        return self.system.run_to_completion(self.run_job_proc(spec))

    def run_workflow(self, specs: list[MapReduceJobSpec]) -> list[JobResult]:
        """Run a job DAG expressed as a sequential chain."""
        return [self.run_job(spec) for spec in specs]

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def run_job_proc(self, spec: MapReduceJobSpec) -> Generator:
        engine = self.system.engine
        started_at = engine.now
        tasks = list(plan_splits(self.system, spec.input_paths))
        input_bytes = sum(t.block.size for t in tasks)
        shuffle_bytes = int(input_bytes * spec.shuffle_ratio)
        output_bytes = int(input_bytes * spec.output_ratio)

        local_reads = [0]
        map_outputs: dict[str, int] = {}  # node -> map-output bytes held
        yield from self._map_phase(spec, tasks, map_outputs, local_reads)
        yield from self._reduce_phase(spec, map_outputs, shuffle_bytes, output_bytes)

        return JobResult(
            name=spec.name,
            started_at=started_at,
            finished_at=engine.now,
            map_tasks=len(tasks),
            reduce_tasks=spec.num_reducers,
            input_bytes=input_bytes,
            shuffle_bytes=shuffle_bytes,
            output_bytes=output_bytes,
            local_map_reads=local_reads[0],
        )

    # ------------------------------------------------------------------
    # Map phase
    # ------------------------------------------------------------------
    def _map_phase(
        self,
        spec: MapReduceJobSpec,
        tasks: list[Split],
        map_outputs: dict[str, int],
        local_reads: list[int],
    ) -> Generator:
        queue = list(tasks)
        engine = self.system.engine

        def slot_worker(node: "Node") -> Generator:
            while queue:
                task = self._pick_task(queue, node)
                queue.remove(task)
                if node.name in task.hosts:
                    local_reads[0] += 1
                yield from self._run_map_task(spec, task, node, map_outputs)

        procs = []
        for node_name in sorted(self.system.workers):
            node = self.system.cluster.node(node_name)
            for _slot in range(self.map_slots):
                procs.append(
                    engine.process(slot_worker(node), name=f"map-slot:{node_name}")
                )
        yield engine.all_of(procs)

    def _pick_task(self, queue: list[Split], node: "Node") -> Split:
        """Hadoop-style locality preference: node, then rack, then any."""
        for task in queue:
            if node.name in task.hosts:
                return task
        rack_nodes = {n.name for n in node.rack.nodes}
        for task in queue:
            if task.hosts & rack_nodes:
                return task
        return queue[0]

    def _run_map_task(
        self,
        spec: MapReduceJobSpec,
        task: Split,
        node: "Node",
        map_outputs: dict[str, int],
    ) -> Generator:
        engine = self.system.engine
        yield read_split(task, node, label=f"split:{task.block.block_id}")
        size_mb = task.block.size / MB
        if spec.map_cpu_per_mb > 0:
            yield engine.timeout(size_mb * spec.map_cpu_per_mb)
        spill = int(task.block.size * spec.shuffle_ratio)
        if spill > 0:
            disk = self._local_spill_disk(node)
            yield self.system.cluster.flows.transfer(
                spill, [disk.write_channel], label=f"spill:{spec.name}"
            )
            map_outputs[node.name] = map_outputs.get(node.name, 0) + spill

    def _local_spill_disk(self, node: "Node"):
        """Least-loaded local HDD (Hadoop spills round-robin over disks)."""
        disks = node.medium_for_tier("HDD") or node.live_media
        return min(disks, key=lambda m: m.write_channel.active_count)

    # ------------------------------------------------------------------
    # Reduce phase
    # ------------------------------------------------------------------
    def _reduce_phase(
        self,
        spec: MapReduceJobSpec,
        map_outputs: dict[str, int],
        shuffle_bytes: int,
        output_bytes: int,
    ) -> Generator:
        if spec.num_reducers <= 0:
            return
        engine = self.system.engine
        reducer_nodes = self._reducer_nodes(spec.num_reducers)
        out_per_reducer = output_bytes // spec.num_reducers

        def reducer(index: int) -> Generator:
            node = reducer_nodes[index]
            # Shuffle: fetch this reducer's share from every map node.
            fetches = []
            for source_name, held in map_outputs.items():
                portion = held // spec.num_reducers
                if portion <= 0:
                    continue
                source = self.system.cluster.node(source_name)
                resources = copy_resources(
                    self.system.cluster.topology,
                    self._local_spill_disk(source),
                    self._local_spill_disk(node),
                )
                fetches.append(
                    self.system.cluster.flows.transfer(
                        portion, resources, label=f"shuffle:{spec.name}"
                    )
                )
            if fetches:
                yield engine.all_of(fetches)
            share_mb = (shuffle_bytes / spec.num_reducers) / MB
            if spec.reduce_cpu_per_mb > 0:
                yield engine.timeout(share_mb * spec.reduce_cpu_per_mb)
            if out_per_reducer > 0:
                client = self.system.client(on=node)
                stream = client.create(
                    f"{spec.output_path}/part-{index:05d}",
                    rep_vector=spec.output_vector,
                    overwrite=True,
                )
                yield from stream.write_size_proc(out_per_reducer)
                yield from stream.close_proc()

        self.system.client().mkdir(spec.output_path)
        procs = [
            engine.process(reducer(i), name=f"reduce:{spec.name}:{i}")
            for i in range(spec.num_reducers)
        ]
        yield engine.all_of(procs)

    def _reducer_nodes(self, count: int) -> list["Node"]:
        names = sorted(self.system.workers)
        start = self.rng.randint(0, len(names) - 1)
        return [
            self.system.cluster.node(names[(start + i) % len(names)])
            for i in range(count)
        ]
