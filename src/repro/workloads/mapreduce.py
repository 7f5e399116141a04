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

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Generator

from repro.core.replication_vector import ReplicationVector
from repro.util.rng import DeterministicRng
from repro.util.units import MB
from repro.workloads.tasks import (
    Split,
    local_disk,
    pick_local,
    plan_splits,
    read_split,
    run_wave,
    shuffle,
    write_part,
)

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

    def __init__(self, system: "OctopusFileSystem", map_slots: int = 4) -> None:
        self.system = system
        self.map_slots = map_slots
        self.rng = DeterministicRng(system.cluster.spec.seed, "mapreduce")

    def run_job(self, spec: MapReduceJobSpec) -> JobResult:
        """Run one job to completion (synchronous wrapper)."""
        return self.system.run_to_completion(self.run_job_proc(spec))

    def run_job_proc(self, spec: MapReduceJobSpec) -> Generator:
        engine = self.system.engine
        started_at = engine.now
        tasks = list(plan_splits(self.system, spec.input_paths))
        input_bytes = sum(t.block.size for t in tasks)
        shuffle_bytes = int(input_bytes * spec.shuffle_ratio)
        output_bytes = int(input_bytes * spec.output_ratio)

        local_reads = [0]
        map_outputs: dict[str, int] = {}  # node -> map-output bytes held
        map_task = partial(self._map_task, spec, map_outputs, local_reads)
        yield from run_wave(
            self.system, self.map_slots, list(tasks), pick_local, map_task,
            "map-slot",
        )
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

    def _map_task(
        self,
        spec: MapReduceJobSpec,
        map_outputs: dict[str, int],
        local_reads: list[int],
        task: Split,
        node: "Node",
    ) -> Generator:
        """Read the split, run the map CPU, spill the output locally."""
        if node.name in task.hosts:
            local_reads[0] += 1
        yield read_split(task, node, label=f"split:{task.block.block_id}")
        if spec.map_cpu_per_mb > 0:
            cpu_seconds = task.block.size / MB * spec.map_cpu_per_mb
            yield self.system.engine.timeout(cpu_seconds)
        spill = int(task.block.size * spec.shuffle_ratio)
        if spill > 0:
            disk = local_disk(node, "write_channel")
            yield self.system.cluster.flows.transfer(
                spill, [disk.write_channel], label=f"spill:{spec.name}"
            )
            map_outputs[node.name] = map_outputs.get(node.name, 0) + spill

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
        # Reducers go round the sorted workers from a seeded start.
        names = sorted(self.system.workers)
        start = self.rng.randint(0, len(names) - 1)
        out_per_reducer = output_bytes // spec.num_reducers

        def reducer(index: int) -> Generator:
            node = self.system.cluster.node(names[(start + index) % len(names)])
            # Shuffle: fetch this reducer's share from every map node.
            yield from shuffle(
                self.system,
                (
                    (self.system.cluster.node(source), node, held // spec.num_reducers)
                    for source, held in map_outputs.items()
                ),
                label=f"shuffle:{spec.name}",
            )
            share_mb = (shuffle_bytes / spec.num_reducers) / MB
            if spec.reduce_cpu_per_mb > 0:
                yield engine.timeout(share_mb * spec.reduce_cpu_per_mb)
            if out_per_reducer > 0:
                yield from write_part(
                    self.system.client(on=node),
                    f"{spec.output_path}/part-{index:05d}",
                    out_per_reducer,
                    spec.output_vector,
                )

        self.system.client().mkdir(spec.output_path)
        procs = [
            engine.process(reducer(i), name=f"reduce:{spec.name}:{i}")
            for i in range(spec.num_reducers)
        ]
        yield engine.all_of(procs)
