"""DFSIO: the distributed I/O benchmark of the paper's §7.1–7.3.

DFSIO measures the average write and read throughput of the file system
under a configurable *degree of parallelism* ``d``: ``d`` concurrent
tasks, spread round-robin over the worker nodes (as Hadoop map tasks
would be), each writing or reading one file. Throughput is reported per
worker node — ``total bytes / makespan / #workers`` — matching the
paper's Figures 2, 3, and 5.

Writes can pin replicas to tiers via a replication vector (the Fig. 2
experiment) or leave placement to the active policy (Figs. 3–5). During
a run, a sampler records the cluster-wide completed-byte counter so the
Fig. 3 throughput-over-time series can be reconstructed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Generator

from repro.core.replication_vector import ReplicationVector
from repro.util.rng import DeterministicRng
from repro.util.units import MB

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.system import OctopusFileSystem


@dataclass
class DfsioResult:
    """Outcome of one DFSIO phase (write or read)."""

    operation: str
    files: int
    total_bytes: int
    elapsed: float
    worker_count: int
    #: (sim time, cumulative bytes completed) samples for time series.
    samples: list[tuple[float, float]] = field(default_factory=list)
    #: Fraction of block reads served node-locally (reads only).
    locality_fraction: float | None = None
    #: Per-task (bytes, duration) pairs, for DFSIO's "average IO rate".
    task_stats: list[tuple[int, float]] = field(default_factory=list)

    @property
    def throughput_per_worker(self) -> float:
        """Average bytes/s per worker node (the paper's y-axis)."""
        if self.elapsed <= 0:
            return 0.0
        return self.total_bytes / self.elapsed / self.worker_count

    @property
    def throughput_per_worker_mbs(self) -> float:
        return self.throughput_per_worker / MB

    @property
    def avg_task_rate_mbs(self) -> float:
        """Mean per-task rate (DFSIO's "Average IO rate"), in MB/s."""
        rates = [
            nbytes / duration / MB
            for nbytes, duration in self.task_stats
            if duration > 0
        ]
        return reduce(add, rates, 0) / len(rates) if rates else 0.0

    def throughput_series(self, window: float) -> list[tuple[float, float]]:
        """Windowed per-worker throughput (MB/s) from the samples."""
        series = []
        for (t0, b0), (t1, b1) in zip(self.samples, self.samples[1:]):
            if t1 - t0 <= 0:
                continue
            rate = (b1 - b0) / (t1 - t0) / self.worker_count / MB
            series.append((t1, rate))
        return series


class Dfsio:
    """The benchmark driver, bound to one file system instance."""

    def __init__(
        self,
        system: "OctopusFileSystem",
        base_dir: str = "/benchmarks/DFSIO",
        rng: DeterministicRng | None = None,
        sample_interval: float = 10.0,
        monitors: tuple = (),
    ) -> None:
        self.system = system
        self.base_dir = base_dir
        self.rng = rng or DeterministicRng(system.cluster.spec.seed, "dfsio")
        self.sample_interval = sample_interval
        #: Live monitors (``SloMonitor`` / ``HealthMonitor``) to run
        #: while a phase drives the engine. Each phase starts them and
        #: stops them again so the post-phase engine drain stays clean;
        #: window and alert state persists across phases.
        self.monitors = tuple(monitors)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def write(
        self,
        total_bytes: int,
        parallelism: int,
        rep_vector: ReplicationVector | int | None = None,
    ) -> DfsioResult:
        """Write ``total_bytes`` split across ``parallelism`` writer tasks."""
        per_file = total_bytes // parallelism
        workers = self._task_nodes(parallelism)
        samples: list[tuple[float, float]] = []
        engine = self.system.engine
        start = engine.now
        base_bytes = self.system.cluster.flows.total_bytes_completed
        obs = self.system.obs
        if obs.enabled:
            obs.tracer.event(
                "workload.phase", workload="dfsio", phase="write",
                state="start", tasks=parallelism,
            )

        task_stats: list[tuple[int, float]] = []

        def writer(index: int) -> Generator:
            client = self.system.client(on=workers[index])
            stream = client.create(
                self._file_path(index), rep_vector=rep_vector, overwrite=True
            )
            task_start = engine.now
            yield from stream.write_size_proc(per_file)
            yield from stream.close_proc()
            task_stats.append((per_file, engine.now - task_start))

        procs = [
            engine.process(writer(i), name=f"dfsio-write-{i}")
            for i in range(parallelism)
        ]
        done = engine.all_of(procs)
        sampler = engine.process(
            self._sampler(done, samples, base_bytes), name="dfsio-sampler"
        )
        self._start_monitors()
        engine.run(done)
        elapsed = engine.now - start
        self._stop_monitors()
        engine.run(sampler)
        if obs.enabled:
            obs.tracer.event(
                "workload.phase", workload="dfsio", phase="write",
                state="end", elapsed=elapsed,
            )
        return DfsioResult(
            operation="write",
            files=parallelism,
            total_bytes=per_file * parallelism,
            elapsed=elapsed,
            worker_count=len(self.system.workers),
            samples=samples,
            task_stats=task_stats,
        )

    def read(self, parallelism: int) -> DfsioResult:
        """Read back the files of the preceding write phase.

        Reader tasks are placed round-robin with a random rotation, so
        locality is incidental — with 3 replicas on 9 nodes roughly one
        third of reads are local, as the paper observes.
        """
        workers = self._task_nodes(parallelism, rotate=True)
        engine = self.system.engine
        start = engine.now
        base_bytes = self.system.cluster.flows.total_bytes_completed
        obs = self.system.obs
        if obs.enabled:
            obs.tracer.event(
                "workload.phase", workload="dfsio", phase="read",
                state="start", tasks=parallelism,
            )
        samples: list[tuple[float, float]] = []
        total = 0
        local_blocks = 0
        block_reads = 0

        for index in range(parallelism):
            total += self.system.master.get_status(self._file_path(index)).length

        task_stats: list[tuple[int, float]] = []

        def reader(index: int) -> Generator:
            nonlocal local_blocks, block_reads
            client = self.system.client(on=workers[index])
            path = self._file_path(index)
            locations = client.get_file_block_locations(path)
            for location in locations:
                block_reads += 1
                if workers[index] in location.hosts:
                    local_blocks += 1
            stream = client.open(path)
            task_start = engine.now
            yield from stream.read_proc(collect=False)
            task_stats.append((stream.bytes_read, engine.now - task_start))

        procs = [
            engine.process(reader(i), name=f"dfsio-read-{i}")
            for i in range(parallelism)
        ]
        done = engine.all_of(procs)
        sampler = engine.process(
            self._sampler(done, samples, base_bytes), name="dfsio-sampler"
        )
        self._start_monitors()
        engine.run(done)
        elapsed = engine.now - start
        self._stop_monitors()
        engine.run(sampler)
        if obs.enabled:
            obs.tracer.event(
                "workload.phase", workload="dfsio", phase="read",
                state="end", elapsed=elapsed,
            )
        return DfsioResult(
            operation="read",
            files=parallelism,
            total_bytes=total,
            elapsed=elapsed,
            worker_count=len(self.system.workers),
            samples=samples,
            locality_fraction=(
                local_blocks / block_reads if block_reads else None
            ),
            task_stats=task_stats,
        )

    def cleanup(self) -> None:
        client = self.system.client()
        if client.exists(self.base_dir):
            client.delete(self.base_dir, recursive=True)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _start_monitors(self) -> None:
        for monitor in self.monitors:
            if not monitor.running:
                monitor.start()

    def _stop_monitors(self) -> None:
        for monitor in self.monitors:
            monitor.stop()

    def _file_path(self, index: int) -> str:
        return f"{self.base_dir}/io_file_{index}"

    def _task_nodes(self, count: int, rotate: bool = False) -> list[str]:
        names = sorted(self.system.workers)
        offset = self.rng.randint(0, len(names) - 1) if rotate else 0
        return [names[(offset + i) % len(names)] for i in range(count)]

    def _sampler(self, done, samples, base_bytes) -> Generator:
        flows = self.system.cluster.flows
        while not done.triggered:
            samples.append(
                (self.system.engine.now, flows.total_bytes_completed - base_bytes)
            )
            yield self.system.engine.timeout(self.sample_interval)
        samples.append(
            (self.system.engine.now, flows.total_bytes_completed - base_bytes)
        )
