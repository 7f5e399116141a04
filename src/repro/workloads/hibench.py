"""The HiBench workload suite (paper §7.5, Figure 6).

Nine workloads across the paper's three categories, each characterized
by a resource profile (input size, per-MB CPU costs, shuffle and output
ratios, iteration count):

* micro benchmarks — Sort, Wordcount, Terasort;
* OLAP queries — Scan, Join, Aggregation;
* machine-learning analytics — Pagerank, Bayesian Classification,
  K-means Clustering.

Profiles are calibrated to the workloads' published characters (sort
and terasort shuffle their whole input; wordcount and bayes are
CPU-bound; pagerank and kmeans iterate three times, join reads a side
input), scaled to simulation-friendly input sizes. The prepare phase
writes one part file per worker, in parallel, through
:func:`~repro.workloads.tasks.write_parts`. Each workload then runs on
either engine simulation —
:class:`~repro.workloads.mapreduce.MapReduceEngine` (iterations chain
jobs: pagerank reads the previous output, kmeans re-reads its input) or
:class:`~repro.workloads.spark.SparkEngine` (iterations hit the executor
cache) — against whatever file system it is given; Fig. 6 compares the
same workload over an HDFS-configured deployment vs. an
OctopusFS-configured one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.units import GB, MB
from repro.workloads.mapreduce import JobResult, MapReduceEngine, MapReduceJobSpec
from repro.workloads.spark import SparkEngine, SparkJobResult, SparkJobSpec
from repro.workloads.tasks import list_files, write_parts

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.system import OctopusFileSystem

MICRO = "micro"
OLAP = "olap"
ML = "ml"


@dataclass(frozen=True)
class HiBenchWorkload:
    """One HiBench workload's resource profile."""

    name: str
    category: str
    input_bytes: int
    map_cpu_per_mb: float
    reduce_cpu_per_mb: float
    shuffle_ratio: float
    output_ratio: float
    iterations: int = 1
    #: Second (small) input for joins; 0 disables it.
    side_input_bytes: int = 0


#: The nine workloads of the paper's Fig. 6.
WORKLOADS: dict[str, HiBenchWorkload] = {
    "sort": HiBenchWorkload(
        "sort", MICRO, 8 * GB, 0.002, 0.002, 1.0, 1.0
    ),
    "wordcount": HiBenchWorkload(
        "wordcount", MICRO, 8 * GB, 0.030, 0.010, 0.05, 0.02
    ),
    "terasort": HiBenchWorkload(
        "terasort", MICRO, 8 * GB, 0.006, 0.008, 1.0, 1.0
    ),
    "scan": HiBenchWorkload(
        "scan", OLAP, 6 * GB, 0.004, 0.002, 0.0, 0.3
    ),
    "join": HiBenchWorkload(
        "join", OLAP, 6 * GB, 0.008, 0.012, 0.6, 0.3,
        side_input_bytes=2 * GB,
    ),
    "aggregation": HiBenchWorkload(
        "aggregation", OLAP, 6 * GB, 0.010, 0.008, 0.25, 0.1
    ),
    "pagerank": HiBenchWorkload(
        "pagerank", ML, 4 * GB, 0.008, 0.008, 0.8, 0.9, iterations=3
    ),
    "bayes": HiBenchWorkload(
        "bayes", ML, 6 * GB, 0.025, 0.015, 0.35, 0.15
    ),
    "kmeans": HiBenchWorkload(
        "kmeans", ML, 6 * GB, 0.020, 0.005, 0.05, 0.05, iterations=3
    ),
}


class HiBenchDriver:
    """Prepares inputs and runs workloads on one deployment."""

    def __init__(self, system: "OctopusFileSystem") -> None:
        self.system = system

    # ------------------------------------------------------------------
    # The HiBench "prepare" phase
    # ------------------------------------------------------------------
    def prepare_input(
        self, workload: HiBenchWorkload, base: str = "/hibench"
    ) -> list[str]:
        """Generate the workload's input with parallel writers.

        Data lands wherever the deployment's placement policy puts it —
        that initial placement is half of what Fig. 6 measures.
        """
        inputs = [self._write_dataset(f"{base}/{workload.name}/input", workload.input_bytes)]
        if workload.side_input_bytes:
            inputs.append(
                self._write_dataset(
                    f"{base}/{workload.name}/side", workload.side_input_bytes
                )
            )
        return inputs

    def _write_dataset(self, directory: str, total_bytes: int) -> str:
        per_file = total_bytes // len(self.system.workers)
        self.system.engine.run(
            write_parts(self.system, f"{directory}/part", per_file, None)
        )
        return directory

    def input_files(self, directory: str) -> list[str]:
        return list_files(self.system, directory)

    def _prepared_files(self, workload: HiBenchWorkload, base: str) -> list[str]:
        """Prepare ``workload``'s input; the paths of its files."""
        return [
            path
            for directory in self.prepare_input(workload, base)
            for path in self.input_files(directory)
        ]

    # ------------------------------------------------------------------
    # Engine runners
    # ------------------------------------------------------------------
    def run_hadoop(
        self, workload: HiBenchWorkload, base: str = "/hibench"
    ) -> list[JobResult]:
        """Run on the MapReduce engine; iterative workloads chain jobs."""
        current_inputs = self._prepared_files(workload, base)
        engine = MapReduceEngine(self.system)
        results = []
        for iteration in range(workload.iterations):
            out = f"{base}/{workload.name}/out-{iteration}"
            spec = MapReduceJobSpec(
                name=f"{workload.name}-{iteration}",
                input_paths=current_inputs,
                output_path=out,
                map_cpu_per_mb=workload.map_cpu_per_mb,
                reduce_cpu_per_mb=workload.reduce_cpu_per_mb,
                shuffle_ratio=workload.shuffle_ratio,
                output_ratio=workload.output_ratio,
            )
            results.append(engine.run_job(spec))
            if workload.name == "pagerank":
                # Rank vectors chain: next iteration reads this output.
                current_inputs = self.input_files(out)
            # kmeans re-reads the original input every iteration.
        return results

    def run_spark(
        self, workload: HiBenchWorkload, base: str = "/hibench"
    ) -> SparkJobResult:
        """Run on the Spark engine; iterations hit the executor cache."""
        inputs = self._prepared_files(workload, base)
        engine = SparkEngine(self.system)
        spec = SparkJobSpec(
            name=workload.name,
            input_paths=inputs,
            output_path=f"{base}/{workload.name}/spark-out",
            cpu_per_mb=workload.map_cpu_per_mb + workload.reduce_cpu_per_mb,
            shuffle_ratio=workload.shuffle_ratio,
            output_ratio=workload.output_ratio,
            iterations=workload.iterations,
            cache_input=workload.iterations > 1,
        )
        return engine.run_job(spec)


def hadoop_duration(results: list[JobResult]) -> float:
    """Wall-clock span of a chained Hadoop workload."""
    return results[-1].finished_at - results[0].started_at
