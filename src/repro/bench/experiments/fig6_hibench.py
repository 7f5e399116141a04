"""Figure 6: HiBench workloads on Hadoop and Spark, OctopusFS vs HDFS.

Each of the nine workloads runs on both engine simulations against two
deployments of the *same* cluster — stock-HDFS-configured and
OctopusFS-configured — with the engines completely unmodified (all
differences flow through the DFS's placement and retrieval policies).
Reported: normalized execution time (OctopusFS / HDFS), i.e. the
paper's Fig. 6 bars.

Paper shape to hold: every workload gains on both engines; Hadoop
gains more on average (~35 %) than Spark (~17 %), because Spark's
executor caching already absorbs much of the I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add

from repro.bench.deployments import build_deployment
from repro.bench.tables import format_table
from repro.cluster.spec import paper_cluster_spec
from repro.workloads.hibench import (
    WORKLOADS,
    HiBenchDriver,
    HiBenchWorkload,
    hadoop_duration,
)


@dataclass
class Fig6Result:
    rows: list[list[object]] = field(default_factory=list)

    def format(self) -> str:
        table = format_table(
            ["workload", "category", "hadoop norm", "spark norm"],
            self.rows,
            title="Fig 6: normalized execution time (OctopusFS / HDFS)",
        )
        hadoop = [row[2] for row in self.rows]
        spark = [row[3] for row in self.rows]
        summary = (
            f"mean normalized time: hadoop={_mean(hadoop):.2f} "
            f"(paper ~0.65), spark={_mean(spark):.2f} (paper ~0.83)"
        )
        return table + "\n" + summary


def _mean(values: list[float]) -> float:
    """A left fold from ``0``, as ``repro.core`` sums floats."""
    return reduce(add, values, 0) / len(values)


def _scaled(workload: HiBenchWorkload, scale: float) -> HiBenchWorkload:
    from dataclasses import replace

    return replace(
        workload,
        input_bytes=max(1, int(workload.input_bytes * scale)),
        side_input_bytes=int(workload.side_input_bytes * scale),
    )


def run(
    scale: float = 1.0,
    seed: int = 0,
    workloads: tuple[str, ...] = tuple(WORKLOADS),
) -> Fig6Result:
    result = Fig6Result()
    for name in workloads:
        workload = _scaled(WORKLOADS[name], scale)
        normalized: dict[str, float] = {}
        for engine in ("hadoop", "spark"):
            durations: dict[str, float] = {}
            for deployment in ("hdfs", "octopus"):
                fs = build_deployment(
                    deployment,
                    spec=paper_cluster_spec(racks=1, seed=seed),
                    seed=seed,
                )
                driver = HiBenchDriver(fs)
                if engine == "hadoop":
                    durations[deployment] = hadoop_duration(
                        driver.run_hadoop(workload)
                    )
                else:
                    durations[deployment] = driver.run_spark(workload).duration
            normalized[engine] = durations["octopus"] / durations["hdfs"]
        result.rows.append(
            [name, workload.category, normalized["hadoop"], normalized["spark"]]
        )
    return result
