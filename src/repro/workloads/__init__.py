"""Workload generators and engine simulations used by the evaluation.

* :mod:`repro.workloads.dfsio` — the DFSIO distributed I/O benchmark
  (paper §7.1–7.3): concurrent writers/readers measuring per-worker
  throughput.
* :mod:`repro.workloads.shift` — the workload-shift scenario: a
  rotating hot set that measures how fast tiering management adapts
  (per-phase read latency and memory hit rate).
* :mod:`repro.workloads.slive` — the S-Live namespace stress test
  (paper §7.4), run against one :class:`~repro.fs.namespace.Namespace`
  as OctopusFS and, on a one-tier axis, as stock HDFS (Table 3).
* :mod:`repro.workloads.mapreduce` / :mod:`repro.workloads.spark` —
  task-level engine simulations standing in for Hadoop MapReduce and
  Spark (paper §7.5).
* :mod:`repro.workloads.tasks` — the substrate both engines share:
  input splits, slot waves with locality levels, the disk-to-disk
  shuffle and the part-file writers.
* :mod:`repro.workloads.hibench` — the nine HiBench workloads.
* :mod:`repro.workloads.pegasus` — the four Pegasus graph-mining
  workloads with the §7.6 prefetch / intermediate-data optimizations.
"""

from repro.workloads.dfsio import Dfsio, DfsioResult
from repro.workloads.shift import PhaseStats, ShiftResult, WorkloadShift

__all__ = [
    "Dfsio",
    "DfsioResult",
    "PhaseStats",
    "ShiftResult",
    "WorkloadShift",
]
