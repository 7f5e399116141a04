"""Repair under reordered readers, at the benchmark's full scale.

``fault_repair`` (``benchmarks/e2e/workloads.py``) fixes its readers'
scripts because repair used to be chaotic in them: one pass launched
every pending copy at the instant it ran, so which reads were in
flight then decided where a whole wave went. With the per-pass
replication budget the waves are small and readers keep their share
of the cluster whatever their order. Opt-in (``pytest -m chaos``):
the reduced presets do not show the unbudgeted spread.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Builds ``fault_repair`` through the frozen workload module and runs
#: it once per rotation of the reader scripts: the reader on node ``i``
#: runs the script drawn for node ``i + k``.
_ROTATED_READERS = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/benchmarks/e2e"]
from workloads import FaultRepair

for k in range(5):
    workload = FaultRepair(seed=0)
    workload.setup()
    workload.read_order = workload.read_order[k:] + workload.read_order[:k]
    workload.run()
    workload.verify()
    print(json.dumps(dict(workload.sim, failed=workload.failed)))
"""


@pytest.mark.chaos
def test_reader_order_moves_repair_little_and_reads_not_at_all():
    # A subprocess: the workload module's directory goes on sys.path,
    # which this process should not inherit.
    done = subprocess.run(
        [sys.executable, "-c", _ROTATED_READERS, str(ROOT)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    runs = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(runs) == 5
    assert [run["failed"] for run in runs] == [0] * 5
    repair = [run["sim_repair_s"] for run in runs]
    reads = [run["sim_read_mbs_per_worker"] for run in runs]
    p99 = [run["sim_read_p99_ms"] for run in runs]
    # Unbudgeted, these five orders repaired in 40-79 s, read 110-147
    # MB/s per worker and had a 8.7-14.6 s read p99; budgeted, 35-49 s,
    # 188-193 MB/s and 1.4-1.9 s. Repair time still depends on the
    # order: over 30 shuffled orders it spanned 37-60 s (38-82 s
    # unbudgeted), so the spread bar is not tighter than that.
    assert max(repair) - min(repair) <= 25.0, repair
    assert min(reads) >= 160.0, reads
    assert max(p99) <= 5_000.0, p99
