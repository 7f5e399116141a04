"""Regenerates Table 3: namespace operations per second (S-Live)."""

from repro.bench.experiments import table3_namespace
from repro.workloads.slive import OPERATIONS

#: Ops on which both sides do the same work, charged bytes included:
#: their overhead has to sit inside the run's own noise floor. `rename`
#: and `delete` carry three per-tier usage entries against one.
SAME_WORK = ("mkdir", "ls", "open", "create")


def test_table3_namespace_operations(bench_scale):
    result = table3_namespace.run(scale=bench_scale)
    print("\n" + result.format())

    rows = {row[0]: row for row in result.rows}
    assert set(rows) == set(OPERATIONS)
    for op, row in rows.items():
        _op, hdfs, octo, overhead, noise, *_paper = row
        assert hdfs > 0 and octo > 0
        if op in SAME_WORK:
            # Shape: one code path, so what is left is noise (paper <1%).
            assert abs(overhead) <= max(3 * abs(noise), 15.0), (
                f"{op}: overhead {overhead:.1f} % outside the run's "
                f"noise floor (A/A {noise:.1f} %)"
            )
