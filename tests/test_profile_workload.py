"""Smoke test of ``tools/profile_workload.py`` at the tiny preset."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "profile_workload.py"


def run_tool(*args):
    # A subprocess, as CI calls it: the tool puts benchmarks/e2e on
    # sys.path, which this process should not inherit.
    return subprocess.run(
        [sys.executable, str(TOOL), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_profiles_the_timed_region_and_prints_sim_results():
    done = run_tool("tier_shift", "--scale", "tiny", "--sort", "cumulative", "--top", "5")
    assert done.returncode == 0, done.stderr
    assert "Ordered by: cumulative time" in done.stdout
    assert "due to restriction <5>" in done.stdout
    # The timed region is run(); set-up (populate) stays out of the table.
    assert "(run)" in done.stdout and "(setup)" not in done.stdout
    assert "mem_hit_rate = " in done.stdout
    assert "sim_makespan_s = " in done.stdout


def test_unknown_workload_is_refused_by_name():
    done = run_tool("no_such_workload")
    assert done.returncode != 0
    assert "unknown workload 'no_such_workload'" in done.stderr
    assert "tier_shift" in done.stderr


def test_callers_names_the_sites_behind_a_function():
    done = run_tool(
        "meta_churn_obs", "--scale", "tiny", "--top", "5", "--callers", "registry"
    )
    assert done.returncode == 0, done.stderr
    assert "due to restriction <'registry'>" in done.stdout
    assert "was called by..." in done.stdout
    # The hot feed and the site it is called from, on one line.
    assert any(
        "(sample)" in line and "(_sample_utilization)" in line
        for line in done.stdout.splitlines()
    )
    assert "sim_makespan_s = " in done.stdout
