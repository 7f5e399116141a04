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


def test_memory_reports_peak_end_and_live_sites():
    done = run_tool("meta_churn_obs", "--scale", "tiny", "--memory", "--top", "3")
    assert done.returncode == 0, done.stderr
    heap = next(line for line in done.stdout.splitlines() if line.startswith("Python heap"))
    numbers = [float(word) for word in heap.replace(",", " ").split() if word[0].isdigit()]
    peak, end, transient = numbers
    assert peak >= end > 0 and abs(transient - (peak - end)) < 0.15
    rss = {
        line.split(":")[0]: float(line.split(":")[1].split()[0])
        for line in done.stdout.splitlines() if line.startswith("ru_maxrss")
    }
    assert 0 < rss["ru_maxrss before set-up"] <= rss["ru_maxrss after the region"]
    assert "(includes tracemalloc's own overhead)" in done.stdout
    sites = done.stdout.split("allocation sites live at the end:\n", 1)[1].splitlines()
    assert len([line for line in sites if " MB " in line and "blocks" in line]) == 3
    # Memory replaces the call profile: no cProfile table.
    assert "Ordered by" not in done.stdout
    assert "sim_makespan_s = " in done.stdout


def test_setup_profiles_the_set_up_and_still_runs_the_region():
    done = run_tool(
        "fault_repair", "--scale", "tiny", "--setup", "--sort", "cumulative",
        "--top", "5", "--callers", "objectives|moop",
    )
    assert done.returncode == 0, done.stderr
    # The table is set-up's: populate's placements, not the timed region.
    assert "workloads.py:" in done.stdout and "(setup)" in done.stdout
    assert not any(
        "workloads.py:" in line and "(run)" in line for line in done.stdout.splitlines()
    )
    assert any(
        "(place_replicas)" in line and "(snapshot_cluster)" in line
        for line in done.stdout.splitlines()
    )
    # run() still ran, unprofiled: its simulated results print.
    assert "sim_repair_s = " in done.stdout


def test_setup_with_memory_traces_the_set_up():
    done = run_tool("fault_repair", "--scale", "tiny", "--setup", "--memory", "--top", "2")
    assert done.returncode == 0, done.stderr
    assert any(line.startswith("Python heap in set-up: peak") for line in done.stdout.splitlines())
    assert "Ordered by" not in done.stdout
    assert "sim_repair_s = " in done.stdout


def test_memory_reports_what_outlives_the_workload():
    done = run_tool("meta_churn", "--scale", "tiny", "--memory", "--top", "3")
    assert done.returncode == 0, done.stderr
    header = next(
        line for line in done.stdout.splitlines() if line.startswith("outlives the workload")
    )
    # Only process-wide state survives close(): a few bounded placement
    # memos in repro.core (about 2 kB). A path memo in repro.fs held
    # about 600 kB here.
    assert float(header.split(": ")[1].split()[0]) < 64
    listed = [
        line for line in done.stdout.split(header + "\n", 1)[1].splitlines()
        if " blocks  repro/" in line
    ]
    assert 1 <= len(listed) <= 3
    assert "sim_makespan_s = " in done.stdout


def test_placement_phases_time_the_decisions_they_do_not_change():
    """``tools/placement_phases.py`` wraps the phases of the real
    ``place_replicas``: every phase inside the total, the same picks
    every round, and the stock functions back afterwards."""
    from repro.core import moop
    from repro.util.rng import DeterministicRng
    from tests.test_code_lines import load_tool

    tool = load_tool("placement_phases")
    stock = moop.snapshot_cluster, moop.gen_options, moop.prefix_scorer, DeterministicRng.shuffle
    spent, total, digest = tool.one_round()
    assert (moop.snapshot_cluster, moop.gen_options, moop.prefix_scorer,
            DeterministicRng.shuffle) == stock
    assert all(seconds > 0 for seconds in spent.values())
    assert sum(spent.values()) < total
    assert digest == tool.one_round()[2]


def test_gc_times_collections_and_names_the_cyclic_garbage():
    done = run_tool("meta_churn", "--scale", "tiny", "--gc", "--top", "4")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    head = lines.index(next(line for line in lines if line.startswith("garbage collections in")))
    rows = {line.split()[0]: line.split()[1:] for line in lines[head + 2:head + 6]}
    assert set(rows) == {"0", "1", "2", "all"}
    assert int(rows["all"][0]) == sum(int(rows[str(g)][0]) for g in range(3)) > 0
    garbage = next(line for line in lines if line.startswith("cyclic garbage"))
    listed = lines[lines.index(garbage) + 1:]
    kinds = {line.split()[1]: int(line.split()[0]) for line in listed if line.startswith("   ")}
    # A finished flow and its completion event hold each other; a fired
    # timeout no longer holds its handle's callback, so none is left.
    assert kinds["repro.sim.flows.Flow"] == kinds["repro.sim.events.Event"] > 0
    assert "repro.sim.events.Timeout" not in kinds
    assert int(garbage.split("(")[1].split()[0]) >= sum(kinds.values())
    assert "Ordered by" not in done.stdout
    assert "sim_makespan_s = " in done.stdout
    # One way to run the region at a time.
    refused = run_tool("meta_churn", "--gc", "--memory")
    assert refused.returncode != 0 and "pick one" in refused.stderr
