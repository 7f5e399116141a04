"""The paper's evaluation (§7), run once at full scale and judged here.

Every deterministic experiment runs once per session at scale 1.0,
seed 0 (:func:`full`). On that one result the tests assert that
EXPERIMENTS.md holds exactly what the code prints, that the paper's
qualitative shapes hold — who wins, by roughly what factor, where the
crossovers fall — and the result structure the harness relies on.
"""

import hashlib
import os
import statistics
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import repro.bench.experiments as experiments
from repro.fs.invariants import check_system_invariants
from repro.workloads import hibench, pegasus
from tests.test_code_lines import load_tool

#: CI's interpreter and the next one, where the container has them.
OTHER_PYTHONS = [f"/root/.pyenv/versions/{v}/bin/python" for v in ("3.12.1", "3.13.0")]
TINY = 0.02
TOOL = load_tool("experiments_doc")
BLOCKS = TOOL.blocks(TOOL.DOC.read_text())


@cache
def full(name):
    """Experiment ``name`` as EXPERIMENTS.md records it; one run a session."""
    return experiments.ALL_EXPERIMENTS[name].run(scale=1.0, seed=0)


class TestRecord:
    @pytest.mark.parametrize("name", TOOL.NAMES)
    def test_experiments_md_holds_what_the_code_prints(self, name):
        assert BLOCKS[name] == TOOL.render(name, full(name)), (
            "EXPERIMENTS.md is stale: run `python tools/experiments_doc.py "
            "--write`, then re-judge the verdict under the block"
        )

    def test_same_bytes_on_every_interpreter_and_hash_seed(self):
        """Fig. 5's block, and 400 MOOP decisions with the ``repr`` of
        every score behind them (``tests/moop_decisions.py``)."""
        command, _, printed = BLOCKS["fig5"].partition("\n")
        pythons = [sys.executable, sys.executable] + [
            python for python in OTHER_PYTHONS if Path(python).exists()
        ]
        decisions = str(Path(__file__).with_name("moop_decisions.py"))
        for args, expected in (
            (command.split()[2:], printed), ([decisions], None),
        ):
            started = [
                subprocess.Popen(
                    [python, *args], cwd=TOOL.ROOT / "src", text=True,
                    stdout=subprocess.PIPE, env={**os.environ, "PYTHONHASHSEED": hash_seed},
                )
                for python, hash_seed in zip(pythons, ("1", "7", "random", "random"))
            ]
            for process in started:
                out = process.communicate(timeout=120)[0]  # also sets returncode
                expected = out if expected is None else expected
                assert (out, process.returncode) == (expected, 0), process.args
        assert expected.count("\n") == 400 and "full" not in expected

    def test_obs_out_holds_the_same_bytes_on_every_interpreter(self, tmp_path):
        """Every file ``repro dfsio --obs-out`` writes, by sha256. Its
        ``.gz`` streams also pin what the deflate thread relies on:
        deflate's output does not depend on how its input is cut, here
        into the text layer's chunks and, from 3.12, ``GzipFile``'s own
        write buffer."""
        pythons = [sys.executable, sys.executable] + [
            python for python in OTHER_PYTHONS if Path(python).exists()
        ]
        started = []
        for index, (python, hash_seed) in enumerate(zip(pythons, ("1", "7", "random", "random"))):
            out = tmp_path / f"run-{index}"
            command = [python, "-m", "repro", "dfsio", "--size", "256MB", "-d", "3",
                       "--seed", "0", "--obs-out", str(out)]
            started.append((out, subprocess.Popen(
                command, cwd=TOOL.ROOT / "src", stdout=subprocess.DEVNULL,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            )))
        written = set()
        for out, process in started:
            assert process.wait(timeout=120) == 0, process.args
            written.add(tuple(
                (path.relative_to(out).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
                for path in sorted(out.rglob("*")) if path.is_file()
            ))
        assert len(written) == 1
        names = {name for name, _ in written.pop()}
        assert {"trace.jsonl.gz", "ledger.jsonl.gz", "metrics.json"} <= names

    def test_tool_diffs_a_stale_block_and_rewrites_it(self, tmp_path, monkeypatch, capsys):
        committed = TOOL.DOC.read_text()
        stale = tmp_path / "EXPERIMENTS.md"
        stale.write_text(committed.replace("hdfs MB/s  speedup", "hdfs MB/s  slowdown"))
        monkeypatch.setattr(TOOL, "DOC", stale)
        # Render from this session's runs instead of running all seven again.
        monkeypatch.setattr(
            TOOL, "render", lambda name, render=TOOL.render: render(name, full(name))
        )
        assert TOOL.main([]) == 1
        assert "-d   octopus MB/s  hdfs MB/s  slowdown" in capsys.readouterr().out
        assert TOOL.main(["--write"]) == 0 and stale.read_text() == committed
        assert TOOL.main(["--fix"]) == 2


class TestRegistry:
    def test_every_paper_artifact_covered(self):
        assert set(experiments.ALL_EXPERIMENTS) == {
            "table2", "fig2", "fig3", "fig4", "fig5", "table3", "fig6", "fig7", "ablation",
            "tiering",  # beyond the paper: the §8 automation loop
        }

    def test_fig4_shares_fig3_module(self):
        assert experiments.ALL_EXPERIMENTS["fig4"] is experiments.ALL_EXPERIMENTS["fig3"]


class TestTable2:
    def test_rows_and_format(self):
        rows = full("table2").rows
        assert [row[0] for row in rows] == ["MEMORY", "SSD", "HDD"]
        # Shape: measured averages sit within the probe jitter (±2%) of the
        # paper's Table 2 figures, and tiers order memory > SSD > HDD.
        for _tier, write, read, paper_write, paper_read in rows:
            assert abs(write - paper_write) / paper_write < 0.05
            assert abs(read - paper_read) / paper_read < 0.05
        assert rows[0][1] > rows[1][1] > rows[2][1]


class TestFig2:
    def test_structure(self):
        rows = full("fig2").write_rows
        assert [row[0] for row in rows] == list(experiments.fig2_tiered_io.PARALLELISM)
        assert len(rows[0]) == 1 + len(experiments.fig2_tiered_io.VECTORS)
        assert all(v > 0 for row in rows for v in row[1:])

    def test_shape(self):
        result = full("fig2")
        columns = list(experiments.fig2_tiered_io.VECTORS)
        low_d = dict(zip(columns, result.write_rows[0][1:]))
        high_d = dict(zip(columns, result.write_rows[-1][1:]))

        # Shape 1: at low parallelism, memory > SSD > HDD for writes.
        assert low_d["<3,0,0>"] > low_d["<0,3,0>"] > low_d["<0,0,3>"]
        # Shape 2: the SSD advantage over HDD erodes at d=27 (1 SSD vs
        # 3 HDDs per node); allow a small tolerance around the crossover.
        assert high_d["<0,3,0>"] < high_d["<0,0,3>"] * 1.15
        # Shape 3: multi-tier vectors are HDD-bottlenecked at low d...
        assert low_d["<1,1,1>"] < low_d["<0,0,3>"] * 1.1
        # ...but clearly beat all-HDD at high d (paper: up to ~2x).
        assert high_d["<1,1,1>"] > high_d["<0,0,3>"] * 1.5

        # Shape 4: one in-memory replica lifts reads well above all-HDD.
        read_high = dict(zip(columns, result.read_rows[-1][1:]))
        assert read_high["<1,0,2>"] > read_high["<0,0,3>"] * 1.5

        # Shape 5: roughly a third of reads are node-local.
        avg_locality = sum(result.localities) / len(result.localities)
        assert 0.15 <= avg_locality <= 0.55


class TestFig3:
    def test_structure(self):
        outcomes = full("fig3").outcomes
        assert [o.policy for o in outcomes] == list(experiments.fig3_placement.POLICIES)
        for outcome in outcomes:
            assert outcome.write_mbs > 0
            assert set(outcome.remaining_percent) == {"MEMORY", "SSD", "HDD"}

    def test_shape(self):
        # The TM-policy collapse (Fig 3) and the Fig 4 capacity signature
        # need enough data to pressure the 36 GB memory tier: scale >= 0.75.
        by_policy = {o.policy: o for o in full("fig3").outcomes}

        # Fig 3(a) shape: MOOP has the best write throughput of all eight.
        moop = by_policy["moop"]
        for name, outcome in by_policy.items():
            if name != "moop":
                assert moop.write_mbs >= outcome.write_mbs * 0.99, name

        # Stock-HDFS ordering: adding SSDs helps, but both trail MOOP and
        # the rule-based policy (the paper's 42%/29%/17% gaps).
        assert by_policy["hdfs+ssd"].write_mbs > by_policy["hdfs"].write_mbs
        assert by_policy["rule"].write_mbs > by_policy["hdfs+ssd"].write_mbs
        assert moop.write_mbs > by_policy["rule"].write_mbs

        # Fig 3(b) shape: MOOP reads about twice as fast as stock HDFS.
        assert moop.read_mbs > by_policy["hdfs"].read_mbs * 1.5
        # DB ignores performance: the worst reads of the MOOP family.
        family = ("tm", "lb", "ft", "db", "moop")
        assert min(family, key=lambda n: by_policy[n].read_mbs) == "db"

        # Fig 4 shape: TM drains the memory tier; stock HDFS never touches
        # memory or SSD; hdfs+ssd uses SSDs but not memory.
        assert by_policy["tm"].remaining_percent["MEMORY"] < 30.0
        assert by_policy["hdfs"].remaining_percent["MEMORY"] == 100.0
        assert by_policy["hdfs"].remaining_percent["SSD"] == 100.0
        assert by_policy["hdfs+ssd"].remaining_percent["SSD"] < 100.0
        assert by_policy["hdfs+ssd"].remaining_percent["MEMORY"] == 100.0


class TestFig5:
    def test_structure(self):
        rows = full("fig5").rows
        assert [row[0] for row in rows] == list(experiments.fig5_retrieval.PARALLELISM)

    def test_shape(self):
        speedups = [row[3] for row in full("fig5").rows]
        # Shape 1: the tier-aware ordering wins at every parallelism level.
        assert all(s > 1.3 for s in speedups)
        # Shape 2: the advantage is largest at low parallelism and shrinks
        # with congestion (paper: ~4x down to ~2x) while staying material.
        assert speedups[0] >= speedups[-1] * 0.9
        assert max(speedups) >= 2.0


class TestTable3:
    def test_structure(self):
        result = experiments.table3_namespace.run(scale=TINY, repeats=1)
        assert len(result.rows) == 6
        assert "Table 3" in result.format()


class TestFig6:
    def test_subset_run(self):
        # `workloads=` is how benchmarks/e2e shortens its tiny preset.
        result = experiments.fig6_hibench.run(scale=TINY, workloads=("sort", "kmeans"))
        assert [row[0] for row in result.rows] == ["sort", "kmeans"]

    def test_shape(self):
        rows = full("fig6").rows
        assert [row[0] for row in rows] == list(hibench.WORKLOADS)
        hadoop = {row[0]: row[2] for row in rows}
        spark = {row[0]: row[3] for row in rows}

        # Shape 1: every single workload improves on both platforms.
        assert all(0 < v < 1.0 for v in hadoop.values()), hadoop
        assert all(0 < v < 1.02 for v in spark.values()), spark

        # Shape 2: Hadoop benefits more than Spark on average (paper: 35%
        # vs 17%), since Spark's executor cache absorbs repeated reads.
        hadoop_mean = statistics.mean(hadoop.values())
        spark_mean = statistics.mean(spark.values())
        assert hadoop_mean < spark_mean

        # Shape 3: average Hadoop improvement lands in the paper's band.
        assert 0.5 < hadoop_mean < 0.85

        # Shape 4: iterative Spark workloads (cache-heavy) gain the least.
        assert spark["kmeans"] > spark["sort"]


class TestFig7:
    def test_subset_run(self):
        result = experiments.fig7_pegasus.run(scale=TINY, workloads=("rwr",))
        assert [row[0] for row in result.rows] == ["rwr"]

    def test_shape(self):
        # Optimization deltas need intermediate datasets big enough to
        # stress the tiers, and at small scales the prefetch copies race
        # the (too-short) first iteration: this figure needs scale 1.0.
        rows = full("fig7").rows
        assert [row[0] for row in rows] == list(pegasus.WORKLOADS)
        labels = [label for label, *_ in experiments.fig7_pegasus.CONFIGS]
        by_name = {row[0]: dict(zip(labels, row[1:])) for row in rows}
        for workload, times in by_name.items():
            assert times["HDFS"] == pytest.approx(1.0)  # HDFS is the base
            # Shape 1: automated policies alone beat HDFS (paper: 15-34%).
            assert times["OctopusFS"] < 0.95, workload
            # Shape 2: the combined optimizations beat plain OctopusFS.
            assert times["+both"] < times["OctopusFS"] * 1.02, workload
            # Shape 3: the intermediate-data optimization helps (it is the
            # larger of the two in the paper, especially for HADI).
            assert times["+interm"] <= times["OctopusFS"] * 1.01, workload

        hadi_gain = by_name["hadi"]["OctopusFS"] - by_name["hadi"]["+interm"]
        assert hadi_gain > 0.03, "HADI's 18GB/iter temps should make +interm matter"


class TestAblation:
    def test_sections_present(self):
        titles = [title for title, _h, _r in full("ablation").sections]
        assert len(titles) == 4
        assert any("greedy" in t for t in titles)
        assert any("memory cap" in t for t in titles)

    def test_same_seed_same_bytes(self):
        # Work is reported as a count of scored candidates, not a clock.
        again = experiments.ablation.run(scale=1.0, seed=0)
        assert again.format() == full("ablation").format()

    def test_shape(self):
        # "Ablation N: ..." -> that section's rows.
        section = {t.partition(":")[0]: rows for t, _h, rows in full("ablation").sections}

        # Greedy is near-optimal and scores far fewer candidates.
        metrics = {row[0]: row[1] for row in section["Ablation 1"]}
        assert metrics["greedy score / optimal score (mean)"] < 1.25
        assert metrics["candidate placements scored (exhaustive / greedy)"] > 2.0

        # The log scaling keeps HDDs in play; the raw ratio abandons them.
        shares = {row[0]: row for row in section["Ablation 2"]}
        log_hdd = int(shares["log (Eq. 7)"][3].rstrip("%"))
        raw_hdd = int(shares["raw"][3].rstrip("%"))
        assert log_hdd > raw_hdd

        # The memory cap delays volatile-tier exhaustion substantially.
        by_variant = {row[0]: row[1] for row in section["Ablation 4"]}
        assert by_variant["cap on (r/3)"] > by_variant["cap off"] * 1.5


class TestTiering:
    def test_single_policy_run(self):
        result = experiments.ALL_EXPERIMENTS["tiering"].run(scale=TINY, policy="static")
        assert list(result.outcomes) == ["static"]
        assert "Workload shift" in result.format()
        assert not result.comparison  # one policy: nothing to compare

    def test_both_policies_compared(self, monkeypatch):
        # Keep the deployments the experiment builds, to check them after.
        built = []
        tiering_shift = experiments.tiering_shift
        build = tiering_shift.build_deployment
        monkeypatch.setattr(
            tiering_shift, "build_deployment",
            lambda *args, **kwargs: built.append(build(*args, **kwargs))
            or built[-1],
        )
        result = experiments.ALL_EXPERIMENTS["tiering"].run(scale=TINY)
        assert set(result.outcomes) == {"static", "adaptive"}
        assert {"post_shift_p99_speedup", "post_shift_hit_rate_gain",
                "adaptive_wins"} <= set(result.comparison)
        assert "policy" in result.format()
        # The engine closed the loop and it paid off: a higher post-shift
        # memory hit rate or a lower read p99 than the disk-pinned
        # baseline, which must never see memory.
        adaptive = result.outcomes["adaptive"]
        assert adaptive.promotions > 0 and adaptive.conflicts == 0
        assert result.comparison["adaptive_wins"]
        assert result.outcomes["static"].result.post_shift_hit_rate == 0.0
        # All the promotion/demotion churn left both file systems sound.
        assert len(built) == 2
        for fs in built:
            check_system_invariants(fs)  # raises with the violation list
