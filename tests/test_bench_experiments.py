"""Smoke tests: every experiment module runs at tiny scale and formats.

The benchmarks exercise the shapes at realistic scale; these tests pin
the *contract* of each experiment module (run() signature, result
structure, format() output) so refactors cannot silently break the
harness.
"""

import pytest

from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    ablation,
    fig2_tiered_io,
    fig3_placement,
    fig5_retrieval,
    fig6_hibench,
    fig7_pegasus,
    table2_media,
    table3_namespace,
    tiering_shift,
)
from repro.fs.invariants import check_system_invariants

TINY = 0.02


class TestRegistry:
    def test_every_paper_artifact_covered(self):
        assert set(ALL_EXPERIMENTS) == {
            "table2",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "table3",
            "fig6",
            "fig7",
            "ablation",
            "tiering",  # beyond the paper: the §8 automation loop
        }

    def test_fig4_shares_fig3_module(self):
        assert ALL_EXPERIMENTS["fig4"] is ALL_EXPERIMENTS["fig3"]


class TestTable2:
    def test_rows_and_format(self):
        result = table2_media.run(scale=TINY)
        tiers = [row[0] for row in result.rows]
        assert tiers == ["MEMORY", "SSD", "HDD"]
        assert "Table 2" in result.format()


class TestFig2:
    def test_structure(self):
        result = fig2_tiered_io.run(scale=TINY)
        assert len(result.write_rows) == len(fig2_tiered_io.PARALLELISM)
        assert len(result.write_rows[0]) == 1 + len(fig2_tiered_io.VECTORS)
        assert all(v > 0 for row in result.write_rows for v in row[1:])
        out = result.format()
        assert "Fig 2(a)" in out and "Fig 2(b)" in out


class TestFig3:
    def test_structure(self):
        result = fig3_placement.run(scale=TINY)
        assert [o.policy for o in result.outcomes] == list(
            fig3_placement.POLICIES
        )
        for outcome in result.outcomes:
            assert outcome.write_mbs > 0
            assert set(outcome.remaining_percent) == {"MEMORY", "SSD", "HDD"}
        assert "Fig 4" in result.format()


class TestFig5:
    def test_structure(self):
        result = fig5_retrieval.run(scale=TINY)
        assert [row[0] for row in result.rows] == list(
            fig5_retrieval.PARALLELISM
        )
        assert all(row[3] > 0 for row in result.rows)  # speedups defined


class TestTable3:
    def test_structure(self):
        result = table3_namespace.run(scale=TINY, repeats=1)
        assert len(result.rows) == 6
        assert "Table 3" in result.format()


class TestFig6:
    def test_subset_run(self):
        result = fig6_hibench.run(scale=TINY, workloads=("sort", "kmeans"))
        assert [row[0] for row in result.rows] == ["sort", "kmeans"]
        for row in result.rows:
            assert 0 < row[2] < 2.0  # hadoop normalized
            assert 0 < row[3] < 2.0  # spark normalized
        assert "mean normalized" in result.format()


class TestFig7:
    def test_subset_run(self):
        result = fig7_pegasus.run(scale=TINY, workloads=("rwr",))
        assert result.rows[0][0] == "rwr"
        assert result.rows[0][1] == pytest.approx(1.0)  # HDFS is the base
        assert "+interm" in result.format()


class TestAblation:
    def test_sections_present(self):
        result = ablation.run(scale=TINY)
        titles = [title for title, _h, _r in result.sections]
        assert len(titles) == 4
        assert any("greedy" in t for t in titles)
        assert any("memory cap" in t for t in titles)


class TestTiering:
    def test_single_policy_run(self):
        result = ALL_EXPERIMENTS["tiering"].run(scale=TINY, policy="static")
        assert list(result.outcomes) == ["static"]
        assert "Workload shift" in result.format()
        assert not result.comparison  # one policy: nothing to compare

    def test_both_policies_compared(self, monkeypatch):
        # Keep the deployments the experiment builds, to check them after.
        built = []
        build = tiering_shift.build_deployment
        monkeypatch.setattr(
            tiering_shift, "build_deployment",
            lambda *args, **kwargs: built.append(build(*args, **kwargs))
            or built[-1],
        )
        result = ALL_EXPERIMENTS["tiering"].run(scale=TINY)
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
