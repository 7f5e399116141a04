"""Tests for the perf-regression gate (repro.bench.regression).

The acceptance criterion: the gate fails when a benchmark metric is
perturbed beyond tolerance, ignores machine-noise fields, and degrades
to a structure-only check when baseline and candidate were produced at
different scales.
"""

import copy
import json

import pytest

from repro.bench.regression import (
    EXACT,
    RegressionReport,
    Rule,
    compare_results,
    main,
)


def _perf_result() -> dict:
    """A miniature bench_flows_scale-shaped result."""
    return {
        "benchmark": "flows_scale",
        "scale": 0.2,
        "slots_per_group": 10,
        "points": [
            {
                "flows": 40,
                "solvers": {
                    "dense": {
                        "wall_s": 0.12,
                        "sim_makespan_s": 8.125,
                        "events_per_sec": 51000.0,
                        "peak_heap_kb": 310.5,
                    },
                    "incremental": {
                        "wall_s": 0.03,
                        "sim_makespan_s": 8.125,
                        "events_per_sec": 210000.0,
                        "peak_heap_kb": 402.0,
                    },
                },
                "speedup": 4.0,
            }
        ],
    }


def _other_result() -> dict:
    """A benchmark no ruleset names."""
    return {
        "benchmark": "custom",
        "scale": 0.2,
        "trace": {"records": 868, "spans": 500},
    }


class TestCompareResults:
    def test_identical_results_pass(self):
        report = compare_results(_perf_result(), _perf_result())
        assert report.ok
        assert report.violations == []
        assert report.checked > 0

    def test_sim_metric_perturbed_beyond_tolerance_fails(self):
        """The headline acceptance criterion for the CI gate."""
        candidate = _perf_result()
        candidate["points"][0]["solvers"]["dense"]["sim_makespan_s"] *= 1.05
        report = compare_results(_perf_result(), candidate)
        assert not report.ok
        (violation,) = report.violations
        assert violation.path == "points.0.solvers.dense.sim_makespan_s"
        assert "drifted" in violation.message

    def test_tiny_float_repr_noise_passes_exact_rule(self):
        candidate = _perf_result()
        base = candidate["points"][0]["solvers"]["dense"]["sim_makespan_s"]
        candidate["points"][0]["solvers"]["dense"]["sim_makespan_s"] = (
            base * (1.0 + EXACT / 10)
        )
        assert compare_results(_perf_result(), candidate).ok

    def test_wall_clock_fields_never_gate(self):
        candidate = _perf_result()
        candidate["points"][0]["solvers"]["dense"]["wall_s"] *= 50
        candidate["points"][0]["solvers"]["dense"]["events_per_sec"] /= 9
        candidate["points"][0]["speedup"] = 0.5
        candidate["points"][0]["solvers"]["dense"]["peak_heap_kb"] *= 3
        report = compare_results(_perf_result(), candidate)
        assert report.ok
        assert report.ignored >= 4

    def test_missing_key_is_violation_extra_key_is_note(self):
        candidate = _perf_result()
        del candidate["slots_per_group"]
        candidate["new_metric"] = 1.0
        report = compare_results(_perf_result(), candidate)
        assert any(
            v.path == "slots_per_group"
            and v.message == "missing in candidate"
            for v in report.violations
        )
        assert any("new_metric" in note for note in report.notes)

    def test_list_length_change_is_violation(self):
        candidate = _perf_result()
        candidate["points"].append(copy.deepcopy(candidate["points"][0]))
        report = compare_results(_perf_result(), candidate)
        assert any(
            v.path == "points" and v.message == "list length changed"
            for v in report.violations
        )

    def test_scale_mismatch_degrades_to_structure_check(self):
        candidate = _perf_result()
        candidate["scale"] = 1.0
        # Numbers wildly different — but meaningless across scales.
        candidate["points"][0]["solvers"]["dense"]["sim_makespan_s"] = 40.0
        report = compare_results(_perf_result(), candidate)
        assert report.ok
        assert report.skipped > 0
        assert any("scale mismatch" in note for note in report.notes)
        # Structure is still enforced.
        del candidate["points"][0]["solvers"]["incremental"]
        assert not compare_results(_perf_result(), candidate).ok

    def test_different_benchmark_name_is_violation(self):
        report = compare_results(_perf_result(), _other_result())
        assert not report.ok
        assert report.violations[0].path == "benchmark"

    def test_unknown_benchmark_uses_default_band(self):
        baseline = {"benchmark": "custom", "metric": 100.0}
        within = {"benchmark": "custom", "metric": 110.0}
        beyond = {"benchmark": "custom", "metric": 200.0}
        assert compare_results(baseline, within).ok
        assert not compare_results(baseline, beyond).ok
        assert compare_results(
            baseline, beyond, rules=(Rule("*", None),)
        ).ok

    def test_string_and_bool_leaves_compare_by_equality(self):
        baseline = {"benchmark": "custom", "solver": "dense", "ok": True}
        candidate = {"benchmark": "custom", "solver": "sparse", "ok": True}
        report = compare_results(baseline, candidate)
        assert any(v.path == "solver" for v in report.violations)

    def test_report_data_round_trips_through_json(self):
        candidate = _perf_result()
        candidate["points"][0]["solvers"]["dense"]["sim_makespan_s"] = 1.0
        report = compare_results(_perf_result(), candidate)
        data = json.loads(json.dumps(report.data()))
        assert data["ok"] is False
        assert data["violations"][0]["path"] == (
            "points.0.solvers.dense.sim_makespan_s"
        )

    def test_format_mentions_outcome(self):
        ok = compare_results(_perf_result(), _perf_result())
        assert "OK" in ok.format()
        bad = compare_results(_perf_result(), _other_result())
        assert "FAIL" in bad.format()


class TestMain:
    def _write(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_exit_zero_on_match(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", _perf_result())
        candidate = self._write(tmp_path, "cand.json", _perf_result())
        assert main([baseline, candidate]) == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        perturbed = _perf_result()
        perturbed["points"][0]["solvers"]["dense"]["sim_makespan_s"] *= 2
        baseline = self._write(tmp_path, "base.json", _perf_result())
        candidate = self._write(tmp_path, "cand.json", perturbed)
        assert main([baseline, candidate]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "sim_makespan_s" in out

    def test_json_report(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", _other_result())
        candidate = self._write(tmp_path, "cand.json", _other_result())
        assert main([baseline, candidate, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["benchmark"] == "custom"
