"""Tests for the command-line interface."""

import contextlib
import gzip
import io
import json

import pytest

from repro.cli import build_parser, main
from repro.obs import (
    read_jsonl_records,
    read_trace_file,
    validate_alert_records,
    validate_chrome_trace,
    validate_ledger_records,
    validate_trace_records,
)

GZIP_MAGIC = b"\x1f\x8b"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_unknown_deployment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dfsio", "--deployment", "zfs"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "octopus" in out

    def test_report(self, capsys):
        assert main(["report", "--deployment", "hdfs", "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "OriginalHdfsPolicy" in out
        assert "MEMORY" in out and "HDD" in out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "MEMORY" in out

    def test_dfsio_with_vector(self, capsys):
        code = main(
            [
                "dfsio",
                "--size", "512MB",
                "--parallelism", "3",
                "--vector", "1,0,2",
                "--deployment", "octopus",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "write" in out and "read" in out
        assert "node-local read fraction" in out

    def test_slive(self, capsys):
        assert main(["slive", "--ops", "100"]) == 0
        out = capsys.readouterr().out
        assert "rename" in out
        assert "overhead" in out


class TestObservabilityFlags:
    def test_report_json(self, capsys):
        assert main(["report", "--deployment", "octopus", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["deployment"] == "octopus"
        assert data["workers"] == 9
        tiers = {t["tier"] for t in data["tiers"]}
        assert {"MEMORY", "SSD", "HDD"} <= tiers
        for tier in data["tiers"]:
            assert tier["remaining"] <= tier["total_capacity"]

    def test_report_json_includes_engine_and_metrics(self, capsys):
        assert main(["report", "--deployment", "octopus", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"]["events_processed"] >= 0
        assert {"counters", "gauges", "histograms"} <= set(data["metrics"])


@pytest.fixture(scope="module")
def dfsio_out(tmp_path_factory):
    """One quiet ``dfsio --obs-out`` run shared by the cases below:
    ``(directory, stdout)``."""
    out = tmp_path_factory.mktemp("dfsio") / "obs-out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(
            ["dfsio", "--size", "128MB", "--parallelism", "2",
             "--obs-out", str(out)]
        )
    assert code == 0
    return out, stdout.getvalue()


class TestObsOut:
    """``--obs-out DIR``: everything on, one fixed directory layout."""

    def test_dfsio_layout(self, dfsio_out):
        out, stdout = dfsio_out
        assert f"written to {out}" in stdout
        # A quiet run seals no incident, so no incidents/ appears.
        assert sorted(p.name for p in out.iterdir()) == [
            "alerts.jsonl", "ledger.jsonl.gz", "metrics.json",
            "metrics.prom", "trace.jsonl.gz",
        ]

    def test_obs_out_implies_slo(self, dfsio_out):
        out, stdout = dfsio_out
        assert "slo watch:" in stdout
        alerts = read_jsonl_records(str(out / "alerts.jsonl"))
        assert validate_alert_records(alerts) == []

    def test_dfsio_metrics_both_formats(self, dfsio_out):
        out, _ = dfsio_out
        prom = (out / "metrics.prom").read_text()
        assert "# TYPE bytes_written_total counter" in prom
        data = json.loads((out / "metrics.json").read_text())
        assert data["schema_version"]
        names = {c["name"] for c in data["counters"]}
        assert "bytes_written_total" in names

    def test_dfsio_trace_is_gzip_and_valid(self, dfsio_out):
        out, _ = dfsio_out
        path = out / "trace.jsonl.gz"
        assert path.read_bytes()[:2] == GZIP_MAGIC
        trace = read_trace_file(str(path))
        assert trace.records
        assert trace.problems == []

    def test_dfsio_ledger_and_explain(self, dfsio_out, capsys):
        out, _ = dfsio_out
        ledger = out / "ledger.jsonl.gz"
        assert validate_ledger_records(read_jsonl_records(str(ledger))) == []
        code = main(
            ["explain", "/benchmarks/DFSIO/io_file_0", "--ledger", str(ledger)]
        )
        assert code == 0
        out_text = capsys.readouterr().out
        assert "replicas (why-here):" in out_text
        assert "placement" in out_text

    def test_explain_json_is_canonical(self, dfsio_out, capsys):
        out, _ = dfsio_out
        code = main(
            [
                "explain", "/benchmarks/DFSIO/io_file_0",
                "--ledger", str(out / "ledger.jsonl.gz"), "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["path"] == "/benchmarks/DFSIO/io_file_0"
        assert data["replicas"]
        assert data["why_not"]

    def test_slive(self, tmp_path, capsys):
        out = tmp_path / "obs-out"
        assert main(["slive", "--ops", "50", "--obs-out", str(out)]) == 0
        capsys.readouterr()
        records = read_trace_file(str(out / "trace.jsonl.gz")).records
        phases = {
            r["attrs"]["phase"] for r in records
            if r.get("name") == "workload.phase"
        }
        assert {"mkdir", "create", "open", "ls", "rename", "delete"} <= phases
        assert (out / "ledger.jsonl.gz").exists()
        assert not (out / "incidents").exists()

    def test_single_deployment_experiment(self, tmp_path, capsys):
        # At the parent this experiment rejected --recorder-out and
        # --ledger-out, and --metrics-out m.json.gz wrote uncompressed
        # Prometheus text ("# run 0") into the .json.gz.
        out = tmp_path / "obs-out"
        code = main(
            ["experiment", "table2", "--scale", "0.1", "--obs-out", str(out)]
        )
        assert code == 0
        assert "Table 2" in capsys.readouterr().out
        data = json.loads((out / "metrics.json").read_text())
        assert data["schema_version"]
        trace_path = out / "trace.jsonl.gz"
        assert trace_path.read_bytes()[:2] == GZIP_MAGIC
        # Table 2 measures the media directly: a header and no spans.
        assert read_trace_file(str(trace_path)).problems == []
        assert (out / "ledger.jsonl.gz").exists()

    def test_multi_deployment_experiment_gets_run_dirs(self, tmp_path, capsys):
        out = tmp_path / "obs-out"
        code = main(
            ["experiment", "fig5", "--scale", "0.05", "--obs-out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        # fig5 builds several deployments; each keeps its own artefacts.
        runs = sorted(p.name for p in out.iterdir())
        assert len(runs) > 1
        assert runs == [f"run-{i:02d}" for i in range(len(runs))]
        assert f"{len(runs)} deployment(s) written to {out}" in stdout
        for run in runs:
            data = json.loads((out / run / "metrics.json").read_text())
            assert "runs" not in data and data["counters"]
            trace = read_trace_file(str(out / run / "trace.jsonl.gz"))
            assert trace.records and trace.problems == []

    def test_tiering_experiment(self, tmp_path, capsys):
        out = tmp_path / "obs-out"
        code = main(
            [
                "experiment", "tiering", "--scale", "0.1",
                "--policy", "adaptive", "--obs-out", str(out),
            ]
        )
        assert code == 0
        assert "Workload shift" in capsys.readouterr().out
        records = read_trace_file(str(out / "trace.jsonl.gz")).records
        assert any(r.get("name") == "tier.round" for r in records), (
            "no tier.round spans — the policy never acted"
        )
        ledger = read_jsonl_records(str(out / "ledger.jsonl.gz"))
        assert validate_ledger_records(ledger) == []
        assert "tiering" in {r["action"] for r in ledger}

    @pytest.mark.parametrize(
        "flag",
        ["--metrics-out", "--trace-out", "--recorder-out", "--ledger-out",
         "--alerts-out"],
    )
    def test_replaced_flags_are_gone(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dfsio", flag, "x"])


class TestValidate:
    def test_directory(self, dfsio_out, capsys):
        out, _ = dfsio_out
        assert main(["validate", str(out)]) == 0
        stdout = capsys.readouterr().out
        for name, kind in [
            ("trace.jsonl.gz", "trace"), ("ledger.jsonl.gz", "ledger"),
            ("metrics.json", "metrics"),
        ]:
            assert f"{out / name}: {kind}, " in stdout
        # A quiet run's alert timeline is a header and nothing else.
        assert f"{out / 'alerts.jsonl'}: empty stream" in stdout
        assert "metrics.prom" not in stdout

    def test_problems_are_listed_and_exit_1(self, dfsio_out, tmp_path, capsys):
        out, _ = dfsio_out
        records = read_jsonl_records(str(out / "ledger.jsonl.gz"))
        del records[0]["path"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["validate", str(bad), str(out / "metrics.json")]) == 1
        stdout = capsys.readouterr().out
        assert f"{bad}: record 0: decision missing ['path']" in stdout
        assert f"{out / 'metrics.json'}: metrics, " in stdout

    def test_unknown_content_and_missing_files_fail(self, tmp_path, capsys):
        odd = tmp_path / "odd.json"
        odd.write_text('{"kind": "something-else"}\n')
        missing = tmp_path / "missing.jsonl"
        assert main(["validate", str(odd), str(missing)]) == 1
        stdout = capsys.readouterr().out
        assert f"{odd}: not an artefact repro writes" in stdout
        assert f"{missing}: cannot read artefact" in stdout

    def test_empty_directory_fails(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 1
        assert "no artefact files" in capsys.readouterr().err


class TestArtefactErrors:
    """analyze / postmortem / explain share one read-validate-or-exit-1
    path; none of them may die with a traceback on a bad input."""

    def test_postmortem_rejects_structurally_invalid_bundle(
        self, tmp_path, capsys
    ):
        # Uncaught KeyError: 'triggered_at' at the parent.
        path = tmp_path / "bundle.json"
        path.write_text(
            '{"kind":"incident_bundle","schema_version":"1.0",'
            '"incident":{"id":1}}\n'
        )
        assert main(["postmortem", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: incident missing 'triggered_at'" in err

    def test_wrong_artefact_is_one_line_naming_the_kind(
        self, dfsio_out, capsys
    ):
        out, _ = dfsio_out
        trace = str(out / "trace.jsonl.gz")
        assert main(["explain", "/f", "--ledger", trace]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: {trace}: expected ledger (decision records), "
            "found trace (span/event records)"
        ]
        ledger = str(out / "ledger.jsonl.gz")
        assert main(["analyze", ledger]) == 1
        assert "found ledger" in capsys.readouterr().err
        assert main(["postmortem", ledger]) == 1
        assert "found ledger" in capsys.readouterr().err

    def test_explain_missing_ledger_is_error(self, tmp_path, capsys):
        code = main(
            ["explain", "/f", "--ledger", str(tmp_path / "missing.jsonl")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_explain_rejects_invalid_ledger(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"kind": "decision", "seq": 1}\n')
        assert main(["explain", "/f", "--ledger", str(path)]) == 1
        assert "decision missing" in capsys.readouterr().err

    def test_strict_analyze_fails_on_schema_problems(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"kind":"event","name":"x","time":0.0,"trace_id":7,'
            '"parent_id":null}\n'
        )
        assert main(["analyze", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(path), "--strict"]) == 1
        assert "trace_id 7 not in stream" in capsys.readouterr().err


class TestAnalyze:
    @pytest.fixture()
    def trace_path(self, dfsio_out, tmp_path):
        """The run's trace as a plain file the cases may append to."""
        path = tmp_path / "trace.jsonl"
        path.write_bytes(
            gzip.decompress((dfsio_out[0] / "trace.jsonl.gz").read_bytes())
        )
        return path

    def test_text_report(self, trace_path, capsys):
        assert main(["analyze", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "flow.transfer" in out
        assert "stragglers" in out

    def test_json_report(self, trace_path, capsys):
        assert main(["analyze", str(trace_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["problems"] == []
        assert data["requests"]
        for request in data["requests"]:
            total = sum(s["duration"] for s in request["segments"])
            assert total == pytest.approx(request["duration"])

    def test_chrome_out(self, trace_path, tmp_path, capsys):
        chrome = tmp_path / "trace.chrome.json"
        code = main(
            ["analyze", str(trace_path), "--chrome-out", str(chrome)]
        )
        assert code == 0
        assert f"chrome trace written to {chrome}" in capsys.readouterr().out
        document = json.loads(chrome.read_text())
        assert validate_chrome_trace(document) == []
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_corrupt_line_tolerated_by_default(self, trace_path, capsys):
        with open(trace_path, "a", encoding="utf-8") as handle:
            handle.write("%% not json %%\n")
        assert main(["analyze", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "problem: line 18: invalid JSON" in out

    def test_strict_fails_on_corrupt_line(self, trace_path, capsys):
        with open(trace_path, "a", encoding="utf-8") as handle:
            handle.write("%% not json %%\n")
        assert main(["analyze", str(trace_path), "--strict"]) == 1
        err = capsys.readouterr().err
        assert "invalid JSON" in err

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_in_strict_mode_is_error(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "nope.jsonl"), "--strict"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_non_positive_top_rejected(self, trace_path, top, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(trace_path), "--top", top])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_non_integer_top_rejected(self, trace_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", str(trace_path), "--top", "many"])
        assert excinfo.value.code == 2
        assert "not an integer" in capsys.readouterr().err

    def test_positive_top_accepted(self, trace_path, capsys):
        assert main(["analyze", str(trace_path), "--top", "2"]) == 0
        assert "stragglers" in capsys.readouterr().out


class TestExperimentPolicyFlag:
    def test_policy_rejected_for_experiments_without_one(self, capsys):
        assert main(["experiment", "table2", "--policy", "adaptive"]) == 2
        assert "does not take --policy" in capsys.readouterr().err

    def test_invalid_policy_value_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "tiering", "--policy", "bogus"]
            )

    def test_tiering_accepts_policy(self, capsys):
        assert main(
            ["experiment", "tiering", "--scale", "0.1", "--policy", "static"]
        ) == 0
        out = capsys.readouterr().out
        assert "static" in out
        assert "Workload shift" in out


class TestReportHealth:
    def test_report_json_includes_health_section(self, capsys):
        assert main(["report", "--deployment", "octopus", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        health = data["health"]
        assert health["ticks"] == 1
        assert health["alerts_firing"] == []
        for check in ("accounting", "replication"):
            assert health["checks"][check]["violations"] == 0
            assert health["checks"][check]["firing"] is False
        assert health["grace_ticks"]["replication"] >= 1


class TestReportBalancer:
    def test_report_json_includes_balancer_section(self, capsys):
        assert main(["report", "--workers", "4", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data["balancer"]) == {
            "threshold", "spread", "planned_moves",
        }
        assert data["balancer"]["threshold"] == 0.10
