"""Tests for the command-line interface."""

import contextlib
import doctest
import gzip
import hashlib
import io
import json

import pytest

from repro import OctopusFileSystem
from repro.bench import tables
from repro.cli import build_parser, main
from repro.cluster import small_cluster_spec
from repro.obs import ObsCapture, read_trace_file, validate
from repro.obs.export import read_artifact
from repro.util.units import MB, format_bytes, format_rate

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

    @pytest.mark.parametrize(
        "argv",
        [["--size", "8XB"], ["--vector", "x"], ["--vector", "1,2,3,4,5,6"]],
    )
    def test_bad_dfsio_value_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["dfsio", *argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro dfsio: error: argument {argv[0]}:" in err
        assert "Traceback" not in err


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

    def test_report_text_prints_bytes_and_rates_in_units(self, capsys):
        """The tiers table prints each byte column through
        ``format_bytes`` and each throughput column through
        ``format_rate``, from the numbers ``--json`` prints raw."""
        assert main(["report", "--deployment", "octopus", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert main(["report", "--deployment", "octopus"]) == 0
        text = capsys.readouterr().out
        rows = [line.split() for line in text.splitlines()]
        header = next(row for row in rows if "total_capacity" in row)
        for tier in data["tiers"]:
            (row,) = [row for row in rows if row[:1] == [tier["tier"]]]
            cells = dict(zip(header, row))
            for column in ("total_capacity", "used", "remaining"):
                assert cells[column] == format_bytes(tier[column])
            for column in ("avg_write_throughput", "avg_read_throughput"):
                assert cells[column] == format_rate(tier[column])
            assert cells["remaining_percent"] == "100.0"
        assert "36.00GB" in text and "3224.8MB/s" in text

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


def test_format_report_shape_rules():
    """Every shape rule of the one text renderer, as its doctests show."""
    result = doctest.testmod(tables)
    assert result.failed == 0 and result.attempted >= 6


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
        assert "\nslos:\n" in stdout and "burn_rates" in stdout
        alerts = read_artifact(str(out / "alerts.jsonl"))[1]
        assert validate("alerts", alerts) == []

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
        assert validate("ledger", read_artifact(str(ledger))[1]) == []
        code = main(
            ["explain", "/benchmarks/DFSIO/io_file_0", "--ledger", str(ledger)]
        )
        assert code == 0
        out_text = capsys.readouterr().out
        assert "\nreplicas:\n  - medium:" in out_text
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
        ledger = read_artifact(str(out / "ledger.jsonl.gz"))[1]
        assert validate("ledger", ledger) == []
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
        records = read_artifact(str(out / "ledger.jsonl.gz"))[1]
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
        assert "\nrequests:\n  - trace_id:" in out and "dominant:" in out
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
        assert validate("chrome", document) == []
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_corrupt_line_tolerated_by_default(self, trace_path, capsys):
        with open(trace_path, "a", encoding="utf-8") as handle:
            handle.write("%% not json %%\n")
        assert main(["analyze", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "  problems: line 18: invalid JSON" in out

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


    @pytest.mark.parametrize("deployment", ["octopus", "hdfs"])
    def test_report_json_sweeps_the_invariants_once(
        self, capsys, monkeypatch, deployment
    ):
        """``watch`` is read off the health monitor's one sweep."""
        from repro.fs import invariants

        sweeps = []
        replication_violations = invariants.replication_violations

        def counted(fs):
            sweeps.append(fs)
            return replication_violations(fs)

        monkeypatch.setattr(invariants, "replication_violations", counted)
        assert main(["report", "--deployment", deployment, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(sweeps) == 1
        assert data["watch"] == {
            "healthy": True,
            "invariants": {
                check: found["violations"]
                for check, found in data["health"]["checks"].items()
            },
        }


#: sha256 of what each reading verb prints over the artefact directory
#: ``seeded_obs_out`` builds, one pin for every interpreter: ``analyze``'s
#: flame totals are a plain left fold, not builtin ``sum`` (compensated
#: from CPython 3.12 on), so its report no longer depends on the version.
PINNED_STDOUT = {
    "analyze": "672315c17d87083f90f30f9924866aba872a0071827a5999ce58042739c1b7e9",
    "postmortem": "e330f13d5a6715a378cddb131cec1242c559bee1bf89e214ef3f25f4b89309a5",
    "validate": "4652a0fdfbd0e983fe39574579b48e98ee8af5b71663981e018d95b231c921e6",
    "analyze text": "7a2d9b5b0fd46acc1f1e8e1ddd2dc3c4c71a8db002344c9321cc250811373d87",
    "postmortem text": "559d1525ef6bbba8cfaf89a637bf8475a5032c67b137b22161c2206542d5032c",
    "explain text": "825abf8f822c269fa19cf5387b99698e2faba34e78e024757f11368a5254cdb0",
}


@pytest.fixture
def seeded_obs_out(tmp_path, monkeypatch):
    """An ``--obs-out`` directory of a seeded run with one crash, so it
    holds a trace, a ledger, metrics and one incident bundle; the cwd is
    its parent, so the verbs print the same relative paths every run."""
    monkeypatch.chdir(tmp_path)
    capture = ObsCapture()
    with capture:
        fs = OctopusFileSystem(small_cluster_spec(seed=0))
    client = fs.client(on="worker1")
    for index in range(3):
        client.write_file(f"/d/f{index}", size=8 * MB)
    fs.faults.crash("worker2")
    fs.await_replication()
    for index in range(3):
        with client.open(f"/d/f{index}") as stream:
            stream.read_size()
    capture.write("obs-out")
    return "obs-out"


def test_reading_verbs_print_pinned_bytes(seeded_obs_out, capsys):
    """``analyze --json``, ``postmortem --json`` and ``validate DIR``
    print, byte for byte, what they printed before the per-kind readers
    and renderers were folded into the one artefact path; the text views
    are ``format_report`` of those documents."""
    out = seeded_obs_out
    bundle = f"{out}/incidents/incident-001.json.gz"
    for verb, argv in [
        ("analyze", ["analyze", f"{out}/trace.jsonl.gz", "--json"]),
        ("postmortem", ["postmortem", bundle, "--json"]),
        ("validate", ["validate", out]),
        ("analyze text", ["analyze", f"{out}/trace.jsonl.gz"]),
        ("postmortem text", ["postmortem", bundle]),
        ("explain text", ["explain", "/d/f0", "--ledger", f"{out}/ledger.jsonl.gz"]),
    ]:
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_STDOUT[verb], verb


def test_analyze_text_keeps_three_significant_digits(seeded_obs_out, capsys):
    """A sub-10 ms latency reads as its ``--json`` value, not ``0.00``:
    the text view's ``client.read_block`` p50 is the JSON p50 to three
    significant digits."""
    trace = f"{seeded_obs_out}/trace.jsonl.gz"
    assert main(["analyze", trace, "--json"]) == 0
    p50 = json.loads(capsys.readouterr().out)["flame"]["client.read_block"]["p50"]
    assert main(["analyze", trace]) == 0
    (row,) = [
        line.split() for line in capsys.readouterr().out.splitlines()
        if line.split()[:1] == ["client.read_block"]
    ]
    # Columns: name, count, total, min, max, p50, ...
    assert row[5] == f"{p50:#.3g}" == "0.00320"
