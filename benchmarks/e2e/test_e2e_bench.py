"""Checks of the benchmark itself, at the ``tiny`` preset.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (outside
tier-1's ``testpaths``). The workloads are the full ones at toy sizes,
so what is checked here is the harness: the output contract, exact
repeatability of simulated results, observer purity, the trace's
arithmetic, and that the tracer leaves the program as it found it.
"""

from __future__ import annotations

import copy
import importlib
import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_documents: dict[tuple, dict] = {}


def document(workload: str, seed: int = 0, trace: bool = True, again: int = 0) -> dict:
    key = (workload, seed, trace, again)
    if key not in _documents:
        _documents[key] = run.run_workload(workload, seed, 0.0, trace, "tiny", None)
    return _documents[key]


def simulated(doc: dict) -> dict:
    sim = {k: v for k, v in doc["end_to_end"].items() if run.metric_kind(k) == "sim"}
    return {**sim, **doc["results"]}


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert len(SPEC["command"]) <= 32 and all(len(part) <= 200 for part in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = (
        [w["name"] for w in SPEC["workloads"]]
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert os.path.getsize(run.BENCHMARK_JSON) <= 64 * 1024
    assert runs * SPEC["run_seconds"] < 3420


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_output_line_has_exactly_the_declared_metrics(workload, trace):
    line = document(workload, trace=trace)["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(line["metrics"]) == set(declared)
    for name, entry in line["metrics"].items():
        assert set(entry) == {"value", "unit"} and entry["unit"] == declared[name]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    json.dumps(line)
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_results_repeat_exactly_and_follow_the_seed(workload):
    first, second = document(workload, trace=False), document(workload, trace=False, again=1)
    assert simulated(first) == simulated(second)
    assert simulated(first) != simulated(document(workload, seed=1, trace=False))


def test_observers_do_not_change_simulated_results():
    assert simulated(document("meta_churn_obs")) == simulated(document("meta_churn"))
    observed = document("meta_churn_obs")["per_layer"]
    assert observed["obs.tracer.records"] > 0 and observed["obs.export.bytes"] > 0
    for workload in WORKLOADS:
        if workload != "meta_churn_obs":
            per_layer = document(workload)["per_layer"]
            assert all(v == 0 for k, v in per_layer.items() if k.startswith("obs.")), workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_fit_inside_the_traced_run(workload):
    doc = document(workload)
    split = doc["layer_split_self_s"]
    assert split and all(seconds >= 0 for seconds in split.values())
    assert sum(split.values()) <= doc["traced_host_s"]
    assert 0 <= doc["per_layer"]["run.unattributed_frac"] <= 1


def test_only_tier_shift_runs_the_tiering_engine():
    for workload in WORKLOADS:
        tier = {k: v for k, v in document(workload)["per_layer"].items() if k.startswith("tier.")}
        if workload == "tier_shift":
            assert tier["tier.rounds"] > 0 and tier["tier.self_s"] > 0
        else:
            assert not any(tier.values()), workload


def patched_attributes() -> dict:
    attributes = {}
    for module_name, class_name, attr, _name in (
        tracer_module.METHOD_SPANS + tracer_module.GENERATOR_SPANS
    ):
        owner = getattr(importlib.import_module(module_name), class_name)
        attributes[(module_name, class_name, attr)] = owner.__dict__[attr]
    for module_name, attr, _name in tracer_module.FUNCTION_SPANS:
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and attr in getattr(module, "__dict__", {}):
                attributes[(name, "", attr)] = module.__dict__[attr]
    engine = importlib.import_module("repro.sim.engine")
    attributes[("repro.sim.engine", "Process", "_resume")] = engine.Process.__dict__["_resume"]
    return attributes


def test_tracer_restores_every_entry_point():
    import workloads  # noqa: F401 - imports every layer the tracer patches

    before = patched_attributes()
    live = tracer_module.LayerTracer().install()
    during = patched_attributes()
    live.uninstall()
    assert all(during[key] is not before[key] for key in before)
    assert patched_attributes() == before
    _documents.pop(("dfsio_wide", 0, True, 2), None)
    document("dfsio_wide", again=2)
    assert patched_attributes() == before


def write_runs(directory, documents):
    for index, doc in enumerate(documents):
        os.makedirs(directory / f"run{index}", exist_ok=True)
        path = directory / f"run{index}" / f"{doc['workload']}.json"
        slim = {k: v for k, v in doc.items() if k != "line"}
        path.write_text(json.dumps(slim))


def test_compare_tells_worse_from_unchanged(tmp_path, capsys):
    documents = [document(workload, trace=False) for workload in WORKLOADS]
    write_runs(tmp_path / "a", documents)
    write_runs(tmp_path / "b", documents)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "worse" not in capsys.readouterr().out

    slower = copy.deepcopy(documents)
    slower[0]["end_to_end"]["host_s"] *= 2.0
    write_runs(tmp_path / "slower", slower)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "slower")]) == 1
    assert "worse" in capsys.readouterr().out

    drifted = copy.deepcopy(documents)
    drifted[0]["end_to_end"]["sim_makespan_s"] *= 1.0 + 1e-6
    write_runs(tmp_path / "drifted", drifted)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "drifted")]) == 1

    failing = copy.deepcopy(documents)
    failing[1]["failed"] = 1
    write_runs(tmp_path / "failing", failing)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "failing")]) == 1
