#!/usr/bin/env python3
"""The repo's end-to-end benchmark: six workloads, host and simulated metrics.

Two ways to call it, both from the root of a checkout:

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process (the form BENCHMARK.json's ``command``
    is run in). Set-up and timed region are repeated on freshly built
    state until ``S`` seconds of them have been measured (at least
    three times); with ``--trace 1`` one more repeat runs under the
    layer tracer. The last line printed is one
    JSON object: ``correct``, ``attempted``, ``failed``, ``metrics`` —
    the end-to-end metrics for ``--trace 0``, the per-layer ones for
    ``--trace 1``.

``python3 benchmarks/e2e/run.py [--seed N] [--out DIR]``
    Every workload, each in its own sequential subprocess (never two at
    once), traced, and every metric printed by name with its unit and
    kind. ``--out DIR`` keeps one JSON document and the raw spans per
    workload for ``compare.py``.

Simulated results (``sim_*``, ``mem_hit_rate``, ``paper_gap_pct``) repeat
bit for bit for a seed; host results (``host_s``, ``setup_s``,
``peak_rss_mb``) carry the machine's noise, which is why a run repeats
them, reports medians, and brings host seconds to the reference speed
of a calibration loop it interleaves with the timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Simulated end-to-end metrics; everything else end to end is host time
#: or host memory.
SIM_METRICS = ("sim_makespan_s", "sim_read_mbs_per_worker")
#: A run repeats set-up and timed region at least this often, however
#: long one repeat takes, and reports the median of each, in host
#: seconds at reference speed (``speed.py``).
MIN_REPEATS = 3


def load_spec() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def metric_kind(name: str) -> str:
    if name.startswith("sim_") or name in ("mem_hit_rate", "paper_gap_pct"):
        return "sim"
    return "host"


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
class Repeat:
    """One build-run-verify cycle of a workload on fresh state."""

    def __init__(self, cls, seed: int, scale: str, tracer) -> None:
        from speed import SpeedSampler

        gc.collect()
        workload = cls(seed, scale, tracer)
        # A traced repeat is reported as measured: calibration slices
        # would land inside whichever span happened to be open.
        sampler = None if tracer.enabled else SpeedSampler()
        try:
            with sampler or nullcontext():
                began = time.perf_counter()
                workload.setup()
                ready = time.perf_counter()
                collections = _gc_collections()
                with tracer.timed_region() if tracer.enabled else nullcontext():
                    workload.run()
                finished = time.perf_counter()
            self.gc_collections = _gc_collections() - collections
            workload.verify()
        finally:
            workload.close()
        #: Seconds as measured, and the same at reference speed.
        self.setup_raw_s, self.setup_s = _measure(sampler, began, ready)
        self.host_raw_s, self.host_s = _measure(sampler, ready, finished)
        # Only the results outlive the repeat, not the cluster behind them.
        self.sim = workload.sim
        self.samples = workload.samples
        self.counts = workload.counts
        self.attempted = workload.attempted
        self.failed = workload.failed
        self.failures = workload.failures
        self.points = getattr(workload, "points", None)


def _measure(sampler, began: float, finished: float) -> tuple[float, float]:
    if sampler is None:
        return finished - began, finished - began
    return sampler.measure(began, finished)


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str, out: str | None) -> dict:
    from layers import layer_metrics
    from tracer import NULL_TRACER, LayerTracer
    from workloads import SIZES, WORKLOADS

    spec = load_spec()
    cls = WORKLOADS[name]

    plain = None
    if cls.observed and trace:
        # Observer purity: the same inputs with nothing attached must
        # give the same simulated results. Its host time is the base of
        # obs.overhead_frac. (Traced runs only: it costs a repeat.)
        plain = Repeat(WORKLOADS["meta_churn"], seed, scale, NULL_TRACER)

    repeats: list[Repeat] = []
    measured = 0.0
    while measured < seconds or len(repeats) < MIN_REPEATS:
        repeat = Repeat(cls, seed, scale, NULL_TRACER)
        repeats.append(repeat)
        measured += repeat.setup_raw_s + repeat.host_raw_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = repeats[0]
    end_to_end = {
        "setup_s": median(r.setup_s for r in repeats),
        "host_s": median(r.host_s for r in repeats),
        "peak_rss_mb": peak_rss_mb,
        **{metric: first.sim.get(metric, 0.0) for metric in SIM_METRICS},
    }
    # Each agreement below is one more checked operation of the run.
    agreements = [
        (repeat.sim == first.sim and repeat.attempted == first.attempted,
         f"repeat {index} disagrees with repeat 1 on a simulated result")
        for index, repeat in enumerate(repeats[1:], start=2)
    ]
    everything = list(repeats)
    if plain is not None:
        everything.append(plain)
        agreements.append(
            (plain.sim == first.sim,
             "simulated results differ from meta_churn's: an observer is not pure")
        )

    per_layer: dict[str, float] = {}
    layer_split: dict[str, float] = {}
    traced = None
    if trace:
        tracer = LayerTracer().install()
        try:
            traced = Repeat(cls, seed, scale, tracer)
        finally:
            tracer.uninstall()
        everything.append(traced)
        agreements.append((traced.sim == first.sim, "the traced repeat changed a simulated result"))
        analysis = tracer.analyse()
        per_layer = layer_metrics(
            analysis, tracer, traced, [r.host_raw_s for r in repeats], end_to_end["host_s"],
            plain.host_s if plain is not None else None,
        )
        layer_split = analysis.layer_split()
        if out:
            tracer.write(os.path.join(out, f"{name}.spans.json.gz"))

    attempted = sum(r.attempted for r in everything) + len(agreements)
    failures = [message for r in everything for message in r.failures]
    failures += [message for agreed, message in agreements if not agreed]
    failed = sum(r.failed for r in everything) + sum(not agreed for agreed, _ in agreements)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = per_layer if trace else end_to_end
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(reported) != sorted(declared):
        raise SystemExit(
            f"metrics computed and metrics declared in BENCHMARK.json differ: "
            f"{sorted(set(reported) ^ set(declared))}"
        )

    document = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "sizes": SIZES[scale][name],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "repeats": [
            {"setup_s": r.setup_s, "host_s": r.host_s,
             "setup_raw_s": r.setup_raw_s, "host_raw_s": r.host_raw_s}
            for r in repeats
        ],
        "traced_host_s": traced.host_raw_s if traced else None,
        "end_to_end": end_to_end,
        "results": {k: v for k, v in first.sim.items() if k not in SIM_METRICS},
        "samples": first.samples,
        "reference_points": first.points,
        "per_layer": per_layer,
        "layer_split_self_s": layer_split,
        "units": units,
    }
    if out:
        with open(os.path.join(out, f"{name}.json"), "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    document["line"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }
    return document


# ----------------------------------------------------------------------
# Every workload, one subprocess each
# ----------------------------------------------------------------------
def run_all(names: list[str], seed: int, seconds: float, scale: str, out: str | None) -> int:
    from workloads import SCRATCH

    scratch = None
    if out is None:
        os.makedirs(SCRATCH, exist_ok=True)
        out = scratch = tempfile.mkdtemp(prefix="e2e-", dir=SCRATCH)
    os.makedirs(out, exist_ok=True)
    status = 0
    try:
        for name in names:
            began = time.perf_counter()
            process = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "1", "--scale", scale, "--out", out],
                cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
                stdout=subprocess.DEVNULL, check=False,
            )
            wall = time.perf_counter() - began
            if process.returncode != 0:
                print(f"{name}: exited with code {process.returncode}")
                status = 1
                continue
            with open(os.path.join(out, f"{name}.json"), encoding="utf-8") as handle:
                document = json.load(handle)
            print_document(document, wall)
            if not document["correct"]:
                status = 1
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return status


def print_document(document: dict, wall: float) -> None:
    units = document["units"]
    name = document["workload"]
    print(
        f"== {name}  seed={document['seed']}  repeats={len(document['repeats'])}  "
        f"ops attempted={document['attempted']} failed={document['failed']}  "
        f"correct={document['correct']}  ({wall:.1f} s wall)"
    )
    for section in ("end_to_end", "results"):
        for metric, value in document[section].items():
            samples = document["samples"].get(metric)
            note = f"  n={samples}" if samples else ""
            print(f"  {metric:<38} {value:>16.6f} {units[metric]:<6} [{metric_kind(metric)}]{note}")
    for point in document["reference_points"] or []:
        print(
            f"    {point['id']:<38} paper {point['paper']:<6} ours {point['ours']:.3f}  "
            f"gap {point['gap_pct']:.1f} %"
        )
    traced = document["traced_host_s"]
    print(f"  per layer (traced repeat, {traced:.3f} s):")
    for metric, value in document["per_layer"].items():
        if value and metric not in document["results"]:
            print(f"    {metric:<36} {value:>16.6f} {units[metric]}")
    split = document["layer_split_self_s"]
    shares = ", ".join(
        f"{layer} {seconds / traced:.0%}"
        for layer, seconds in sorted(split.items(), key=lambda item: -item[1])[:8]
    )
    print(f"  self time share of the traced region: {shares}")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=0, help="input seed (0 default; 1 is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="host seconds of timed region to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: add a traced repeat and report the per-layer metrics")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="directory for the per-workload JSON documents and spans")
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order must not depend on the interpreter's salt.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *(argv or sys.argv[1:])],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no src/repro beside the benchmark, so nothing to measure", file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.workload is None:
        return run_all(names, args.seed, args.seconds, args.scale, args.out)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    document = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, args.out)
    print(json.dumps(document["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
