#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A_DIR B_DIR``.

Each directory holds the documents ``run.py --out`` wrote, any number
of runs deep (``A/run1/dfsio_wide.json``, ``A/run2/...``). A is the
parent, B the change. One row is printed per workload and metric —
the end-to-end metrics plus every workload-specific simulated result —
with the median and quartiles of each side, the bound from
``BENCHMARK.json`` and a verdict:

``worse``       B's median is worse than A's by more than the bound;
``improved``    B's median is better than A's by more than the distances
                between the quartiles of A and of B added together;
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so the two medians cannot be told apart;
``unchanged``   none of the above.

Simulated metrics are deterministic per seed, so they are compared
seed by seed and exactly (1e-9 relative): any difference is ``worse``
or ``improved``, never noise. The exit code is non-zero on any
``worse`` and when B fails a larger share of its operations than A.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from run import load_spec, metric_kind

EXACT = 1e-9


def load_runs(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    pattern = os.path.join(directory, "**", "*.json")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        if isinstance(document, dict) and "workload" in document and "end_to_end" in document:
            runs.setdefault(document["workload"], []).append(document)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def metric_values(documents: list[dict], metric: str) -> list[tuple[int, float]]:
    values = []
    for document in documents:
        for section in ("end_to_end", "results"):
            if metric in document[section]:
                values.append((document["seed"], document[section][metric]))
    return values


def host_verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    a_low, a_mid, a_high = quartiles(a)
    b_low, b_mid, b_high = quartiles(b)
    if not a_mid:
        return "unchanged" if not b_mid else "unresolved"
    if max((a_high - a_low) / a_mid, (b_high - b_low) / b_mid if b_mid else 0.0) > bound:
        return "unresolved"
    gain = (a_mid - b_mid) if better == "lower" else (b_mid - a_mid)
    if -gain > bound * a_mid:
        return "worse"
    if gain > (a_high - a_low) + (b_high - b_low):
        return "improved"
    return "unchanged"


def sim_verdict(a: list[tuple[int, float]], b: list[tuple[int, float]], better: str) -> str:
    by_seed_a: dict[int, set[float]] = {}
    by_seed_b: dict[int, set[float]] = {}
    for seed, value in a:
        by_seed_a.setdefault(seed, set()).add(value)
    for seed, value in b:
        by_seed_b.setdefault(seed, set()).add(value)
    if any(len(values) > 1 for values in (*by_seed_a.values(), *by_seed_b.values())):
        return "unresolved"  # a simulated result that differs between runs of one seed
    common = sorted(set(by_seed_a) & set(by_seed_b))
    if not common:
        return "unresolved"
    gain = 0.0
    for seed in common:
        (before,), (after,) = by_seed_a[seed], by_seed_b[seed]
        if abs(after - before) > EXACT * max(abs(before), abs(after)):
            gain += (before - after) if better == "lower" else (after - before)
    if gain == 0.0:
        return "unchanged"
    return "improved" if gain > 0 else "worse"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    side_a, side_b = load_runs(argv[0]), load_runs(argv[1])
    status = 0
    header = (
        f"{'workload':<15} {'metric':<26} {'unit':<5} {'A q1/median/q3':<36} "
        f"{'B q1/median/q3':<36} {'bound':<6} verdict"
    )
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        docs_a, docs_b = side_a.get(workload, []), side_b.get(workload, [])
        if not docs_a or not docs_b:
            print(f"{workload:<15} missing from {'A' if not docs_a else 'B'}")
            status = 1
            continue
        metrics = list(docs_a[0]["end_to_end"]) + list(docs_a[0]["results"])
        for metric in metrics:
            values_a, values_b = metric_values(docs_a, metric), metric_values(docs_b, metric)
            if not values_b:
                print(f"{workload:<15} {metric:<26} missing from B")
                status = 1
                continue
            plain_a, plain_b = [v for _s, v in values_a], [v for _s, v in values_b]
            if metric_kind(metric) == "sim":
                verdict = sim_verdict(values_a, values_b, better[metric])
                bound = "exact"
            else:
                verdict = host_verdict(plain_a, plain_b, bounds[metric], better[metric])
                bound = f"{bounds[metric]:.2f}"
            if verdict == "worse":
                status = 1
            cells = [
                "/".join(f"{q:.4g}" for q in quartiles(plain)) for plain in (plain_a, plain_b)
            ]
            print(
                f"{workload:<15} {metric:<26} {units[metric]:<5} {cells[0]:<36} {cells[1]:<36} "
                f"{bound:<6} {verdict}"
            )
        share_a = sum(d["failed"] for d in docs_a) / sum(d["attempted"] for d in docs_a)
        share_b = sum(d["failed"] for d in docs_b) / sum(d["attempted"] for d in docs_b)
        flag = ""
        if share_b > share_a:
            flag = "  <-- more failed operations"
            status = 1
        print(
            f"{workload:<15} {'failed operations':<26} {'share':<5} {share_a:<36.6f} "
            f"{share_b:<36.6f}{flag}"
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
