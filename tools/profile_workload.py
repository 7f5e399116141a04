#!/usr/bin/env python3
"""Profile one end-to-end workload: name the hot path before rewriting it.

Builds a workload of ``benchmarks/e2e/workloads.py`` (imported, never
edited), runs its ``setup()`` unprofiled and its ``run()`` — the
benchmark's timed region — under ``cProfile``, then prints the top
functions and the workload's simulated results, which must not move
under a simulator-only change.

    python tools/profile_workload.py NAME [--seed N] [--scale full|tiny]
                                          [--sort tottime|cumulative] [--top K]
                                          [--callers REGEX]

``--callers REGEX`` adds, for every function whose ``file:line(name)``
matches, who called it and how often — "which site makes 72 k of the
98 k registry lookups?" is a question the flat table cannot answer.

``cProfile`` taxes every Python call and no native one, so read the
table for *which* functions to look at and measure the change itself
with ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def profile(name: str, seed: int, scale: str) -> tuple[cProfile.Profile, dict]:
    """Run workload ``name`` once; its profile and simulated results."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name](seed, scale)
    profiler = cProfile.Profile()
    try:
        workload.setup()
        profiler.runcall(workload.run)
        workload.verify()
    finally:
        workload.close()
    if workload.failed:
        raise SystemExit(f"{name}: {workload.failed} failed operations: {workload.failures}")
    return profiler, workload.sim


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("name", help="a workload of BENCHMARK.json (dfsio_wide, meta_churn, tier_shift, ...)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime")
    parser.add_argument("--top", type=int, default=25, metavar="K")
    parser.add_argument("--callers", metavar="REGEX",
                        help="also print the callers of every function matching REGEX")
    args = parser.parse_args(argv)

    profiler, sim = profile(args.name, args.seed, args.scale)
    stats = pstats.Stats(profiler).strip_dirs().sort_stats(args.sort)
    stats.print_stats(args.top)
    if args.callers:
        stats.print_callers(args.callers)
    for metric, value in sorted(sim.items()):
        print(f"{metric} = {value!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
