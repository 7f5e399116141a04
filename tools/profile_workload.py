#!/usr/bin/env python3
"""Profile one end-to-end workload: name the hot path before rewriting it.

Builds a workload of ``benchmarks/e2e/workloads.py`` (imported, never
edited), runs its ``setup()`` unprofiled and its ``run()`` — the
benchmark's timed region — under ``cProfile``, then prints the top
functions and the workload's simulated results, which must not move
under a simulator-only change.

    python tools/profile_workload.py NAME [--seed N] [--scale full|tiny]
                                          [--sort tottime|cumulative] [--top K]
                                          [--callers REGEX] [--memory] [--fills]
                                          [--gc] [--setup]

``--setup`` profiles (or, with ``--memory``, traces) ``setup()`` instead
— what ``run.py`` reports as ``setup_s`` — and runs ``run()`` unprofiled
after it, so the simulated results still print; "the region" below is
then ``setup()``.

``--callers REGEX`` adds, for every function whose ``file:line(name)``
matches, who called it and how often — "which site makes 72 k of the
98 k registry lookups?" is a question the flat table cannot answer.

``--memory`` runs the timed region under ``tracemalloc`` instead and
prints the Python heap's peak, what is still live at the end, their
difference — the transient an end-of-run snapshot cannot attribute —
and the top ``K`` allocation sites live at the end. The heap counts
only what the region allocated, not what ``setup()`` left behind. It
also prints the process's ``ru_maxrss`` (what ``run.py`` reports as
``peak_rss_mb``) before set-up and after the region; the second
includes tracemalloc's own overhead, so it reads above ``run.py``'s.
Tracing goes on through ``verify()`` and ``close()``; after those and a
``gc.collect()`` it prints what outlives the workload: the bytes still
attributed to each ``repro`` module, which only process-wide state (a
module-level memo, a registry, a lazily imported module) can hold.

``--fills`` runs the region unprofiled and counts the flow layer's
plans instead (``repro.sim.flows``): how many refills resumed a live
journal, how many starts on idle resources opened a journal of their
own, how many components were filled from round 0 because a change
spanned journals or met a retired one, and how many changes left their
resources idle and rated nothing; with the rates each kind of plan
assigned and the host time spent in its round loops. It is the measure
of ROADMAP item 8(b).

``--gc`` runs the region unprofiled and prints the garbage collector's
work in it: collections and seconds per generation, timed through
``gc.callbacks``. It then builds the workload again and runs the region
with collection disabled and ``gc.DEBUG_SAVEALL`` set, and prints the
cyclic garbage the region left — objects only the collector could
free — by type, the top ``K`` types: what the collections were for.

``cProfile`` taxes every Python call and no native one, so read the
table for *which* functions to look at and measure the change itself
with ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import resource
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
MB = 1 << 20  # MiB, the unit of run.py's peak_rss_mb
KB = 1 << 10


def profile(name: str, seed: int, scale: str, timed: Callable[[Callable[[], None]], object],
            setup: bool = False) -> dict:
    """Run workload ``name`` once, its timed region (or, with ``setup``,
    its set-up) through ``timed``; its simulated results."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name](seed, scale)
    try:
        if setup:
            timed(workload.setup)
            workload.run()
        else:
            workload.setup()
            timed(workload.run)
        workload.verify()
    finally:
        workload.close()
    if workload.failed:
        raise SystemExit(f"{name}: {workload.failed} failed operations: {workload.failures}")
    return workload.sim


def maxrss_mb() -> float:
    """The process's peak resident set so far, in run.py's unit."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_memory(run: Callable[[], None], top: int, region: str) -> None:
    """Start ``tracemalloc``, run ``run`` and print its heap at the peak
    and at the end, and the ``top`` sites of what is live at the end.
    Tracing stays on for :func:`print_survivors`."""
    tracemalloc.start()
    run()
    end, peak = tracemalloc.get_traced_memory()
    snapshot = tracemalloc.take_snapshot()
    print(f"Python heap in {region}: peak {peak / MB:.1f} MB, live at the end "
          f"{end / MB:.1f} MB, transient (peak - end) {(peak - end) / MB:.1f} MB")
    print(f"ru_maxrss after the region: {maxrss_mb():.1f} MB "
          "(includes tracemalloc's own overhead)")
    print(f"top {top} allocation sites live at the end:")
    for stat in snapshot.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        where = frame.filename.removeprefix(str(ROOT) + "/")
        print(f"  {stat.size / MB:8.2f} MB {stat.count:9d} blocks  {where}:{frame.lineno}")


def print_survivors(top: int) -> None:
    """After the workload's ``close()``: collect and print the ``top``
    ``repro`` modules that traced bytes are still attributed to."""
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    source = str(ROOT / "src") + "/"
    modules = [
        stat for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.startswith(source)
    ]
    total = sum(stat.size for stat in modules)
    print(f"outlives the workload (after close() and gc.collect()): {total / KB:.1f} kB "
          f"in {len(modules)} repro modules; top {top}:")
    for stat in modules[:top]:
        where = stat.traceback[0].filename.removeprefix(source)
        print(f"  {stat.size / KB:10.1f} kB {stat.count:9d} blocks  {where}")


def print_fills(run: Callable[[], None], region: str) -> None:
    """Run ``run`` with the incremental flow solver's plans counted by
    kind, and print the counts, the rates each kind assigned and the
    host time of its round loops."""
    from repro.sim import flows

    solver, scheduler = flows.IncrementalFlowSolver, flows.FlowScheduler
    resume, round_zero = solver._resume, flows._round_zero
    leave_idle, run_rounds = flows._leave_idle, scheduler._run_rounds
    kinds: dict[int, str] = {}  # id(candidate heap) -> the plan's kind
    rows = {kind: [0, 0, 0.0] for kind in ("resume", "new journal", "round-0 fill", "idle leave")}

    def counted_resume(self, journal, *args):
        kind = "resume" if journal.rounds else "new journal"
        plan = resume(self, journal, *args)
        kinds[id(plan[0])] = kind
        return plan

    def counted_round_zero(*args):
        heap = round_zero(*args)
        kinds[id(heap)] = "round-0 fill"
        return heap

    def counted_leave_idle(*args):
        rows["idle leave"][0] += 1
        return leave_idle(*args)

    def timed_run_rounds(self, heap, *args):
        row = rows[kinds.pop(id(heap))]
        rated, began = self.rate_computations, time.perf_counter()
        run_rounds(self, heap, *args)
        row[0] += 1
        row[1] += self.rate_computations - rated
        row[2] += time.perf_counter() - began

    patches = [(solver, "_resume", counted_resume), (flows, "_round_zero", counted_round_zero),
               (flows, "_leave_idle", counted_leave_idle),
               (scheduler, "_run_rounds", timed_run_rounds)]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, patch in patches:
        setattr(owner, name, patch)
    try:
        began = time.perf_counter()
        run()
        elapsed = time.perf_counter() - began
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    print(f"flow-layer plans in {region} ({elapsed:.3f} s host, counting included):")
    print(f"  {'plan':<14} {'plans':>8} {'rates assigned':>15} {'round loops (ms)':>17}")
    for kind, (plans, rates, seconds) in rows.items():
        if kind == "idle leave":
            print(f"  {kind:<14} {plans:>8} {'-':>15} {'-':>17}")
        else:
            print(f"  {kind:<14} {plans:>8} {rates:>15} {seconds * 1e3:>17.1f}")
    plans, rates, seconds = (sum(row[i] for row in rows.values()) for i in range(3))
    print(f"  {'all':<14} {plans:>8} {rates:>15} {seconds * 1e3:>17.1f}")


def print_gc(run: Callable[[], None], region: str) -> None:
    """Run ``run`` and print the collections in it and the host seconds
    they took, per generation."""
    rows = [[0, 0.0] for _ in range(3)]
    began = 0.0

    def timed(phase: str, info: dict) -> None:
        nonlocal began
        if phase == "start":
            began = time.perf_counter()
        else:
            row = rows[info["generation"]]
            row[0] += 1
            row[1] += time.perf_counter() - began

    gc.callbacks.append(timed)
    try:
        started = time.perf_counter()
        run()
        elapsed = time.perf_counter() - started
    finally:
        gc.callbacks.remove(timed)
    print(f"garbage collections in {region} ({elapsed:.3f} s host, collections included):")
    print(f"  {'generation':<10} {'collections':>12} {'seconds':>9}")
    for generation, (count, seconds) in enumerate(rows):
        print(f"  {generation:<10} {count:>12} {seconds:>9.4f}")
    print(f"  {'all':<10} {sum(r[0] for r in rows):>12} {sum(r[1] for r in rows):>9.4f}")


def print_garbage(run: Callable[[], None], top: int, region: str) -> None:
    """Run ``run`` with collection disabled and every unreachable object
    kept (``gc.DEBUG_SAVEALL``); print the cyclic garbage it left, the
    ``top`` types by count."""
    gc.collect()  # what set-up left is freed, not counted
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        kinds = Counter(map(type, gc.garbage))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    print(f"cyclic garbage {region} left ({sum(kinds.values())} objects, "
          f"collection disabled); top {top} types:")
    for kind, count in kinds.most_common(top):
        name = kind.__qualname__
        if kind.__module__ != "builtins":
            name = f"{kind.__module__}.{name}"
        print(f"  {count:>9}  {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("name", help="a workload of BENCHMARK.json (dfsio_wide, meta_churn, tier_shift, ...)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime")
    parser.add_argument("--top", type=int, default=25, metavar="K")
    parser.add_argument("--callers", metavar="REGEX",
                        help="also print the callers of every function matching REGEX")
    parser.add_argument("--memory", action="store_true",
                        help="trace the heap with tracemalloc instead of profiling calls")
    parser.add_argument("--fills", action="store_true",
                        help="count the flow layer's plans by kind instead of profiling calls")
    parser.add_argument("--gc", action="store_true",
                        help="time the garbage collector's work and count the cyclic garbage "
                        "instead of profiling calls")
    parser.add_argument("--setup", action="store_true",
                        help="profile (or trace) setup() instead of the timed region")
    args = parser.parse_args(argv)
    if args.callers and (args.memory or args.fills or args.gc):
        parser.error("--callers reads the call profile, which --memory, --fills and --gc replace")
    if args.memory + args.fills + args.gc > 1:
        parser.error("--memory, --fills and --gc are ways to run the region; pick one")

    region = "set-up" if args.setup else "the timed region"
    if args.fills:
        sim = profile(args.name, args.seed, args.scale,
                      lambda run: print_fills(run, region), args.setup)
    elif args.gc:
        sim = profile(args.name, args.seed, args.scale,
                      lambda run: print_gc(run, region), args.setup)
        profile(args.name, args.seed, args.scale,
                lambda run: print_garbage(run, args.top, region), args.setup)
    elif args.memory:
        print(f"ru_maxrss before set-up: {maxrss_mb():.1f} MB")
        try:
            sim = profile(args.name, args.seed, args.scale,
                          lambda run: print_memory(run, args.top, region), args.setup)
            print_survivors(args.top)
        finally:
            tracemalloc.stop()
    else:
        profiler = cProfile.Profile()
        sim = profile(args.name, args.seed, args.scale, profiler.runcall, args.setup)
        stats = pstats.Stats(profiler).strip_dirs().sort_stats(args.sort)
        stats.print_stats(args.top)
        if args.callers:
            stats.print_callers(args.callers)
    for metric, value in sorted(sim.items()):
        print(f"{metric} = {value!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
