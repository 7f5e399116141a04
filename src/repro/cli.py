"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiment`` — regenerate one of the paper's tables/figures::

    python -m repro experiment fig3 --scale 0.5

``dfsio`` — run the DFSIO benchmark against a chosen deployment::

    python -m repro dfsio --size 10GB --parallelism 27 --vector 1,0,2

``slive`` — Table 3 at a chosen size: namespace operation rates of one
``Namespace`` as stock HDFS (one tier) and as OctopusFS, with the run's
own noise floor beside the overhead::

    python -m repro slive --ops 4000

``report`` — build a deployment and print its topology and tier report::

    python -m repro report --deployment octopus

``experiment``, ``dfsio`` and ``slive`` take ``--obs-out DIR``: switch
every observer on and write the run's artefact directory (trace,
metrics, ledger, incident bundles; on ``dfsio`` also the alert timeline
— the layout is the "Artefacts" table of ``docs/OBSERVABILITY.md``)::

    python -m repro dfsio --size 1GB --obs-out obs-out

``validate`` — schema-check artefact files or a whole ``--obs-out``
directory, whatever kind each file turns out to hold::

    python -m repro validate obs-out

``analyze`` — post-process an exported JSONL trace: critical paths,
flame/self-time aggregates, per-tier latency percentiles, stragglers,
and Chrome/Perfetto trace export::

    python -m repro analyze obs-out/trace.jsonl.gz --chrome-out trace.chrome.json

``postmortem`` — the causal timeline and blast radius of one incident
bundle::

    python -m repro postmortem obs-out/incidents/incident-001.json.gz

``explain`` — reconstruct per-replica decision chains ("why is this
replica here?") from a provenance ledger::

    python -m repro explain /bench/f0 --ledger obs-out/ledger.jsonl.gz

``list`` — show the available experiments and deployment presets.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import os
import sys
from typing import Sequence

from repro.bench.deployments import DEPLOYMENTS, build_deployment
from repro.bench.experiments import ALL_EXPERIMENTS, table3_namespace
from repro.bench.tables import format_report, format_table
from repro.cluster.spec import paper_cluster_spec
from repro.core.replication_vector import ReplicationVector
from repro.errors import ReplicationVectorError
from repro.obs import (
    ArtifactError,
    HealthMonitor,
    ObsCapture,
    SloMonitor,
    analyze_trace,
    default_read_rules,
    explain,
    postmortem_report,
    read_trace_file,
    tier_report_data,
    validate,
    write_chrome_trace,
)
from repro.obs.export import SCHEMAS, canonical_json, load, read_artifact
from repro.obs.postmortem import bundle_trace_records
from repro.util.units import format_bytes, parse_bytes
from repro.workloads.dfsio import Dfsio


def _positive_int(text: str) -> int:
    """argparse type for flags that must be strictly positive."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value})"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OctopusFS reproduction (SIGMOD 2017) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", choices=sorted(ALL_EXPERIMENTS))
    exp.add_argument("--scale", type=float, default=0.2)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--policy", choices=("static", "adaptive", "both"), default=None,
        help="tiering policy selection, for experiments that take one "
        "(e.g. 'tiering'); others reject the flag",
    )
    _add_obs_out(exp)

    dfsio = sub.add_parser("dfsio", help="run the DFSIO I/O benchmark")
    dfsio.add_argument("--size", type=parse_bytes, default="10GB")
    dfsio.add_argument("--parallelism", "-d", type=int, default=27)
    dfsio.add_argument("--deployment", choices=DEPLOYMENTS, default="octopus")
    dfsio.add_argument(
        "--vector",
        type=_parse_vector,
        default=3,
        help="replication vector as M,S,H[,R[,U]] (default: U=3)",
    )
    dfsio.add_argument("--seed", type=int, default=0)
    dfsio.add_argument("--racks", type=int, default=1)
    dfsio.add_argument(
        "--slo", action="store_true",
        help="run the stock SLO burn-rate rules and live invariant "
        "health checks during the benchmark (implies observability)",
    )
    _add_obs_out(dfsio)

    slive = sub.add_parser(
        "slive",
        help="namespace stress test: the same namespace as stock HDFS "
        "(one tier) and as OctopusFS, overhead and A/A noise floor per op",
    )
    slive.add_argument(
        "--ops", type=int, default=2000,
        help="operations per type (200 at least)",
    )
    slive.add_argument("--seed", type=int, default=0)
    _add_obs_out(slive)

    report = sub.add_parser("report", help="show a deployment's tier report")
    report.add_argument("--deployment", choices=DEPLOYMENTS, default="octopus")
    report.add_argument("--racks", type=int, default=2)
    report.add_argument("--workers", type=int, default=9)
    report.add_argument(
        "--json", action="store_true",
        help="emit the report as machine-readable JSON",
    )

    analyze = sub.add_parser(
        "analyze", help="analyze an exported JSONL trace"
    )
    analyze.add_argument("trace", metavar="TRACE.jsonl")
    analyze.add_argument(
        "--json", action="store_true",
        help="emit the full analysis as canonical JSON",
    )
    analyze.add_argument(
        "--chrome-out", default=None, metavar="PATH",
        help="also export a Chrome/Perfetto trace-event JSON file "
        "(viewable at ui.perfetto.dev)",
    )
    analyze.add_argument(
        "--top", type=_positive_int, default=5,
        help="how many slowest requests/stragglers to report "
        "(positive integer, default 5)",
    )
    analyze.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on malformed lines or schema problems "
        "instead of skipping them",
    )

    postmortem = sub.add_parser(
        "postmortem", help="analyze a flight-recorder incident bundle"
    )
    postmortem.add_argument("bundle", metavar="BUNDLE.json[.gz]")
    postmortem.add_argument(
        "--json", action="store_true",
        help="emit the full postmortem as canonical JSON",
    )
    postmortem.add_argument(
        "--chrome-out", default=None, metavar="PATH",
        help="export the bundle as a Chrome/Perfetto trace with an "
        "incidents lane (.gz compresses)",
    )
    postmortem.add_argument(
        "--top", type=_positive_int, default=5,
        help="how many degraded critical paths to report "
        "(positive integer, default 5)",
    )

    explain_cmd = sub.add_parser(
        "explain",
        help="why is this replica here? — query a provenance ledger",
    )
    explain_cmd.add_argument("path", metavar="FILE_PATH")
    explain_cmd.add_argument(
        "--ledger", required=True, metavar="LEDGER.jsonl[.gz]",
        help="the ledger.jsonl.gz of an --obs-out directory",
    )
    explain_cmd.add_argument(
        "--json", action="store_true",
        help="emit the decision chains as canonical JSON",
    )

    validate_cmd = sub.add_parser(
        "validate", help="schema-check observability artefacts"
    )
    validate_cmd.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="artefact files (plain or .gz, any kind) or --obs-out "
        "directories",
    )

    sub.add_parser("list", help="list experiments and deployments")
    return parser


def _add_obs_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs-out", default=None, metavar="DIR",
        help="switch every observer on (trace, metrics, flight recorder, "
        "provenance ledger; on dfsio also --slo) and write the run's "
        "artefacts into DIR; check them with `repro validate DIR`",
    )


def _capture(args: argparse.Namespace):
    """The capture scope ``--obs-out`` asks for; without the flag, a
    scope that does nothing and yields ``None``."""
    return ObsCapture() if args.obs_out else contextlib.nullcontext()


def _write_capture(capture: ObsCapture | None, args, alerts=None) -> None:
    if capture is not None:
        capture.write(args.obs_out, alerts)
        print(
            f"observability artefacts of {len(capture.captured)} "
            f"deployment(s) written to {args.obs_out}"
        )


def _parse_vector(text: str) -> ReplicationVector:
    """argparse type for ``--vector M,S,H[,R[,U]]``."""
    counts = [int(part) for part in text.split(",")]
    counts += [0] * (5 - len(counts))
    try:
        return ReplicationVector.from_counts(counts)
    except ReplicationVectorError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def cmd_experiment(args: argparse.Namespace) -> int:
    module = ALL_EXPERIMENTS[args.name]
    run_kwargs = {"scale": args.scale, "seed": args.seed}
    if args.policy is not None:
        if "policy" not in inspect.signature(module.run).parameters:
            print(
                f"error: experiment {args.name!r} does not take --policy",
                file=sys.stderr,
            )
            return 2
        run_kwargs["policy"] = args.policy
    # Experiments build their deployments internally (often several per
    # run); the capture scope switches observability on in each one.
    with _capture(args) as capture:
        result = module.run(**run_kwargs)
    print(result.format())
    _write_capture(capture, args)
    return 0


def cmd_dfsio(args: argparse.Namespace) -> int:
    spec = paper_cluster_spec(racks=args.racks, seed=args.seed)
    with _capture(args) as capture:
        fs = build_deployment(args.deployment, spec=spec, seed=args.seed)
    monitors: tuple = ()
    slo_monitor = None
    if args.slo or capture is not None:
        fs.obs.enable()
        slo_monitor = SloMonitor(fs, rules=default_read_rules())
        monitors = (slo_monitor, HealthMonitor(fs, sink=slo_monitor.sink))
    bench = Dfsio(fs, monitors=monitors)
    write = bench.write(
        args.size, parallelism=args.parallelism, rep_vector=args.vector
    )
    read = bench.read(parallelism=args.parallelism)
    rows = [
        ["write", write.throughput_per_worker_mbs, write.avg_task_rate_mbs,
         write.elapsed],
        ["read", read.throughput_per_worker_mbs, read.avg_task_rate_mbs,
         read.elapsed],
    ]
    print(
        format_table(
            ["phase", "MB/s per worker", "MB/s per task", "elapsed (sim s)"],
            rows,
            title=(
                f"DFSIO {format_bytes(args.size)} d={args.parallelism} "
                f"deployment={args.deployment}"
            ),
        )
    )
    if read.locality_fraction is not None:
        print(f"node-local read fraction: {read.locality_fraction:.2f}")
    if slo_monitor is not None:
        print(format_report(slo_monitor.watch_summary()))
        # --obs-out implies the monitors, so a capture always has alerts.
        _write_capture(capture, args, alerts=slo_monitor.sink.timeline)
    return 0


def cmd_slive(args: argparse.Namespace) -> int:
    # S-Live hands its own bundle to the capture; it is engine-less, so
    # with no timer to close incidents, writing the capture seals any
    # still open.
    with _capture(args) as capture:
        result = table3_namespace.run(
            scale=args.ops / table3_namespace.FULL_SCALE_OPS, seed=args.seed
        )
    print(result.format())
    _write_capture(capture, args)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    spec = paper_cluster_spec(racks=args.racks, workers=args.workers)
    with ObsCapture():
        # Observability is on from construction, so the metrics snapshot
        # covers anything instrumented during cluster/FS bring-up.
        fs = build_deployment(args.deployment, spec=spec)
    # One manual sweep of a throwaway monitor, so health state is
    # inspectable without a live monitor attached to the run.
    monitor = HealthMonitor(fs)
    monitor.tick()
    sweep = monitor.last_sweep
    data = {
        "deployment": args.deployment,
        **tier_report_data(fs),
        "engine": {"events_processed": fs.engine.events_processed},
        "metrics": fs.obs.metrics.snapshot(),
        "watch": {
            "healthy": not any(s["violations"] for s in sweep.values()),
            "invariants": {
                check: s["violations"] for check, s in sweep.items()
            },
        },
        "health": monitor.report(),
    }
    _print(data, args)
    return 0


def _print(report: dict, args: argparse.Namespace) -> None:
    """A verb's report: canonical JSON under ``--json``, else text."""
    if args.json:
        sys.stdout.write(canonical_json(report, indent=2))
    else:
        print(format_report(report))


def cmd_analyze(args: argparse.Namespace) -> int:
    trace = read_trace_file(
        args.trace, on_error="raise" if args.strict else "skip"
    )
    if args.strict and trace.problems:
        raise ArtifactError(
            "\n".join(f"{args.trace}: {p}" for p in trace.problems)
        )
    _print(analyze_trace(trace, top=args.top), args)
    if args.chrome_out:
        write_chrome_trace(trace.records, args.chrome_out)
        if not args.json:
            print(f"chrome trace written to {args.chrome_out} "
                  "(load at ui.perfetto.dev)")
    return 0


def cmd_postmortem(args: argparse.Namespace) -> int:
    bundle = load(args.bundle, "bundle")
    report = postmortem_report(bundle, top=args.top)
    _print(report, args)
    if args.chrome_out:
        write_chrome_trace(
            bundle_trace_records(bundle, report["timeline"]),
            args.chrome_out,
        )
        if not args.json:
            print(f"chrome trace written to {args.chrome_out} "
                  "(load at ui.perfetto.dev)")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    _print(explain(load(args.ledger, "ledger"), args.path), args)
    return 0


#: What `repro validate DIR` looks at; metrics.prom is Prometheus text,
#: not a JSON artefact, and is left to Prometheus tooling.
_ARTEFACT_SUFFIXES = (".json", ".jsonl", ".json.gz", ".jsonl.gz")


def cmd_validate(args: argparse.Namespace) -> int:
    files: list[str] = []
    for path in args.paths:
        if os.path.isdir(path):
            files.extend(
                os.path.join(root, name)
                for root, _dirs, names in sorted(os.walk(path))
                for name in sorted(names)
                if name.endswith(_ARTEFACT_SUFFIXES)
            )
        else:
            files.append(path)
    if not files:
        print("error: no artefact files found", file=sys.stderr)
        return 1
    failed = False
    for path in files:
        try:
            kind, payload = read_artifact(path)
            if kind is not None:
                problems = validate(kind, payload)
            else:  # an empty stream is fine; anything else is unknown
                problems = ["not an artefact repro writes"] if payload else []
            report = [f"{path}: {problem}" for problem in problems]
        except ArtifactError as exc:  # names the path itself
            report = [str(exc)]
        if not report:
            size = (
                f"{len(payload)} record(s)" if isinstance(payload, list)
                else SCHEMAS[kind].what
            )
            report = [f"{path}: {kind or 'empty stream'}, {size}, ok"]
        else:
            failed = True
        print("\n".join(report))
    return 1 if failed else 0


def cmd_list(_args: argparse.Namespace) -> int:
    print("experiments:", ", ".join(sorted(ALL_EXPERIMENTS)))
    print("deployments:", ", ".join(DEPLOYMENTS))
    return 0


_COMMANDS = {
    "experiment": cmd_experiment,
    "dfsio": cmd_dfsio,
    "slive": cmd_slive,
    "report": cmd_report,
    "analyze": cmd_analyze,
    "postmortem": cmd_postmortem,
    "explain": cmd_explain,
    "validate": cmd_validate,
    "list": cmd_list,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ArtifactError as exc:
        # One exit for every unreadable, mislabelled or invalid input
        # artefact: a line per problem, status 1.
        for line in str(exc).splitlines():
            print(f"error: {line}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
