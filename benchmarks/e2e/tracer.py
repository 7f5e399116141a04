"""Outside-in layer tracer for the end-to-end benchmark.

The traced repeat of a workload must say where its *host* time went,
layer by layer, without any file under ``src/`` changing. So the trace
is recorded from here: :meth:`LayerTracer.install` replaces the public
entry points of each layer with timing wrappers (``setattr`` on the
class or module, restored by :meth:`LayerTracer.uninstall`), generator
``*_proc`` methods get a proxy that times every resumption, and
``Process._resume`` is wrapped so a generator body is charged to the
module its code lives in.

Spans live in five parallel arrays (name id, parent span, causing
engine step, start, end) and are only turned into numbers after the
run: a span's *self* time is its duration minus the durations of its
direct children, and a layer's ``self_s`` is the sum over its spans. A
span's layer is its name without the last component
(``fs.namespace.rename`` belongs to ``fs.namespace``).
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

#: (module, class, method) -> span name. Ordinary methods.
METHOD_SPANS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "SimulationEngine", "step", "sim.engine.step"),
    ("repro.sim.flows", "FlowScheduler", "start_flow", "sim.flows.start_flow"),
    ("repro.sim.flows", "FlowScheduler", "cancel_flow", "sim.flows.cancel_flow"),
    ("repro.sim.flows", "FlowScheduler", "refresh", "sim.flows.refresh"),
    ("repro.sim.flows", "FlowScheduler", "set_capacity", "sim.flows.set_capacity"),
    # The scheduler's own engine callback: the step that fires it is a
    # flow-layer step, not dispatch.
    ("repro.sim.flows", "FlowScheduler", "_on_wakeup", "sim.flows.wakeup"),
    ("repro.core.placement", "MoopPlacementPolicy", "choose_targets", "core.placement.choose_targets"),
    ("repro.core.placement", "SingleObjectivePolicy", "choose_targets", "core.placement.choose_targets"),
    ("repro.core.placement", "RuleBasedPolicy", "choose_targets", "core.placement.choose_targets"),
    ("repro.core.placement", "OriginalHdfsPolicy", "choose_targets", "core.placement.choose_targets"),
    ("repro.core.retrieval", "OctopusRetrievalPolicy", "order_replicas", "core.retrieval.order_replicas"),
    ("repro.core.retrieval", "HdfsLocalityRetrievalPolicy", "order_replicas", "core.retrieval.order_replicas"),
    ("repro.fs.namespace", "Namespace", "mkdir", "fs.namespace.mkdir"),
    ("repro.fs.namespace", "Namespace", "create_file", "fs.namespace.create_file"),
    ("repro.fs.namespace", "Namespace", "complete_file", "fs.namespace.complete_file"),
    ("repro.fs.namespace", "Namespace", "get_file", "fs.namespace.get_file"),
    ("repro.fs.namespace", "Namespace", "get_status", "fs.namespace.get_status"),
    ("repro.fs.namespace", "Namespace", "list_status", "fs.namespace.list_status"),
    ("repro.fs.namespace", "Namespace", "rename", "fs.namespace.rename"),
    ("repro.fs.namespace", "Namespace", "delete", "fs.namespace.delete"),
    ("repro.fs.namespace", "Namespace", "log_block", "fs.namespace.log_block"),
    ("repro.fs.namespace", "Namespace", "set_replication_vector", "fs.namespace.set_replication_vector"),
    ("repro.fs.master", "Master", "create_file", "fs.master.create_file"),
    ("repro.fs.master", "Master", "complete_file", "fs.master.complete_file"),
    ("repro.fs.master", "Master", "mkdir", "fs.master.mkdir"),
    ("repro.fs.master", "Master", "get_status", "fs.master.get_status"),
    ("repro.fs.master", "Master", "list_status", "fs.master.list_status"),
    ("repro.fs.master", "Master", "rename", "fs.master.rename"),
    ("repro.fs.master", "Master", "delete", "fs.master.delete"),
    ("repro.fs.master", "Master", "allocate_block", "fs.master.allocate_block"),
    ("repro.fs.master", "Master", "commit_block", "fs.master.commit_block"),
    ("repro.fs.master", "Master", "abort_block", "fs.master.abort_block"),
    ("repro.fs.master", "Master", "get_block_replicas", "fs.master.get_block_replicas"),
    ("repro.fs.master", "Master", "get_file_block_locations", "fs.master.get_file_block_locations"),
    ("repro.fs.master", "Master", "set_replication", "fs.master.set_replication"),
    ("repro.fs.master", "Master", "receive_heartbeat", "fs.master.receive_heartbeat"),
    ("repro.fs.master", "Master", "receive_block_report", "fs.master.receive_block_report"),
    ("repro.fs.master", "Master", "check_worker_liveness", "fs.master.check_worker_liveness"),
    ("repro.fs.master", "Master", "check_replication", "fs.master.check_replication"),
    ("repro.fs.master", "Master", "report_corrupt_replica", "fs.master.report_corrupt_replica"),
    ("repro.fs.master", "Master", "rebuild_from_block_reports", "fs.master.rebuild_from_block_reports"),
    ("repro.fs.backup", "BackupMaster", "_on_edit", "fs.backup.apply"),
    ("repro.tier.engine", "TieringEngine", "run_round", "tier.engine.run_round"),
    ("repro.tier.engine", "TieringEngine", "observe", "tier.engine.observe"),
    ("repro.tier.engine", "TieringEngine", "on_access", "tier.engine.on_access"),
    ("repro.tier.heat", "HeatTracker", "record", "tier.heat.record"),
    ("repro.tier.heat", "HeatTracker", "snapshot", "tier.heat.snapshot"),
    ("repro.tier.heat", "HeatTracker", "prune", "tier.heat.prune"),
    ("repro.tier.policy", "DecayHeatPolicy", "decide", "tier.policy.decide"),
    ("repro.obs.tracing", "Tracer", "start_span", "obs.tracer.start_span"),
    ("repro.obs.tracing", "Tracer", "event", "obs.tracer.event"),
    ("repro.obs.tracing", "Span", "end", "obs.tracer.span_end"),
    ("repro.obs.tracing", "Span", "annotate", "obs.tracer.span_annotate"),
    ("repro.obs.tracing", "Span", "event", "obs.tracer.span_event"),
    ("repro.obs.registry", "MetricsRegistry", "counter", "obs.metrics.counter"),
    ("repro.obs.registry", "MetricsRegistry", "gauge", "obs.metrics.gauge"),
    ("repro.obs.registry", "MetricsRegistry", "histogram", "obs.metrics.histogram"),
    ("repro.obs.registry", "MetricsRegistry", "timeseries", "obs.metrics.timeseries"),
    ("repro.obs.registry", "Counter", "inc", "obs.metrics.inc"),
    ("repro.obs.registry", "Gauge", "set", "obs.metrics.set"),
    ("repro.obs.registry", "Histogram", "observe", "obs.metrics.observe"),
    ("repro.obs.registry", "TimeSeries", "sample", "obs.metrics.sample"),
    ("repro.obs.recorder", "FlightRecorder", "_on_trace_record", "obs.recorder.on_trace_record"),
    ("repro.obs.recorder", "FlightRecorder", "_on_metric", "obs.recorder.on_metric"),
    ("repro.obs.recorder", "FlightRecorder", "on_fault", "obs.recorder.on_fault"),
    ("repro.obs.recorder", "FlightRecorder", "on_alert", "obs.recorder.on_alert"),
    ("repro.obs.recorder", "FlightRecorder", "on_health", "obs.recorder.on_health"),
    ("repro.obs.recorder", "FlightRecorder", "on_decision", "obs.recorder.on_decision"),
    ("repro.obs.recorder", "FlightRecorder", "flush", "obs.recorder.flush"),
    ("repro.obs.provenance", "ProvenanceLedger", "on_placement", "obs.ledger.on_placement"),
    ("repro.obs.provenance", "ProvenanceLedger", "on_repair", "obs.ledger.on_repair"),
    ("repro.obs.provenance", "ProvenanceLedger", "on_repair_outcome", "obs.ledger.on_repair_outcome"),
    ("repro.obs.provenance", "ProvenanceLedger", "on_tiering", "obs.ledger.on_tiering"),
    ("repro.obs.provenance", "ProvenanceLedger", "on_set_replication", "obs.ledger.on_set_replication"),
    ("repro.obs.provenance", "ProvenanceLedger", "on_replica_removed", "obs.ledger.on_replica_removed"),
    ("repro.obs.provenance", "ProvenanceLedger", "on_delete", "obs.ledger.on_delete"),
    ("repro.obs.provenance", "ProvenanceLedger", "on_fault", "obs.ledger.on_fault"),
    ("repro.obs.provenance", "ProvenanceLedger", "on_liveness", "obs.ledger.on_liveness"),
    ("repro.obs.slo", "SloMonitor", "tick", "obs.monitor.slo_tick"),
    ("repro.obs.health", "HealthMonitor", "tick", "obs.monitor.health_tick"),
)

#: Module-level functions: every ``repro`` module that imported the
#: name gets the wrapper too (``from repro.core.moop import ...``).
FUNCTION_SPANS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.moop", "place_replicas", "core.moop.place_replicas"),
    ("repro.core.moop", "solve_moop", "core.moop.solve_moop"),
    ("repro.core.replication", "analyze_block", "core.replication.analyze_block"),
)

#: Generator methods: one span per resumption.
GENERATOR_SPANS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.fs.streams", "FSDataOutputStream", "write_proc", "fs.streams.write"),
    ("repro.fs.streams", "FSDataOutputStream", "write_size_proc", "fs.streams.write"),
    ("repro.fs.streams", "FSDataOutputStream", "close_proc", "fs.streams.close"),
    ("repro.fs.streams", "FSDataInputStream", "read_proc", "fs.streams.read"),
)


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class NullTracer:
    """What workloads hold in untraced repeats: spans cost nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


NULL_TRACER = NullTracer()


class LayerTracer:
    """Records spans around layer entry points for one traced repeat."""

    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.cause = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]
        #: Engine steps taken so far: the ``cause`` of every span.
        self.steps = 0
        #: High-water marks sampled by a few wrappers (heap length,
        #: active flows, block-map size, tracked heat entries).
        self.peaks: dict[str, float] = {}
        #: ``rate_computations`` per flow scheduler seen, by id().
        self._rate_computations: dict[int, int] = {}
        self._rate_baseline: dict[int, int] = {}
        self.repairs_scheduled = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._code_names: dict[Any, int] = {}
        self.region: tuple[int, int, float, float] | None = None

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.cause.append(self.steps)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """An explicit span around a call the workload makes itself."""
        index = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(index)

    def note_max(self, key: str, value: float) -> None:
        if value > self.peaks.get(key, 0.0):
            self.peaks[key] = value

    @contextmanager
    def timed_region(self) -> Iterator[None]:
        """Mark the part of the trace the per-layer numbers come from."""
        first = len(self.start)
        # Peaks and counters describe the region, not the set-up before it.
        self.peaks.clear()
        self.repairs_scheduled = 0
        self._rate_baseline = dict(self._rate_computations)
        began = time.perf_counter()
        try:
            yield
        finally:
            self.region = (first, len(self.start), began, time.perf_counter())

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        # _open/_close spelled out over closure locals: this wrapper runs
        # a few hundred thousand times in a traced repeat.
        nid = self._intern(name)
        name_id, parent, cause, start, end = (
            self.name_id, self.parent, self.cause, self.start, self.end,
        )
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            cause.append(tracer.steps)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(args[0], result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _wrap_generator(self, fn: Callable, name: str) -> Callable:
        nid = self._intern(name)
        tracer = self

        def proxy(*args, **kwargs):
            generator = fn(*args, **kwargs)
            value: Any = None
            thrown: BaseException | None = None
            while True:
                index = tracer._open(nid)
                try:
                    if thrown is not None:
                        pending, thrown = thrown, None
                        yielded = generator.throw(pending)
                    else:
                        yielded = generator.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer._close(index)
                try:
                    value = yield yielded
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded below
                    thrown, value = exc, None

        proxy.__wrapped__ = fn
        proxy.__name__ = getattr(fn, "__name__", "proxy")
        return proxy

    def _wrap_resume(self, fn: Callable) -> Callable:
        """``Process._resume``: charge a generator body to its module."""
        code_names = self._code_names
        tracer = self

        def resume(process, event):
            code = process._generator.gi_code
            nid = code_names.get(code)
            if nid is None:
                nid = code_names[code] = tracer._intern(_process_span_name(code))
            index = tracer._open(nid)
            try:
                return fn(process, event)
            finally:
                tracer._close(index)

        resume.__wrapped__ = fn
        return resume

    # ------------------------------------------------------------------
    # Probes (run after the timed call, outside its span)
    # ------------------------------------------------------------------
    def _after_step(self, engine, _result) -> None:
        self.steps += 1
        size = len(engine._heap)
        if size > self.peaks.get("heap", 0):
            self.peaks["heap"] = size

    def _after_flow_change(self, scheduler, _result) -> None:
        active = len(scheduler.active)
        if active > self.peaks.get("active_flows", 0):
            self.peaks["active_flows"] = active
        self._rate_computations[id(scheduler)] = scheduler.rate_computations

    def _after_allocate(self, master, _result) -> None:
        self.note_max("block_map", len(master.block_map))

    def _after_check_replication(self, master, processes) -> None:
        self.repairs_scheduled += len(processes)
        self.note_max("block_map", len(master.block_map))

    def _after_round(self, tiering, _result) -> None:
        self.note_max("heat_tracked", len(tiering.heat))

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "sim.engine.step": self._after_step,
            "sim.flows.start_flow": self._after_flow_change,
            "sim.flows.wakeup": self._after_flow_change,
            "sim.flows.cancel_flow": self._after_flow_change,
            "fs.master.allocate_block": self._after_allocate,
            "fs.master.check_replication": self._after_check_replication,
            "tier.engine.run_round": self._after_round,
        }
        for module_name, class_name, attr, name in METHOD_SPANS:
            owner = getattr(importlib.import_module(module_name), class_name)
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], name, after.get(name)))
        for module_name, class_name, attr, name in GENERATOR_SPANS:
            owner = getattr(importlib.import_module(module_name), class_name)
            self._patch(owner, attr, self._wrap_generator(owner.__dict__[attr], name))
        for module_name, attr, name in FUNCTION_SPANS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self._wrap(original, name)
            for module in list(sys.modules.values()):
                if (
                    module is not None
                    and getattr(module, "__name__", "").startswith("repro")
                    and module.__dict__.get(attr) is original
                ):
                    self._patch(module, attr, wrapped)
        process = importlib.import_module("repro.sim.engine").Process
        self._patch(process, "_resume", self._wrap_resume(process.__dict__["_resume"]))
        return self

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def rate_computations(self) -> int:
        """Rate assignments made inside the timed region, all schedulers."""
        baseline = self._rate_baseline
        return sum(
            value - baseline.get(key, 0) for key, value in self._rate_computations.items()
        )

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analyse(self) -> "TraceAnalysis":
        if self.region is None:
            raise RuntimeError("no timed region was recorded")
        return TraceAnalysis(self)

    def write(self, path: str) -> None:
        """Dump the raw spans of the timed region as gzip JSON."""
        if self.region is None:
            raise RuntimeError("no timed region was recorded")
        first, last, began, finished = self.region
        document = {
            "names": self.names,
            "region": {"start": began, "end": finished},
            "first_span": first,
            "name_id": self.name_id[first:last].tolist(),
            "parent": self.parent[first:last].tolist(),
            "cause": self.cause[first:last].tolist(),
            "start": self.start[first:last].tolist(),
            "end": self.end[first:last].tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _process_span_name(code) -> str:
    """``<layer>.proc`` for the module a process generator is defined in."""
    filename = code.co_filename.replace("\\", "/")
    marker = "/repro/"
    if marker in filename:
        module = filename.rsplit(marker, 1)[1].removesuffix(".py")
        return module.replace("/", ".") + ".proc"
    return "bench.driver.proc"


class TraceAnalysis:
    """Per-span-name aggregates over the timed region of one trace."""

    def __init__(self, tracer: LayerTracer) -> None:
        first, last, began, finished = tracer.region  # type: ignore[misc]
        self.names = tracer.names
        self.host_s = finished - began
        name_id = np.frombuffer(tracer.name_id, dtype=np.intc)[first:last]
        parent = np.frombuffer(tracer.parent, dtype=np.intc)[first:last] - first
        start = np.frombuffer(tracer.start, dtype=np.float64)[first:last]
        end = np.frombuffer(tracer.end, dtype=np.float64)[first:last]
        duration = end - start
        # A span opened before the region but closed inside it is the
        # parent of region spans yet not part of the region: treat its
        # children as roots.
        inside = parent >= 0
        child_time = np.zeros(len(duration))
        np.add.at(child_time, parent[inside], duration[inside])
        self._name_id = name_id
        self._duration = duration
        self_time = duration - child_time
        self.root_s = float(duration[~inside].sum())
        count = len(self.names)
        self.calls = np.bincount(name_id, minlength=count)
        self.self_s = np.bincount(name_id, weights=self_time, minlength=count)
        self.total_s = np.bincount(name_id, weights=duration, minlength=count)

    def _ids(self, prefix: str) -> list[int]:
        return [
            i for i, name in enumerate(self.names)
            if name == prefix or name.startswith(prefix + ".")
        ]

    def count(self, prefix: str) -> int:
        return int(sum(self.calls[i] for i in self._ids(prefix)))

    def self_time(self, *prefixes: str) -> float:
        ids = {i for prefix in prefixes for i in self._ids(prefix)}
        return float(sum(self.self_s[i] for i in ids))

    def total_time(self, name: str) -> float:
        return float(sum(self.total_s[i] for i in self._ids(name)))

    def quantile_us(self, name: str, q: float) -> float:
        """Quantile of the *durations* of spans called ``name``, in µs."""
        values = self._duration[np.isin(self._name_id, self._ids(name))]
        if len(values) == 0:
            return 0.0
        return float(np.quantile(values, q) * 1e6)

    def layer_split(self) -> dict[str, float]:
        """Self seconds per layer, every layer the trace saw."""
        split: dict[str, float] = {}
        for i, name in enumerate(self.names):
            if self.calls[i]:
                layer = layer_of(name)
                split[layer] = split.get(layer, 0.0) + float(self.self_s[i])
        return dict(sorted(split.items()))

    @property
    def unattributed_frac(self) -> float:
        return max(0.0, self.host_s - self.root_s) / self.host_s if self.host_s else 0.0
