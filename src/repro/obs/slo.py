"""Online SLOs: objectives, burn-rate alert rules, and the live monitor.

The offline analytics report what a run looked like after it ended;
this module watches a run *while it happens*. An :class:`SloMonitor`
subscribes to metric updates through
:meth:`repro.obs.registry.MetricsRegistry.watch`, folds every
observation into the sliding windows of :mod:`repro.obs.windows`, and
evaluates multi-window error-budget **burn-rate** rules (the Google SRE
workbook recipe) on a :class:`~repro.sim.periodic.PeriodicProcess`
tick. Alert state transitions become first-class, deterministically
timestamped records in a shared :class:`AlertSink` — exported to JSONL,
mirrored as ``slo.alert`` tracer events (so ``repro analyze`` can pair
them with the ``fault.*`` events that caused them and report detection
delay), and read back live through :meth:`SloMonitor.firing` and
:meth:`SloMonitor.watch_summary`.

Objectives come in two shapes:

* :class:`LatencySlo` — "p(target) of ``metric`` observations are ≤
  ``threshold`` seconds", optionally split by one label
  (``group_by="tier"`` tracks each storage tier separately). Every
  histogram observation is one good/bad event.
* :class:`AvailabilitySlo` — "at least ``target`` of operations
  succeed", fed by a success counter and a failure counter.

A :class:`BurnRateRule` fires when the error budget (``1 - target``)
burns at ≥ ``threshold`` × the sustainable rate over **both** a long
and a short window — the long window gives significance, the short one
makes the alert stop firing (and re-arm) quickly once the condition
clears.

Determinism contract, mirroring the tiering engine's idle-round
oracle: a monitor with **no rules** registers no watchers and emits
nothing — trace/metrics/Prometheus exports are byte-identical to a run
without the subsystem. With rules, alerts are emitted only on state
*transitions*, and every timestamp is simulation time, so a seeded
run's alert timeline is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigurationError
from repro.obs.windows import (
    DEFAULT_ALPHA,
    WindowedCounts,
    WindowedSketch,
    burn_rate,
)
from repro.sim.periodic import PeriodicProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.system import OctopusFileSystem

__all__ = [
    "LatencySlo",
    "AvailabilitySlo",
    "BurnRateRule",
    "AlertSink",
    "SloMonitor",
    "default_read_rules",
]


@dataclass(frozen=True)
class LatencySlo:
    """``target`` of ``metric`` observations must be ≤ ``threshold``.

    ``metric`` names a histogram; each observation above ``threshold``
    (simulated seconds) spends error budget. ``group_by`` optionally
    names one label whose values split the objective into independently
    tracked groups (e.g. ``"tier"``); instruments missing the label
    land in group ``""``.
    """

    name: str
    metric: str
    threshold: float
    target: float = 0.99
    group_by: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError(
                f"SLO target must be in (0, 1), got {self.target}"
            )
        if self.threshold <= 0:
            raise ConfigurationError("latency threshold must be positive")

    @property
    def budget(self) -> float:
        """The allowed error fraction (``1 - target``)."""
        return 1.0 - self.target


@dataclass(frozen=True)
class AvailabilitySlo:
    """At least ``target`` of operations must succeed.

    ``good_metric`` / ``error_metric`` name counters whose increments
    are success / failure events respectively (the repo's convention:
    ``blocks_read_total`` counts only successes,
    ``block_reads_failed_total`` only failures).
    """

    name: str
    good_metric: str
    error_metric: str
    target: float = 0.999
    group_by: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ConfigurationError(
                f"SLO target must be in (0, 1), got {self.target}"
            )

    @property
    def budget(self) -> float:
        return 1.0 - self.target


@dataclass(frozen=True)
class BurnRateRule:
    """Fire when the budget burns ≥ ``threshold``× over both windows.

    Burn rate is ``windowed error rate / error budget``: 1.0 spends the
    budget exactly; ``1 / budget`` means every event is an error. The
    rule fires when **both** the ``long_window`` and ``short_window``
    burn rates reach ``threshold`` and the long window holds at least
    ``min_samples`` events; it resolves as soon as either window drops
    below ``clear_threshold`` (default: ``threshold``). Detection delay
    is therefore bounded by ``short_window + tick interval`` plus the
    latency of the observations themselves — the alert cannot fire
    before enough bad events land in the short window.
    """

    slo: LatencySlo | AvailabilitySlo
    threshold: float = 10.0
    long_window: float = 60.0
    short_window: float = 5.0
    severity: str = "page"
    min_samples: int = 1
    clear_threshold: float | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ConfigurationError("burn threshold must be positive")
        if self.short_window > self.long_window:
            raise ConfigurationError(
                "short_window must not exceed long_window"
            )
        if self.min_samples < 1:
            raise ConfigurationError("min_samples must be >= 1")

    @property
    def rule_name(self) -> str:
        return self.name or f"{self.slo.name}:burn:{self.severity}"

    @property
    def clears_at(self) -> float:
        return (
            self.threshold
            if self.clear_threshold is None
            else self.clear_threshold
        )


class AlertSink:
    """The shared, ordered alert timeline all monitors append to.

    Every transition is appended as a JSON-serializable record and
    mirrored as a ``<source>.alert`` tracer event plus an
    ``alerts_total{alert, state}`` counter — but only on transitions, so
    a run in which nothing fires leaves the exports untouched.
    """

    def __init__(self, obs) -> None:
        self.obs = obs
        self.timeline: list[dict] = []

    def emit(
        self,
        source: str,
        name: str,
        state: str,
        severity: str,
        group: str = "",
        slo: str | None = None,
        **details,
    ) -> dict:
        record = {
            "kind": "alert",
            "source": source,
            "name": name,
            "state": state,
            "severity": severity,
            "group": group,
            "slo": slo,
            "time": self.obs.now(),
            "details": details,
        }
        self.timeline.append(record)
        obs = self.obs
        # The flight recorder sees every transition (and may open an
        # incident).
        if obs.recorder is not None:
            obs.recorder.on_alert(record)
        if obs.enabled:
            obs.tracer.event(
                f"{source}.alert",
                parent=None,
                alert=name,
                state=state,
                severity=severity,
                group=group,
                **details,
            )
            obs.metrics.counter("alerts_total", alert=name, state=state).inc()
        return record

    def firing(self) -> list[str]:
        """Names of alerts currently firing (sorted, with group suffix)."""
        state: dict[str, bool] = {}
        for record in self.timeline:
            key = record["name"] + (
                f"/{record['group']}" if record["group"] else ""
            )
            state[key] = record["state"] == "firing"
        return sorted(k for k, firing in state.items() if firing)


class _SeriesState:
    """Per-(SLO, group) sliding-window state."""

    __slots__ = ("counts", "sketch")

    def __init__(self, counts: WindowedCounts, sketch: WindowedSketch | None):
        self.counts = counts
        self.sketch = sketch


class SloMonitor:
    """Evaluate burn-rate rules live, on a periodic sim-time tick.

    Attach with :meth:`start` once observability is enabled; detach
    with :meth:`stop` before draining the engine with a bare
    ``engine.run()`` (the same contract as ``stop_services`` and the
    tiering engine). All rules are evaluated every ``interval``
    simulated seconds in deterministic (rule, group) order.
    """

    def __init__(
        self,
        system: "OctopusFileSystem | None" = None,
        rules: Iterable[BurnRateRule] = (),
        interval: float = 1.0,
        bucket_width: float | None = None,
        alpha: float = DEFAULT_ALPHA,
        sink: AlertSink | None = None,
        name: str = "slo-monitor",
        obs=None,
        clock=None,
    ) -> None:
        if system is not None:
            obs = system.obs
            engine = system.engine
            if clock is None:
                clock = lambda: engine.now  # noqa: E731
        elif obs is None:
            raise ConfigurationError(
                "SloMonitor needs a system or an explicit obs bundle"
            )
        self.system = system
        self.obs = obs
        #: An engine-less monitor gets ``obs``+``clock`` and is driven
        #: by explicit :meth:`tick` calls instead of :meth:`start`.
        self.clock = clock if clock is not None else obs.now
        self.rules = tuple(rules)
        if self.rules and not obs.enabled:
            raise ConfigurationError(
                "SloMonitor needs observability enabled to see metrics; "
                "call obs.enable() before constructing the monitor"
            )
        names = [rule.rule_name for rule in self.rules]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"duplicate rule names in {names}")
        self.interval = float(interval)
        self.alpha = alpha
        self.sink = sink if sink is not None else AlertSink(obs)
        self.name = name
        # Window bookkeeping must be finer than the smallest window it
        # feeds, and retain the largest.
        shortest = min(
            (rule.short_window for rule in self.rules), default=1.0
        )
        longest = max((rule.long_window for rule in self.rules), default=60.0)
        self.bucket_width = (
            float(bucket_width) if bucket_width is not None
            else min(self.interval, shortest)
        )
        if self.bucket_width > shortest:
            raise ConfigurationError(
                f"bucket_width {self.bucket_width} exceeds the shortest "
                f"rule window {shortest}"
            )
        self._retention = longest + self.bucket_width
        self._series: dict[tuple[str, str], _SeriesState] = {}
        self._slos: dict[str, LatencySlo | AvailabilitySlo] = {}
        self._firing: dict[tuple[str, str], bool] = {}
        self.ticks = 0
        self._periodic: PeriodicProcess | None = None
        self._watching = False
        if self.rules:
            self._register_watchers()
            self._watching = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._periodic is not None and self._periodic.running

    def start(self, initial_delay: float | None = None) -> "SloMonitor":
        if self.system is None:
            raise ConfigurationError(
                "an engine-less SloMonitor cannot start a periodic "
                "process; drive it with explicit tick() calls"
            )
        if self.running:
            raise ConfigurationError(f"monitor {self.name!r} already running")
        self._periodic = PeriodicProcess(
            self.system.engine,
            self.tick,
            self.interval,
            name=self.name,
            initial_delay=initial_delay,
        ).start()
        return self

    def stop(self) -> None:
        if self._periodic is not None:
            self._periodic.stop()
            self._periodic = None

    # ------------------------------------------------------------------
    # Ingest: registry watchers → sliding windows
    # ------------------------------------------------------------------
    def _register_watchers(self) -> None:
        metrics = self.obs.metrics
        for rule in self.rules:
            slo = rule.slo
            if slo.name in self._slos:
                if self._slos[slo.name] != slo:
                    raise ConfigurationError(
                        f"conflicting SLO definitions named {slo.name!r}"
                    )
                continue
            self._slos[slo.name] = slo
            if isinstance(slo, LatencySlo):
                metrics.watch(
                    "histogram", slo.metric, self._latency_watcher(slo)
                )
            else:
                metrics.watch(
                    "counter", slo.good_metric,
                    self._count_watcher(slo, bad=False),
                )
                metrics.watch(
                    "counter", slo.error_metric,
                    self._count_watcher(slo, bad=True),
                )

    def _group_of(self, slo, instrument) -> str:
        if slo.group_by is None:
            return ""
        for key, value in instrument.labels:
            if key == slo.group_by:
                return value
        return ""

    def _state(self, slo, group: str) -> _SeriesState:
        key = (slo.name, group)
        state = self._series.get(key)
        if state is None:
            clock = self.clock
            counts = WindowedCounts(clock, self.bucket_width, self._retention)
            sketch = (
                WindowedSketch(
                    clock, self.bucket_width, self._retention, self.alpha
                )
                if isinstance(slo, LatencySlo)
                else None
            )
            state = self._series[key] = _SeriesState(counts, sketch)
        return state

    def _latency_watcher(self, slo: LatencySlo):
        def on_observe(instrument, value: float) -> None:
            state = self._state(slo, self._group_of(slo, instrument))
            state.counts.record(bad=value > slo.threshold)
            state.sketch.observe(value)

        return on_observe

    def _count_watcher(self, slo: AvailabilitySlo, bad: bool):
        def on_inc(instrument, amount: float) -> None:
            if amount > 0:
                state = self._state(slo, self._group_of(slo, instrument))
                state.counts.record(bad=bad, count=amount)

        return on_inc

    # ------------------------------------------------------------------
    # Evaluate: burn-rate state machine
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Evaluate every rule against every group seen so far."""
        self.ticks += 1
        try:
            for rule in self.rules:
                slo = rule.slo
                groups = sorted(
                    group for name, group in self._series if name == slo.name
                )
                for group in groups:
                    self._evaluate(rule, group)
        except Exception as exc:
            recorder = self.obs.recorder
            if recorder is not None:
                recorder.on_exception(f"slo-monitor:{self.name}", exc)
            raise

    def _burns(
        self, rule: BurnRateRule, group: str
    ) -> tuple[float, float, float]:
        """``(burn_long, burn_short, samples_long)`` for one group."""
        state = self._series[(rule.slo.name, group)]
        budget = rule.slo.budget
        good, bad = state.counts.totals(rule.long_window)
        long_rate = bad / (good + bad) if good + bad else None
        burn_long = burn_rate(long_rate, budget)
        burn_short = burn_rate(
            state.counts.error_rate(rule.short_window), budget
        )
        return burn_long, burn_short, good + bad

    def _evaluate(self, rule: BurnRateRule, group: str) -> None:
        burn_long, burn_short, samples = self._burns(rule, group)
        key = (rule.rule_name, group)
        firing = self._firing.get(key, False)
        if not firing:
            if (
                samples >= rule.min_samples
                and burn_long >= rule.threshold
                and burn_short >= rule.threshold
            ):
                self._firing[key] = True
                self.sink.emit(
                    "slo",
                    rule.rule_name,
                    "firing",
                    rule.severity,
                    group=group,
                    slo=rule.slo.name,
                    burn_long=burn_long,
                    burn_short=burn_short,
                    burn_threshold=rule.threshold,
                    long_window=rule.long_window,
                    short_window=rule.short_window,
                )
        else:
            clears = rule.clears_at
            if burn_long < clears or burn_short < clears:
                self._firing[key] = False
                self.sink.emit(
                    "slo",
                    rule.rule_name,
                    "resolved",
                    rule.severity,
                    group=group,
                    slo=rule.slo.name,
                    burn_long=burn_long,
                    burn_short=burn_short,
                )

    # ------------------------------------------------------------------
    # Read side: reports and the CLI
    # ------------------------------------------------------------------
    def firing(self) -> tuple[str, ...]:
        """Currently firing alert keys (``name`` or ``name/group``)."""
        return tuple(
            name + (f"/{group}" if group else "")
            for (name, group), firing in sorted(self._firing.items())
            if firing
        )

    def watch_summary(self) -> dict:
        """The live-health overview rendered by ``report --json``."""
        slos = []
        for (slo_name, group), state in sorted(self._series.items()):
            slo = self._slos[slo_name]
            rules = [r for r in self.rules if r.slo.name == slo_name]
            longest = max(r.long_window for r in rules)
            good, bad = state.counts.totals(longest)
            entry: dict = {
                "slo": slo_name,
                "group": group,
                "window": longest,
                "events": good + bad,
                "errors": bad,
                "burn_rates": {
                    r.rule_name: self._burns(r, group)[0] for r in rules
                },
            }
            if state.sketch is not None:
                p99 = state.sketch.quantile(0.99, longest)
                entry["p99"] = p99
                entry["threshold"] = slo.threshold
            slos.append(entry)
        return {
            "ticks": self.ticks,
            "rules": len(self.rules),
            "alerts_firing": list(self.firing()),
            "alerts_emitted": len(
                [r for r in self.sink.timeline if r["source"] == "slo"]
            ),
            "slos": slos,
        }


def default_read_rules(
    latency_threshold: float = 0.5,
    latency_target: float = 0.95,
    availability_target: float = 0.999,
    burn_threshold: float = 10.0,
    long_window: float = 60.0,
    short_window: float = 5.0,
) -> tuple[BurnRateRule, ...]:
    """The stock rule set the CLI ``--slo`` flag enables.

    One per-tier read-latency SLO over ``tier_read_seconds`` and one
    cluster-wide read-availability SLO over ``blocks_read_total`` /
    ``block_reads_failed_total``, each guarded by a paired-window burn
    rule. Thresholds are deliberately loose; experiments that want
    tight bounds construct their own rules.
    """
    latency = LatencySlo(
        name="read-latency",
        metric="tier_read_seconds",
        threshold=latency_threshold,
        target=latency_target,
        group_by="tier",
    )
    availability = AvailabilitySlo(
        name="read-availability",
        good_metric="blocks_read_total",
        error_metric="block_reads_failed_total",
        target=availability_target,
    )
    return (
        BurnRateRule(
            latency,
            threshold=burn_threshold,
            long_window=long_window,
            short_window=short_window,
            severity="page",
        ),
        BurnRateRule(
            availability,
            threshold=burn_threshold,
            long_window=long_window,
            short_window=short_window,
            severity="page",
        ),
    )
