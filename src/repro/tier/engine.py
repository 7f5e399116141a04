"""The tiering engine: closes the metrics → decision → replication loop.

A :class:`TieringEngine` attaches to a running
:class:`~repro.fs.system.OctopusFileSystem` through the file system's
access listeners and is the one mechanism that watches opens and
rewrites replication vectors — the paper's §6 multi-level cache and the
automation loop of the follow-up paper alike: per-file
exponential-decay heat (:class:`~repro.tier.heat.HeatTracker`), tier
capacity/latency signals, and a pluggable pure
:class:`~repro.tier.policy.TieringPolicy` that issues replication-
vector changes through the public ``set_replication`` path. The
replication manager then moves the actual replicas asynchronously,
exactly as it would for an application-issued vector change.

Safety properties the engine enforces regardless of policy:

* **Compare-and-set**: every vector change passes the vector observed
  at decision time as ``expected=``; if an application raced in between
  observation and application the change is dropped (counted in
  ``stats.conflicts``), never blindly overwritten.
* **Only its own replicas**: the engine demotes only memory replicas it
  promoted itself (tracked in ``_promoted``); application-pinned memory
  replicas are never stripped, and a demotion never drops the last
  replica of a file.
* **Byte-identical when idle**: a round that applies no actions emits
  no spans, events, or metric instruments, and observation reads
  existing metrics without creating any — so a disabled policy leaves
  every export byte-identical to a run without the engine (the
  differential suite's oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.replication_vector import UNSPECIFIED, ReplicationVector
from repro.errors import (
    ConfigurationError,
    FileSystemError,
    PlacementError,
    StaleVectorError,
)
from repro.sim.periodic import PeriodicProcess
from repro.tier.heat import HeatTracker
from repro.tier.policy import (
    DEMOTE,
    PROMOTE,
    FileObservation,
    ObservedState,
    StaticVectorPolicy,
    TierObservation,
    TieringAction,
    TieringPolicy,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.system import OctopusFileSystem

DEFAULT_INTERVAL = 10.0
DEFAULT_HALF_LIFE = 30.0


@dataclass
class TieringStats:
    rounds: int = 0
    actions: int = 0
    promotions: int = 0
    demotions: int = 0
    #: Actions dropped because the vector changed under us (CAS lost).
    conflicts: int = 0
    #: Actions dropped on file-system or placement errors.
    errors: int = 0
    #: Actions skipped as no-ops (already resident, nothing to demote).
    skipped: int = 0


@dataclass(frozen=True)
class Decision:
    """One applied/attempted action, kept for tests and debugging."""

    time: float
    action: TieringAction
    outcome: str  # "applied" | "conflict" | "error" | "skipped"
    detail: str = ""


class TieringEngine:
    """Periodic policy rounds over one file system."""

    def __init__(
        self,
        system: "OctopusFileSystem",
        policy: TieringPolicy | None = None,
        interval: float = DEFAULT_INTERVAL,
        half_life: float = DEFAULT_HALF_LIFE,
        memory_tier: str = "MEMORY",
        decision_log_limit: int = 1000,
        monitor=None,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("tiering interval must be positive")
        if memory_tier not in system.cluster.tiers:
            raise ConfigurationError(f"no tier named {memory_tier!r}")
        self.system = system
        self.policy = policy or StaticVectorPolicy()
        #: Optional :class:`repro.obs.slo.SloMonitor`; when set, each
        #: observation carries its live burn rates and firing alerts so
        #: policies can react to SLO pressure, not just heat.
        self.monitor = monitor
        self.interval = float(interval)
        self.memory_tier = memory_tier
        self.heat = HeatTracker(half_life)
        self.stats = TieringStats()
        self.decision_log: list[Decision] = []
        self.decision_log_limit = decision_log_limit
        #: path -> simulated time the engine added its memory replica.
        self._promoted: dict[str, float] = {}
        #: path -> simulated time the engine last removed one.
        self._last_demoted: dict[str, float] = {}
        self._attached = False
        self._periodic: PeriodicProcess | None = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> "TieringEngine":
        """Subscribe to access notifications (heat signal source)."""
        if self._attached:
            raise ConfigurationError("tiering engine already attached")
        self.system.access_listeners.append(self.on_access)
        self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.system.access_listeners.remove(self.on_access)
            self._attached = False

    def start(self) -> "TieringEngine":
        """Run policy rounds as a periodic engine process.

        Call :meth:`stop` before draining the engine with a bare
        ``engine.run()`` — same contract as ``fs.stop_services()``.
        """
        if self._periodic is not None and self._periodic.running:
            raise ConfigurationError("tiering engine already running")
        if not self._attached:
            self.attach()
        self._periodic = PeriodicProcess(
            self.system.engine, self.run_round, self.interval, name="tiering"
        ).start()
        return self

    def stop(self) -> None:
        if self._periodic is not None:
            self._periodic.stop()

    @property
    def running(self) -> bool:
        return self._periodic is not None and self._periodic.running

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def on_access(self, path: str) -> None:
        self.heat.record(path, self.system.engine.now)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(self) -> ObservedState:
        """Assemble the frozen policy input for this round.

        Only the files a policy can act on are looked up: those hotter
        than its ``candidate_heat`` and the engine's own promotions.
        The colder rest of the tracker is neither shown to the policy
        nor checked against the namespace, so a deleted path that is
        neither hot nor promoted leaves the tracker through ``prune``
        rather than here; a candidate or promoted path that vanished is
        forgotten on the spot.

        Reads the namespace and metrics without side effects on either:
        the latency lookup uses the registry's non-creating ``find`` so
        observation never mints an instrument (that would break the
        differential byte-identity oracle).
        """
        now = self.system.engine.now
        candidate_heat = self.policy.candidate_heat
        files = []
        for path, (heat, last_access) in self.heat.snapshot(now).items():
            if heat <= candidate_heat and path not in self._promoted:
                continue
            master = self.system.master_for(path)
            try:
                status = master.get_status(path)
            except FileSystemError:
                self.heat.forget(path)
                self._promoted.pop(path, None)
                self._last_demoted.pop(path, None)
                continue
            if status.is_directory:
                self.heat.forget(path)
                continue
            memory_replicas = status.rep_vector.count(self.memory_tier)
            if path in self._promoted and memory_replicas == 0:
                # An application rewrote the vector out from under us;
                # the replica is no longer ours to manage.
                self._promoted.pop(path)
            files.append(
                FileObservation(
                    path=path,
                    heat=heat,
                    length=status.length,
                    memory_replicas=memory_replicas,
                    policy_memory_replicas=1 if path in self._promoted else 0,
                    under_construction=status.under_construction,
                    last_promoted=self._promoted.get(path, -math.inf),
                    last_demoted=self._last_demoted.get(path, -math.inf),
                    last_access=last_access,
                )
            )
        tiers = tuple(
            TierObservation(
                name=stats.tier_name,
                total_capacity=stats.total_capacity,
                used=stats.used,
                remaining=stats.remaining,
                avg_read_throughput=stats.avg_read_throughput,
                avg_write_throughput=stats.avg_write_throughput,
                active_connections=stats.active_connections,
            )
            for stats in self.system.master.get_storage_tier_reports()
        )
        read_p99 = None
        histogram = self.system.obs.metrics.find("histogram", "block_read_seconds")
        if histogram is not None:
            read_p99 = histogram.quantile(0.99)
        burn_rates: tuple = ()
        alerts_firing: tuple = ()
        if self.monitor is not None:
            burn_rates = self.monitor.burn_snapshot()
            alerts_firing = self.monitor.firing()
        return ObservedState(
            now=now,
            half_life=self.heat.half_life,
            files=tuple(files),
            tiers=tiers,
            read_p99=read_p99,
            burn_rates=burn_rates,
            alerts_firing=alerts_firing,
        )

    # ------------------------------------------------------------------
    # The policy round
    # ------------------------------------------------------------------
    def run_round(self) -> list[Decision]:
        """One observe → decide → apply pass; returns its decisions."""
        try:
            return self._run_round()
        except Exception as exc:
            # The policy engine is itself an actor that can cause
            # incidents; a crashed round is flight-recorder material.
            self.system.obs.recorder.on_exception("tiering-engine", exc)
            raise

    def _run_round(self) -> list[Decision]:
        state = self.observe()
        actions = self.policy.decide(state)
        self.stats.rounds += 1
        decisions = [self._apply(action, state.now) for action in actions]
        applied = [d for d in decisions if d.outcome == "applied"]
        obs = self.system.obs
        if obs.enabled and decisions:
            # Emission is gated on the round having *decided something*:
            # an idle round (the disabled/static policy, every round of
            # an infinite-hysteresis policy) leaves the exports
            # untouched, which the differential suite depends on.
            span = obs.tracer.start_span(
                "tier.round",
                policy=self.policy.name,
                decided=len(decisions),
                applied=len(applied),
            )
            ledger_on = obs.ledger.enabled
            for decision in decisions:
                span.event(
                    f"tier.{decision.action.kind}",
                    path=decision.action.path,
                    tier=decision.action.tier,
                    heat=round(decision.action.heat, 6),
                    outcome=decision.outcome,
                )
                obs.metrics.counter(
                    "tier_actions_total",
                    kind=decision.action.kind,
                    outcome=decision.outcome,
                ).inc()
                if decision.outcome == "conflict":
                    # Lost CAS races are attributable, not silent.
                    obs.metrics.counter("tiering_cas_conflicts_total").inc()
                if ledger_on:
                    obs.ledger.on_tiering(
                        path=decision.action.path,
                        kind=decision.action.kind,
                        tier=decision.action.tier,
                        heat=decision.action.heat,
                        outcome=decision.outcome,
                        detail=decision.detail,
                        policy=self.policy,
                        round_number=self.stats.rounds,
                        span=span,
                    )
            obs.metrics.gauge("tier_policy_cached_files").set(len(self._promoted))
            span.end()
        self.heat.prune(state.now, keep=self._promoted)
        return decisions

    def run_rounds(self, rounds: int) -> list[Decision]:
        """Run ``rounds`` back-to-back policy rounds (tests/scripts)."""
        decisions = []
        for _ in range(rounds):
            decisions.extend(self.run_round())
        return decisions

    # ------------------------------------------------------------------
    # Applying actions
    # ------------------------------------------------------------------
    def _record(self, decision: Decision) -> Decision:
        self.stats.actions += 1
        if decision.outcome == "applied":
            if decision.action.kind == PROMOTE:
                self.stats.promotions += 1
            else:
                self.stats.demotions += 1
        elif decision.outcome == "conflict":
            self.stats.conflicts += 1
        elif decision.outcome == "error":
            self.stats.errors += 1
        else:
            self.stats.skipped += 1
        self.decision_log.append(decision)
        if len(self.decision_log) > self.decision_log_limit:
            del self.decision_log[: -self.decision_log_limit]
        return decision

    def _apply(self, action: TieringAction, now: float) -> Decision:
        try:
            master = self.system.master_for(action.path)
            observed = master.get_status(action.path).rep_vector
            if action.kind == PROMOTE:
                return self._record(self._promote(action, observed, now))
            if action.kind == DEMOTE:
                return self._record(self._demote(action, observed, now))
            return self._record(
                Decision(now, action, "error", f"unknown kind {action.kind!r}")
            )
        except StaleVectorError as exc:
            return self._record(Decision(now, action, "conflict", str(exc)))
        except (FileSystemError, PlacementError) as exc:
            return self._record(Decision(now, action, "error", str(exc)))

    def _promote(
        self, action: TieringAction, observed: ReplicationVector, now: float
    ) -> Decision:
        if observed.count(action.tier) >= 1:
            # Already resident (application pin or a racing promotion):
            # nothing to move, and not ours to remove later.
            return Decision(now, action, "skipped", "already resident")
        self.system.client().set_replication(
            action.path, observed.add(action.tier), expected=observed
        )
        self._promoted[action.path] = now
        return Decision(now, action, "applied")

    def _demote(
        self, action: TieringAction, observed: ReplicationVector, now: float
    ) -> Decision:
        if action.path not in self._promoted:
            return Decision(now, action, "skipped", "not promoted by policy")
        if observed.count(action.tier) < 1:
            self._promoted.pop(action.path)
            return Decision(now, action, "skipped", "replica already gone")
        demoted = observed.add(action.tier, -1)
        if demoted.total_replicas == 0:
            # Never leave a file with no replicas at all.
            demoted = demoted.add(UNSPECIFIED)
        self.system.client().set_replication(
            action.path, demoted, expected=observed
        )
        self._promoted.pop(action.path)
        self._last_demoted[action.path] = now
        return Decision(now, action, "applied")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TieringEngine policy={self.policy.name!r} "
            f"tracked={len(self.heat)} cached={len(self._promoted)}>"
        )
