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
  no spans, events, or metric instruments, and observation reads only
  the namespace and the tier reports — so a disabled policy leaves
  every export byte-identical to a run without the engine (the
  differential suite's oracle).

The engine knows a file by its :class:`~repro.fs.inode.INodeFile`, not
its name: heat, ``_promoted`` and ``_last_demoted`` are all keyed by the
inode the namespace holds, so a renamed file keeps its heat and its
memory replica stays managed, and a file re-created under a dead one's
name starts cold. A path is derived — by one walk up the inode's
parents — only where an observation, action, trace event or ledger
record names the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.core.replication_vector import UNSPECIFIED
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
    MEMORY,
    PROMOTE,
    FileObservation,
    ObservedState,
    StaticVectorPolicy,
    TieringAction,
    TieringPolicy,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.inode import INodeFile
    from repro.fs.namespace import Namespace
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
        decision_log_limit: int = 1000,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("tiering interval must be positive")
        if MEMORY not in system.cluster.tiers:
            raise ConfigurationError(f"no {MEMORY} tier to cache files in")
        self.system = system
        self.policy = policy or StaticVectorPolicy()
        self.interval = float(interval)
        self.heat = HeatTracker(half_life)
        self.stats = TieringStats()
        self.decision_log: list[Decision] = []
        self.decision_log_limit = decision_log_limit
        #: The namespace whose inodes key the state below.
        self._namespace: "Namespace" = system.master.namespace
        #: file -> simulated time the engine added its memory replica.
        self._promoted: dict["INodeFile", float] = {}
        #: file -> simulated time the engine last removed one.
        self._last_demoted: dict["INodeFile", float] = {}
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
    def on_access(self, inode: "INodeFile") -> None:
        self.heat.record(inode, self.system.engine.now)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(self) -> ObservedState:
        """Assemble the frozen policy input for this round.

        Only the files a policy can act on are looked at: those hotter
        than its ``candidate_heat`` and the engine's own promotions,
        each read straight off its inode. The colder rest of the tracker
        is neither shown to the policy nor walked, so a deleted file
        that is neither hot nor promoted leaves the tracker through
        ``prune`` rather than here; a candidate or promoted one that is
        detached is forgotten on the spot. Observations are in path
        order.
        """
        namespace = self.system.master.namespace
        if namespace is not self._namespace:
            self._follow(namespace)
        now = self.system.engine.now
        candidate_heat = self.policy.candidate_heat
        promoted = self._promoted
        files = []
        for inode, (heat, last_access) in self.heat.snapshot(now).items():
            if heat <= candidate_heat and inode not in promoted:
                continue
            path = namespace.path_of(inode)
            if path is None:
                self.heat.forget(inode)
                promoted.pop(inode, None)
                self._last_demoted.pop(inode, None)
                continue
            memory_replicas = inode.rep_vector.count(MEMORY)
            if memory_replicas == 0:
                # An application rewrote the vector out from under us;
                # the replica is no longer ours to manage.
                promoted.pop(inode, None)
            files.append(
                FileObservation(
                    path=path,
                    heat=heat,
                    length=inode.length,
                    memory_replicas=memory_replicas,
                    policy_memory_replicas=1 if inode in promoted else 0,
                    under_construction=inode.under_construction,
                    last_promoted=promoted.get(inode, -math.inf),
                    last_demoted=self._last_demoted.get(inode, -math.inf),
                    last_access=last_access,
                )
            )
        files.sort(key=attrgetter("path"))
        return ObservedState(
            now=now,
            half_life=self.heat.half_life,
            files=tuple(files),
            tiers=tuple(self.system.master.get_storage_tier_reports()),
        )

    def _follow(self, namespace: "Namespace") -> None:
        """Move onto the namespace a failover swapped in.

        Its inodes are new objects. The engine's own promotions carry
        over by path, so their memory replicas stay managed. Heat and
        cooldown stamps are soft state, like block locations, and
        restart cold: the old image's inodes are detached from the new
        one and leave the tracker as a deleted file's do.
        """
        carried = {}
        for inode, stamp in self._promoted.items():
            path = self._namespace.path_of(inode)
            if path is None:
                continue
            try:
                successor = namespace.get_file(path)
            except FileSystemError:
                continue
            carried[successor] = stamp
            if successor not in self.heat:
                # Observed every round like any promotion: no heat, and
                # no access since the swap.
                self.heat.record(successor, -math.inf, weight=0.0)
        self._promoted = carried
        self._namespace = namespace

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
            recorder = self.system.obs.recorder
            if recorder is not None:
                recorder.on_exception("tiering-engine", exc)
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
            ledger = obs.ledger
            for decision in decisions:
                span.event(
                    f"tier.{decision.action.kind}",
                    path=decision.action.path,
                    tier=decision.action.tier,
                    heat=round(decision.action.heat, 6),
                    outcome=decision.outcome,
                )
                if ledger is not None:
                    ledger.on_tiering(
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
        for inode in self.heat.prune(state.now, keep=self._promoted):
            # ~20 half-lives cold: far past the default one-half-life
            # cooldown the stamp gates.
            self._last_demoted.pop(inode, None)
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
        if action.kind not in (PROMOTE, DEMOTE) or action.tier != MEMORY:
            return self._record(
                Decision(
                    now, action, "error",
                    f"cannot {action.kind} to {action.tier!r}",
                )
            )
        move = self._promote if action.kind == PROMOTE else self._demote
        try:
            inode = self._namespace.get_file(action.path)
            return self._record(move(action, inode, now))
        except StaleVectorError as exc:
            return self._record(Decision(now, action, "conflict", str(exc)))
        except (FileSystemError, PlacementError) as exc:
            return self._record(Decision(now, action, "error", str(exc)))

    def _promote(
        self, action: TieringAction, inode: "INodeFile", now: float
    ) -> Decision:
        observed = inode.rep_vector
        if observed.count(MEMORY) >= 1:
            # Already resident (application pin or a racing promotion):
            # nothing to move, and not ours to remove later.
            return Decision(now, action, "skipped", "already resident")
        self.system.client().set_replication(
            action.path, observed.add(MEMORY), expected=observed
        )
        self._promoted[inode] = now
        return Decision(now, action, "applied")

    def _demote(
        self, action: TieringAction, inode: "INodeFile", now: float
    ) -> Decision:
        if inode not in self._promoted:
            return Decision(now, action, "skipped", "not promoted by policy")
        observed = inode.rep_vector
        if observed.count(MEMORY) < 1:
            del self._promoted[inode]
            return Decision(now, action, "skipped", "replica already gone")
        demoted = observed.add(MEMORY, -1)
        if demoted.total_replicas == 0:
            # Never leave a file with no replicas at all.
            demoted = demoted.add(UNSPECIFIED)
        self.system.client().set_replication(
            action.path, demoted, expected=observed
        )
        del self._promoted[inode]
        self._last_demoted[inode] = now
        return Decision(now, action, "applied")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TieringEngine policy={self.policy.name!r} "
            f"tracked={len(self.heat)} cached={len(self._promoted)}>"
        )
