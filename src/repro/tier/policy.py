"""Tiering policies: pure decisions over an observed heat state.

The policy layer is deliberately split from the engine that hosts it
(:mod:`repro.tier.engine`). A :class:`TieringPolicy` is a *pure
function* from an :class:`ObservedState` — the frozen snapshot the
engine assembles each round from the heat tracker, the namespace, and
the tier reports — to a list of :class:`TieringAction`. Policies hold
no mutable state of their own; all hysteresis memory (when was this
file last promoted or demoted?) lives *in the state*, maintained by the
engine. That split is what the property-test harness leans on: the same
state must always yield the same actions, and invariants like "the
movement budget is never exceeded" or "no file is promoted and demoted
within one half-life" can be checked against the state alone.

Three policies ship:

* :class:`StaticVectorPolicy` — the no-op baseline. Files keep whatever
  vector the application gave them; the differential suite proves that
  running the engine with this policy leaves metrics and trace exports
  byte-identical to not running the engine at all.
* :class:`DecayHeatPolicy` — the online policy from the automation
  paper's mold: promote files whose exponential-decay heat crosses
  ``promote_heat``, demote policy-cached files that cooled below
  ``demote_heat``, with promotion/demotion hysteresis (``min_residency``
  and ``cooldown``, both defaulting to one heat half-life) and a
  per-round ``movement_budget`` so tier bandwidth is never swamped.
* :class:`BudgetedCachePolicy` — the paper's §6 multi-level cache: the
  memory tier as a byte-budgeted cache of the files the policy itself
  promoted, filled after N accesses and evicted in LRU or LFU order.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

PROMOTE = "promote"
DEMOTE = "demote"


@dataclass(frozen=True)
class TieringAction:
    """One replication-vector change a policy wants applied."""

    path: str
    kind: str  # PROMOTE or DEMOTE
    tier: str
    heat: float


@dataclass(frozen=True)
class FileObservation:
    """What one round knows about one tracked file."""

    path: str
    heat: float
    length: int
    memory_replicas: int  # total replicas in the memory tier
    policy_memory_replicas: int  # of those, how many this engine added
    under_construction: bool = False
    #: Simulated time of the engine's last promotion/demotion of this
    #: file; -inf when it never happened (so hysteresis gates pass).
    last_promoted: float = -math.inf
    last_demoted: float = -math.inf
    #: Simulated time of the file's latest open (what LRU orders by).
    last_access: float = -math.inf


@dataclass(frozen=True)
class TierObservation:
    """Capacity and load of one storage tier, from the tier reports."""

    name: str
    total_capacity: int
    used: int
    remaining: int
    avg_read_throughput: float = 0.0
    avg_write_throughput: float = 0.0
    active_connections: int = 0


@dataclass(frozen=True)
class ObservedState:
    """The full, frozen input of one policy round."""

    now: float
    half_life: float
    files: tuple[FileObservation, ...] = ()
    tiers: tuple[TierObservation, ...] = ()
    #: p99 of ``block_read_seconds`` at observation time (None when the
    #: metrics registry is disabled or saw no reads yet).
    read_p99: float | None = None
    #: Long-window error-budget burn rates from an attached
    #: :class:`repro.obs.slo.SloMonitor` — ``("rule" or "rule/group",
    #: burn)`` pairs in deterministic order; empty with no monitor.
    burn_rates: tuple[tuple[str, float], ...] = ()
    #: Alert keys currently firing on the attached monitor(s).
    alerts_firing: tuple[str, ...] = ()

    def tier(self, name: str) -> TierObservation | None:
        for tier in self.tiers:
            if tier.name == name:
                return tier
        return None

    def burn_rate(self, rule: str) -> float | None:
        """The burn for one rule key, or ``None`` if not tracked."""
        for key, burn in self.burn_rates:
            if key == rule:
                return burn
        return None


class TieringPolicy(ABC):
    """A pure decision function over one observed state."""

    name = "abstract"

    @property
    def candidate_heat(self) -> float:
        """The heat a file must exceed before ``decide`` may promote it.

        The engine shows a policy only files hotter than this, plus the
        files the engine itself promoted. The default observes every
        tracked file.
        """
        return -math.inf

    @abstractmethod
    def decide(self, state: ObservedState) -> list[TieringAction]:
        """Actions to apply this round. MUST be pure: no mutation of
        ``self`` or ``state``, same state → same actions."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class StaticVectorPolicy(TieringPolicy):
    """The baseline: never touch any vector."""

    name = "static"

    def decide(self, state: ObservedState) -> list[TieringAction]:
        return []


@dataclass(frozen=True)
class DecayHeatPolicy(TieringPolicy):
    """Decay-heat thresholds with hysteresis and a movement budget.

    ``promote_heat`` / ``demote_heat`` are the two thresholds of the
    hysteresis band: a file must be strictly hotter than the first to
    gain a memory replica and at least as cold as the second to lose
    the one the policy added. Keeping ``demote_heat`` well below
    ``promote_heat`` is the first anti-flapping defence; the second is
    temporal: a freshly promoted file is immune to demotion for
    ``min_residency`` simulated seconds and a freshly demoted one
    cannot re-promote within ``cooldown``. Both default to one heat
    half-life — the scale on which heat itself changes — which is
    exactly the invariant the property suite checks ("no file promoted
    and demoted within one half-life"). Setting ``promote_heat`` to
    ``math.inf`` yields a policy that can never act: the differential
    suite's infinite-hysteresis oracle.

    ``movement_budget`` caps actions per round so replica movement
    never swamps tier bandwidth; coldest demotions are preferred, then
    hottest promotions, so the budget goes where it pays most.
    ``headroom`` reserves a fraction of memory-tier capacity the policy
    will not fill (placement needs slack for application writes).
    """

    promote_heat: float = 2.0
    demote_heat: float = 0.5
    movement_budget: int = 4
    min_residency: float | None = None
    cooldown: float | None = None
    memory_tier: str = "MEMORY"
    headroom: float = 0.1
    name: str = field(default="decay-heat", init=False)

    def __post_init__(self) -> None:
        if self.demote_heat > self.promote_heat:
            raise ConfigurationError(
                "demote_heat must not exceed promote_heat "
                f"({self.demote_heat} > {self.promote_heat})"
            )
        if self.movement_budget < 0:
            raise ConfigurationError("movement budget must be >= 0")
        for knob in ("min_residency", "cooldown", "headroom"):
            value = getattr(self, knob)
            if value is not None and value < 0:
                raise ConfigurationError(f"{knob} must be >= 0")
        if self.headroom >= 1.0:
            raise ConfigurationError("headroom must be < 1.0")

    @property
    def candidate_heat(self) -> float:
        return self.promote_heat

    def decide(self, state: ObservedState) -> list[TieringAction]:
        min_residency = (
            state.half_life if self.min_residency is None else self.min_residency
        )
        cooldown = state.half_life if self.cooldown is None else self.cooldown

        # Demotions first: coldest policy-cached files, and the bytes
        # they free count toward this round's promotion capacity.
        demotions = sorted(
            (
                f
                for f in state.files
                if f.policy_memory_replicas > 0
                and f.heat <= self.demote_heat
                and state.now - f.last_promoted >= min_residency
            ),
            key=lambda f: (f.heat, f.path),
        )

        memory = state.tier(self.memory_tier)
        if memory is None:
            budget_bytes = 0.0
        else:
            reserve = self.headroom * memory.total_capacity
            budget_bytes = memory.remaining - reserve
        budget_bytes += sum(f.length for f in demotions)

        promotions = []
        candidates = sorted(
            (
                f
                for f in state.files
                if f.memory_replicas == 0
                and not f.under_construction
                and f.heat > self.candidate_heat
                and state.now - f.last_demoted >= cooldown
            ),
            key=lambda f: (-f.heat, f.path),
        )
        for f in candidates:
            if f.length <= budget_bytes:
                promotions.append(f)
                budget_bytes -= f.length

        actions = [
            TieringAction(f.path, DEMOTE, self.memory_tier, f.heat)
            for f in demotions
        ] + [
            TieringAction(f.path, PROMOTE, self.memory_tier, f.heat)
            for f in promotions
        ]
        return actions[: self.movement_budget]


@dataclass(frozen=True)
class BudgetedCachePolicy(TieringPolicy):
    """The memory tier as a byte-budgeted cache (paper §6).

    ``budget`` bounds the bytes of file data the policy keeps in
    ``memory_tier``, one replica per file, counted over the files it
    promoted itself: an application's own memory replicas are neither
    charged nor evicted, and usage is re-derived from every observed
    state, so a deleted or rewritten file frees its share by no longer
    being observed. A file larger than the budget is never admitted.

    ``promote_after`` is the access count that marks a file hot, read
    from heat. Heat is a *decayed* count — two opens a millisecond
    apart read 1.99998, not 2 — but N-1 accesses can never read more
    than N-1 however recent they are, so ``heat > promote_after - 1``
    is exactly "at least N accesses, fewer than one of them decayed
    away": the N-th access of a burst promotes, the (N-1)-th cannot.
    ``math.inf`` yields a policy that never acts.

    ``evict`` names the order residents leave in when a hot file needs
    room: ``"lru"`` — least recent access first; ``"lfu"`` — lowest heat
    first, then least recent. A file displaces only residents that sort
    before it in that order, so under LFU a one-hit wonder cannot flush
    a frequently read resident. Candidates are admitted best first and
    nothing is evicted for one that still would not fit.
    """

    budget: int
    promote_after: float = 2
    evict: str = "lru"
    memory_tier: str = "MEMORY"
    name: str = field(default="budgeted-cache", init=False)

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ConfigurationError("cache memory budget must be positive")
        if self.evict not in ("lru", "lfu"):
            raise ConfigurationError(
                f"evict must be 'lru' or 'lfu', got {self.evict!r}"
            )

    @property
    def candidate_heat(self) -> float:
        return self.promote_after - 1

    def _rank(self, f: FileObservation) -> tuple:
        """Sort key of the eviction order: first out sorts first."""
        if self.evict == "lru":
            return (f.last_access, f.path)
        return (f.heat, f.last_access, f.path)

    def decide(self, state: ObservedState) -> list[TieringAction]:
        rank = self._rank
        resident = sorted(
            (f for f in state.files if f.policy_memory_replicas > 0), key=rank
        )
        free = self.budget - sum(f.length for f in resident)
        evicted = 0
        while free < 0:
            # A resident grew (append) since it was admitted.
            free += resident[evicted].length
            evicted += 1

        admitted = []
        candidates = sorted(
            (
                f
                for f in state.files
                if f.memory_replicas == 0
                and not f.under_construction
                and f.heat > self.candidate_heat
            ),
            key=rank,
            reverse=True,
        )
        for f in candidates:
            upto, room, worth = evicted, free, rank(f)
            while (
                room < f.length
                and upto < len(resident)
                and rank(resident[upto]) < worth
            ):
                room += resident[upto].length
                upto += 1
            if room >= f.length:
                admitted.append(f)
                evicted, free = upto, room - f.length

        return [
            TieringAction(f.path, DEMOTE, self.memory_tier, f.heat)
            for f in resident[:evicted]
        ] + [
            TieringAction(f.path, PROMOTE, self.memory_tier, f.heat)
            for f in admitted
        ]
