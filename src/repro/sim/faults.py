"""Deterministic fault injection for the simulated cluster.

The paper's replication manager (§5) earns its keep only when replicas
die; this module makes death schedulable, seeded, and reproducible. It
offers three entry points, all running as first-class processes on
:class:`~repro.sim.engine.SimulationEngine`:

* :class:`FaultSchedule` — a declarative, time-ordered list of
  :class:`FaultEvent`s ("at t=4 crash worker2, at t=9 restart it").
* :class:`ChaosProcess` — samples faults from a seeded
  :class:`~repro.util.rng.DeterministicRng` at a configurable rate and
  heals what it breaks, for randomized robustness runs. The same seed
  produces the same event trace, bit for bit.
* :class:`FaultInjector` — the imperative facade both of the above
  drive. Every applied fault is appended to ``injector.trace``, so two
  runs can be compared event by event.

Supported fault classes (the ``kind`` axis of :class:`FaultEvent`):

=================  ====================================================
``crash``          Node dies; in-flight transfers abort; volatile
                   (memory) replicas are lost. Healed by ``restart``.
``silence``        Network partition: heartbeats and transfers stop but
                   the process and all its data survive. Healed by
                   ``unsilence`` (the master reconciles, not
                   re-registers — silence and death are distinct
                   states).
``fail_medium``    One storage device dies; its replicas are lost.
                   Healed by ``repair_medium`` (device returns empty).
``degrade_medium`` Device throughput drops to ``factor`` of baseline;
                   in-flight flows re-share immediately.
``slow_node``      NIC rate cap at ``factor`` of baseline (straggler
                   node). Healed by ``restore_node``.
``corrupt``        One replica of a block fails its checksum; the event
                   feeds :meth:`Master.report_corrupt_replica` and the
                   replication manager re-replicates from a clean copy.
=================  ====================================================

Determinism: the engine is single-threaded with deterministic
tie-breaking, every random draw comes from a labelled
:class:`DeterministicRng`, and target selection iterates sorted names —
so a fixed seed yields an identical trace and an identical final block
map across invocations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Iterable

from repro.errors import FaultInjectionError
from repro.util.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Process
    from repro.fs.system import OctopusFileSystem

#: Every schedulable fault kind (heals included — a heal is an event).
FAULT_KINDS = (
    "crash",
    "restart",
    "silence",
    "unsilence",
    "fail_medium",
    "repair_medium",
    "degrade_medium",
    "slow_node",
    "restore_node",
    "corrupt",
)


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: *at* simulated second ``at``, do ``kind`` to
    ``target`` (a node name, medium id, or file path for ``corrupt``)."""

    at: float
    kind: str
    target: str
    #: Throughput/rate factor for ``degrade_medium`` / ``slow_node``.
    factor: float | None = None
    #: For ``corrupt``: which block of the file (default: first).
    block_index: int = 0
    #: For ``corrupt``: which replica; ``None`` picks deterministically.
    medium_id: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.at < 0:
            raise FaultInjectionError(f"fault time must be >= 0, got {self.at}")
        if self.kind in ("degrade_medium", "slow_node") and (
            self.factor is None or not 0.0 < self.factor <= 1.0
        ):
            raise FaultInjectionError(
                f"{self.kind} needs a factor in (0, 1], got {self.factor}"
            )


@dataclass(frozen=True)
class FaultRecord:
    """One applied fault, as remembered by the injector's trace."""

    time: float
    kind: str
    target: str
    detail: str = ""

    def line(self) -> str:
        """A canonical one-line rendering, for trace comparison."""
        suffix = f" {self.detail}" if self.detail else ""
        return f"t={self.time:.6f} {self.kind} {self.target}{suffix}"


class FaultSchedule:
    """A declarative, time-ordered fault scenario.

    Build it event by event (the fluent helpers return ``self``)::

        schedule = (
            FaultSchedule()
            .crash(at=4.0, node="worker2")
            .restart(at=20.0, node="worker2")
            .degrade_medium(at=6.0, medium="worker1:hdd0", factor=0.25)
        )
        fs = OctopusFileSystem(spec, faults=schedule)

    Events fire in ``at`` order (insertion order breaks ties).
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: list[FaultEvent] = list(events)

    def add(self, event: FaultEvent) -> "FaultSchedule":
        self.events.append(event)
        return self

    def ordered(self) -> list[FaultEvent]:
        """Events sorted by time; ties keep insertion order (stable)."""
        return sorted(self.events, key=lambda e: e.at)

    # -- fluent builders ------------------------------------------------
    def crash(self, at: float, node: str) -> "FaultSchedule":
        return self.add(FaultEvent(at, "crash", node))

    def restart(self, at: float, node: str) -> "FaultSchedule":
        return self.add(FaultEvent(at, "restart", node))

    def silence(self, at: float, node: str) -> "FaultSchedule":
        return self.add(FaultEvent(at, "silence", node))

    def unsilence(self, at: float, node: str) -> "FaultSchedule":
        return self.add(FaultEvent(at, "unsilence", node))

    def fail_medium(self, at: float, medium: str) -> "FaultSchedule":
        return self.add(FaultEvent(at, "fail_medium", medium))

    def repair_medium(self, at: float, medium: str) -> "FaultSchedule":
        return self.add(FaultEvent(at, "repair_medium", medium))

    def degrade_medium(
        self, at: float, medium: str, factor: float
    ) -> "FaultSchedule":
        return self.add(FaultEvent(at, "degrade_medium", medium, factor=factor))

    def slow_node(self, at: float, node: str, factor: float) -> "FaultSchedule":
        return self.add(FaultEvent(at, "slow_node", node, factor=factor))

    def restore_node(self, at: float, node: str) -> "FaultSchedule":
        return self.add(FaultEvent(at, "restore_node", node))

    def corrupt(
        self,
        at: float,
        path: str,
        block_index: int = 0,
        medium_id: str | None = None,
    ) -> "FaultSchedule":
        return self.add(
            FaultEvent(
                at, "corrupt", path, block_index=block_index, medium_id=medium_id
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultSchedule events={len(self.events)}>"


class FaultInjector:
    """Imperative fault facade over one :class:`OctopusFileSystem`.

    Every applied fault lands in :attr:`trace`; compare
    :meth:`trace_lines` across runs to assert reproducibility.
    """

    def __init__(self, system: "OctopusFileSystem") -> None:
        self.system = system
        self.trace: list[FaultRecord] = []

    # ------------------------------------------------------------------
    # Trace
    # ------------------------------------------------------------------
    def _record(self, kind: str, target: str, detail: str = "") -> None:
        record = FaultRecord(self.system.engine.now, kind, target, detail)
        self.trace.append(record)
        # Mirror into the observability trace stream so chaos runs can
        # correlate injected faults with the degradation they cause.
        obs = self.system.cluster.obs
        if obs.enabled:
            obs.tracer.event(
                "fault." + kind, target=target, detail=detail
            )
            obs.metrics.counter("faults_injected_total", kind=kind).inc()
        # The flight recorder sees every applied fault (and opens an
        # incident on damaging ones); detached = shared no-op singleton.
        obs.recorder.on_fault(record)
        # The provenance ledger keeps it as triggering context for the
        # repair decisions that follow.
        obs.ledger.on_fault(record)

    def trace_lines(self) -> list[str]:
        """The applied-fault log as canonical strings (seed-stable)."""
        return [record.line() for record in self.trace]

    # ------------------------------------------------------------------
    # Primitives (each delegates to the system layer and records)
    # ------------------------------------------------------------------
    def crash(self, node: str) -> None:
        self.system.fail_worker(node)
        self._record("crash", node)

    def restart(self, node: str) -> None:
        self.system.recover_worker(node)
        self._record("restart", node)

    def silence(self, node: str) -> None:
        self.system.silence_worker(node)
        self._record("silence", node)

    def unsilence(self, node: str) -> None:
        self.system.unsilence_worker(node)
        self._record("unsilence", node)

    def fail_medium(self, medium_id: str) -> None:
        self.system.fail_medium(medium_id)
        self._record("fail_medium", medium_id)

    def repair_medium(self, medium_id: str) -> None:
        self.system.repair_medium(medium_id)
        self._record("repair_medium", medium_id)

    def degrade_medium(self, medium_id: str, factor: float) -> None:
        self.system.degrade_medium(medium_id, factor)
        self._record("degrade_medium", medium_id, f"factor={factor:.4f}")

    def slow_node(self, node: str, factor: float) -> None:
        self.system.slow_worker(node, factor)
        self._record("slow_node", node, f"factor={factor:.4f}")

    def restore_node(self, node: str) -> None:
        self.system.restore_worker_speed(node)
        self._record("restore_node", node)

    def corrupt_replica(self, block_id: int, medium_id: str) -> None:
        """Checksum-fail one specific replica, as a reader would report."""
        meta = self.system.master.block_map.get(block_id)
        if meta is None:
            raise FaultInjectionError(f"unknown block {block_id}")
        self.system.master.report_corrupt_replica(block_id, medium_id)
        # Trace by path#index, not block id: block ids are process-global
        # counters and would break cross-invocation trace comparison.
        self._record("corrupt", meta.label, f"medium={medium_id}")

    def corrupt_block(
        self, path: str, block_index: int = 0, medium_id: str | None = None
    ) -> None:
        """Corrupt one replica of ``path``'s ``block_index``-th block.

        With ``medium_id=None`` the victim is chosen deterministically
        (lowest medium id among live replicas).
        """
        master = self.system.master_for(path)
        inode = master.namespace.get_file(path)
        if block_index >= len(inode.blocks):
            raise FaultInjectionError(
                f"{path!r} has no block index {block_index}"
            )
        block = inode.blocks[block_index]
        meta = master.block_map.get(block.block_id)
        live = meta.live_replicas() if meta else []
        if not live:
            raise FaultInjectionError(
                f"block {block.block_id} of {path!r} has no live replica"
            )
        if medium_id is None:
            medium_id = min(r.medium.medium_id for r in live)
        master.report_corrupt_replica(block.block_id, medium_id)
        self._record("corrupt", meta.label, f"medium={medium_id}")

    # ------------------------------------------------------------------
    # Declarative schedules
    # ------------------------------------------------------------------
    def apply(self, event: FaultEvent) -> None:
        """Apply one event *now* (its ``at`` is ignored)."""
        if event.kind == "crash":
            self.crash(event.target)
        elif event.kind == "restart":
            self.restart(event.target)
        elif event.kind == "silence":
            self.silence(event.target)
        elif event.kind == "unsilence":
            self.unsilence(event.target)
        elif event.kind == "fail_medium":
            self.fail_medium(event.target)
        elif event.kind == "repair_medium":
            self.repair_medium(event.target)
        elif event.kind == "degrade_medium":
            assert event.factor is not None
            self.degrade_medium(event.target, event.factor)
        elif event.kind == "slow_node":
            assert event.factor is not None
            self.slow_node(event.target, event.factor)
        elif event.kind == "restore_node":
            self.restore_node(event.target)
        elif event.kind == "corrupt":
            self.corrupt_block(event.target, event.block_index, event.medium_id)
        else:  # pragma: no cover - FaultEvent validates kinds
            raise FaultInjectionError(f"unknown fault kind {event.kind!r}")

    def schedule_proc(self, schedule: FaultSchedule) -> Generator:
        """Process: wait for and apply each event of ``schedule``."""
        engine = self.system.engine
        for event in schedule.ordered():
            if event.at > engine.now:
                yield engine.timeout(event.at - engine.now)
            self.apply(event)

    def run_schedule(self, schedule: FaultSchedule) -> "Process":
        """Arm a schedule as an engine process; returns the process."""
        return self.system.engine.process(
            self.schedule_proc(schedule), name="fault-schedule"
        )

    # ------------------------------------------------------------------
    # Randomized chaos
    # ------------------------------------------------------------------
    def start_chaos(self, seed: int | str = 0, **kwargs) -> "ChaosProcess":
        """Launch a seeded :class:`ChaosProcess`; returns it with its
        ``process`` attribute set so callers can await completion."""
        chaos = ChaosProcess(self, seed=seed, **kwargs)
        chaos.process = self.system.engine.process(chaos.run(), name="chaos")
        return chaos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultInjector events={len(self.trace)}>"


#: Fault kinds ChaosProcess samples by default (heals are implicit).
CHAOS_KINDS = ("crash", "silence", "fail_medium", "degrade", "slow", "corrupt")


class ChaosProcess:
    """Seeded random fault generator that heals what it breaks.

    Runs as one engine process: strike times are exponentially
    distributed with mean ``mean_interval``; each strike picks a fault
    kind and a target from the *sorted* candidate lists (so selection is
    a pure function of the seed and cluster state), applies it through
    the :class:`FaultInjector`, and schedules the matching heal a
    ``heal_delay``-uniform time later. After ``duration`` seconds (or
    ``max_events`` strikes) it stops striking, drains the outstanding
    heals, and returns — the cluster ends fully healed, so a subsequent
    ``await_replication`` must converge every block.

    With ``avoid_data_loss`` (default), a strike never removes the last
    live copy of any block: crashes spare nodes holding any sole live
    copy, medium failures spare sole-survivor devices, and corruption
    targets only blocks with at least two live replicas.
    """

    def __init__(
        self,
        injector: FaultInjector,
        seed: int | str | DeterministicRng = 0,
        mean_interval: float = 5.0,
        duration: float = 120.0,
        heal_delay: tuple[float, float] = (2.0, 15.0),
        kinds: tuple[str, ...] = CHAOS_KINDS,
        max_events: int | None = None,
        max_concurrent_down: int = 1,
        avoid_data_loss: bool = True,
    ) -> None:
        unknown = set(kinds) - set(CHAOS_KINDS)
        if unknown:
            raise FaultInjectionError(
                f"unknown chaos kinds {sorted(unknown)}; "
                f"expected a subset of {CHAOS_KINDS}"
            )
        self.injector = injector
        self.system = injector.system
        self.rng = (
            seed
            if isinstance(seed, DeterministicRng)
            else DeterministicRng(seed, "chaos")
        )
        self.mean_interval = float(mean_interval)
        self.duration = float(duration)
        self.heal_delay = heal_delay
        self.kinds = tuple(kinds)
        self.max_events = max_events
        self.max_concurrent_down = max_concurrent_down
        self.avoid_data_loss = avoid_data_loss
        self.strikes = 0
        self.process: "Process | None" = None

    # ------------------------------------------------------------------
    # The process
    # ------------------------------------------------------------------
    def run(self) -> Generator:
        engine = self.system.engine
        deadline = engine.now + self.duration
        heals: list[tuple[float, int, Callable[[], None]]] = []
        heal_seq = 0
        next_strike: float | None = engine.now + self.rng.expovariate(
            1.0 / self.mean_interval
        )
        while True:
            due = []
            if next_strike is not None:
                due.append(next_strike)
            if heals:
                due.append(heals[0][0])
            if not due:
                return self.strikes
            target_time = min(due)
            if target_time > engine.now:
                yield engine.timeout(target_time - engine.now)
            while heals and heals[0][0] <= engine.now + 1e-9:
                _, _, heal = heapq.heappop(heals)
                heal()
            if next_strike is not None and next_strike <= engine.now + 1e-9:
                healer = self._strike()
                if healer is not None:
                    heal_seq += 1
                    delay = self.rng.uniform(*self.heal_delay)
                    heapq.heappush(heals, (engine.now + delay, heal_seq, healer))
                done = engine.now >= deadline or (
                    self.max_events is not None
                    and self.strikes >= self.max_events
                )
                next_strike = (
                    None
                    if done
                    else engine.now
                    + self.rng.expovariate(1.0 / self.mean_interval)
                )

    # ------------------------------------------------------------------
    # Strike selection (all candidate lists are sorted => deterministic)
    # ------------------------------------------------------------------
    def _strike(self) -> Callable[[], None] | None:
        kind = self.rng.choice(self.kinds)
        healer = getattr(self, f"_strike_{kind}")()
        if healer is not None:
            self.strikes += 1
        return healer

    def _down_count(self) -> int:
        return sum(
            1
            for name in self.system.workers
            if self.system.cluster.node(name).failed
            or self.system.cluster.node(name).unreachable
        )

    def _up_workers(self) -> list[str]:
        up = []
        for name in sorted(self.system.workers):
            node = self.system.cluster.node(name)
            if node.failed or node.unreachable or node.decommissioning:
                continue
            up.append(name)
        return up

    def _replica_has_other_live(self, replica) -> bool:
        meta = self.system.master.block_map.get(replica.block.block_id)
        if meta is None:
            return True  # not an active block; nothing to lose
        return any(r.live and r is not replica for r in meta.replicas)

    def _crash_is_safe(self, name: str) -> bool:
        # A crash loses volatile replicas outright, and the master may
        # prune the node's durable replicas before it returns — so the
        # node must hold no sole live copy of anything.
        worker = self.system.workers[name]
        for replica in worker.block_report():
            if not self._replica_has_other_live(replica):
                return False
        return True

    def _medium_fail_is_safe(self, medium) -> bool:
        worker = self.system.workers.get(medium.node.name)
        if worker is None:
            return True
        for replica in worker.block_report():
            if replica.medium is medium and not self._replica_has_other_live(
                replica
            ):
                return False
        return True

    def _strike_crash(self) -> Callable[[], None] | None:
        if self._down_count() >= self.max_concurrent_down:
            return None
        candidates = [
            name
            for name in self._up_workers()
            if not self.avoid_data_loss or self._crash_is_safe(name)
        ]
        if not candidates:
            return None
        name = self.rng.choice(candidates)
        self.injector.crash(name)
        return lambda: self.injector.restart(name)

    def _strike_silence(self) -> Callable[[], None] | None:
        if self._down_count() >= self.max_concurrent_down:
            return None
        candidates = self._up_workers()
        if not candidates:
            return None
        name = self.rng.choice(candidates)
        self.injector.silence(name)
        return lambda: self.injector.unsilence(name)

    def _live_media(self) -> list:
        media = []
        for medium_id in sorted(self.system.cluster.media):
            medium = self.system.cluster.media[medium_id]
            node = medium.node
            if medium.failed or node.failed or node.unreachable:
                continue
            media.append(medium)
        return media

    def _strike_fail_medium(self) -> Callable[[], None] | None:
        candidates = [
            m
            for m in self._live_media()
            if not self.avoid_data_loss or self._medium_fail_is_safe(m)
        ]
        if not candidates:
            return None
        medium = self.rng.choice(candidates)
        self.injector.fail_medium(medium.medium_id)
        return lambda: self.injector.repair_medium(medium.medium_id)

    def _strike_degrade(self) -> Callable[[], None] | None:
        candidates = [m for m in self._live_media() if m.degrade_factor == 1.0]
        if not candidates:
            return None
        medium = self.rng.choice(candidates)
        factor = self.rng.uniform(0.1, 0.6)
        self.injector.degrade_medium(medium.medium_id, factor)
        return lambda: self.injector.degrade_medium(medium.medium_id, 1.0)

    def _strike_slow(self) -> Callable[[], None] | None:
        candidates = [
            name
            for name in self._up_workers()
            if self.system.cluster.node(name).nic_factor == 1.0
        ]
        if not candidates:
            return None
        name = self.rng.choice(candidates)
        factor = self.rng.uniform(0.1, 0.6)
        self.injector.slow_node(name, factor)
        return lambda: self.injector.restore_node(name)

    def _strike_corrupt(self) -> Callable[[], None] | None:
        minimum = 2 if self.avoid_data_loss else 1
        candidates: list[tuple[int, str]] = []
        for block_id in sorted(self.system.master.block_map):
            meta = self.system.master.block_map[block_id]
            live = meta.live_replicas()
            if len(live) < minimum:
                continue
            candidates.extend(
                sorted((block_id, r.medium.medium_id) for r in live)
            )
        if not candidates:
            return None
        block_id, medium_id = self.rng.choice(candidates)
        self.injector.corrupt_replica(block_id, medium_id)
        return None  # the replication manager is the heal

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChaosProcess strikes={self.strikes}>"
