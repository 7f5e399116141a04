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
* :class:`FaultInjector` — the one place a fault is applied: its
  primitives (``crash``, ``fail_medium``, ...) change the cluster, tell
  the master, and record, and both of the above drive them. Every
  applied fault is appended to ``injector.trace``, so two runs can be
  compared event by event.

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

from repro.errors import FaultInjectionError, WorkerError
from repro.util.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.media import StorageMedium
    from repro.cluster.topology import Node
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
_FACTOR_KINDS = ("degrade_medium", "slow_node")


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
        if self.block_index < 0:
            raise FaultInjectionError(
                f"block_index must be >= 0, got {self.block_index}"
            )
        if self.kind in _FACTOR_KINDS:
            if self.factor is None or not 0.0 < self.factor <= 1.0:
                raise FaultInjectionError(
                    f"{self.kind} needs a factor in (0, 1], got {self.factor}"
                )
        elif self.factor is not None:
            raise FaultInjectionError(
                f"{self.kind} takes no factor, got {self.factor}"
            )
        if self.kind != "corrupt" and (
            self.block_index != 0 or self.medium_id is not None
        ):
            raise FaultInjectionError(
                f"{self.kind} takes no block_index or medium_id"
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
    """Applies faults to one :class:`OctopusFileSystem`: its primitives
    are the only code that does, for schedules and chaos alike.

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
        # correlate injected faults with the degradation they cause; the
        # event also feeds the flight recorder (which opens an incident
        # on a damaging fault) and the provenance ledger (which keeps it
        # as context for the repair decisions that follow).
        obs = self.system.cluster.obs
        if obs.enabled:
            obs.tracer.event(
                "fault." + kind, target=target, detail=detail
            )

    def trace_lines(self) -> list[str]:
        """The applied-fault log as canonical strings (seed-stable)."""
        return [record.line() for record in self.trace]

    # ------------------------------------------------------------------
    # Primitives: the one place a fault is applied
    # ------------------------------------------------------------------
    def _node(self, name: str) -> "Node":
        if name not in self.system.workers:
            raise WorkerError(f"unknown worker {name!r}")
        return self.system.cluster.node(name)

    def _medium(self, medium_id: str) -> "StorageMedium":
        medium = self.system.cluster.media.get(medium_id)
        if medium is None:
            raise WorkerError(f"unknown medium {medium_id!r}")
        return medium

    def _cancel_flows_on(self, resources: list, failure: WorkerError) -> None:
        """Abort every transfer crossing ``resources``, in flow start
        order: set order follows object addresses and would make the
        failure cascade differ between runs."""
        doomed = {flow for resource in resources for flow in resource.flows}
        for flow in sorted(doomed, key=lambda f: f.seq):
            self.system.cluster.flows.cancel_flow(flow, failure)

    def _mark_medium_dirty(self, medium: "StorageMedium") -> None:
        worker = self.system.workers[medium.node.name]
        self.system.master.mark_dirty(
            r for r in worker.block_report() if r.medium is medium
        )

    def crash(self, node: str) -> None:
        """Kill a worker: node marked dead, in-flight transfers aborted,
        volatile (memory) replicas lost with it."""
        host = self._node(node)
        host.failed = True
        host.unreachable = False  # death supersedes mere silence
        resources = [host.nic_in, host.nic_out]
        for medium in host.media:
            resources.extend([medium.read_channel, medium.write_channel])
        self._cancel_flows_on(resources, WorkerError(f"worker {node} died"))
        self.system.master.declare_dead(node)
        self._record("crash", node)

    def restart(self, node: str) -> None:
        """Bring a crashed worker back; its volatile replicas are gone."""
        host = self._node(node)
        host.failed = False
        host.unreachable = False
        master = self.system.master
        worker = self.system.workers[node]
        # Memory does not survive a restart: drop volatile replicas.
        volatile = [r for r in worker.block_report() if r.medium.volatile]
        for replica in volatile:
            worker.delete_replica(replica)
            meta = master.block_map.get(replica.block.block_id)
            if meta and replica in meta.replicas:
                master.detach_replica(meta, replica)
        record = master.workers[node]
        record.dead = False
        record.silent = False
        record.last_heartbeat = self.system.engine.now
        master.receive_block_report(worker)
        # The worker no longer reports its volatile blocks: name them too,
        # or the loss goes unrepaired when it was never declared dead.
        master.mark_dirty(volatile + worker.block_report())
        self._record("restart", node)

    def silence(self, node: str) -> None:
        """Partition a worker off the network without killing it.

        Heartbeats stop arriving and in-flight transfers crossing the
        node's NIC abort, but the process and its replicas — volatile
        ones included — stay intact. The master declares the worker
        *silent* (not dead) once the heartbeat expiry elapses; see
        :meth:`Master.check_worker_liveness`.
        """
        host = self._node(node)
        host.unreachable = True
        self._cancel_flows_on(
            [host.nic_in, host.nic_out],
            WorkerError(f"worker {node} is unreachable"),
        )
        self._record("silence", node)

    def unsilence(self, node: str) -> None:
        """Heal a network partition; the worker re-heartbeats at once.

        Unlike :meth:`restart`, nothing was lost — the master reconciles
        the returning replicas (usually trimming the surplus its
        outage-time re-replication created).
        """
        host = self._node(node)
        master = self.system.master
        record = master.workers.get(node)
        if record is not None and not record.dead:
            # Deliver the heartbeat while the unreachable flag is still
            # set: receive_heartbeat uses it to tell "returning from a
            # partition" (reconcile the node's blocks) from a routine
            # beat, then clears it.
            master.receive_heartbeat(self.system.workers[node].heartbeat())
        host.unreachable = False
        self._record("unsilence", node)

    def fail_medium(self, medium_id: str) -> None:
        """Kill a single storage device (disk failure, not node failure).

        In-flight transfers on the medium abort; its replicas are lost
        and the replication manager re-replicates from surviving copies.
        """
        medium = self._medium(medium_id)
        medium.failed = True
        self._cancel_flows_on(
            [medium.read_channel, medium.write_channel],
            WorkerError(f"medium {medium_id} failed"),
        )
        self._mark_medium_dirty(medium)
        self._record("fail_medium", medium_id)

    def repair_medium(self, medium_id: str) -> None:
        """Bring a failed (or degraded) device back at full speed.

        Replicas the master already pruned are gone — the device returns
        empty; any it still remembers are marked dirty so the
        replication manager revalidates them.
        """
        medium = self._medium(medium_id)
        medium.failed = False
        self._throttle(medium, 1.0)
        self._mark_medium_dirty(medium)
        self._record("repair_medium", medium_id)

    def _throttle(self, medium: "StorageMedium", factor: float) -> None:
        medium.degrade(factor)
        # Hint the changed channels so the incremental solver only
        # revisits their connected components.
        channels = [medium.read_channel, medium.write_channel]
        self.system.cluster.flows.refresh(channels)

    def degrade_medium(self, medium_id: str, factor: float) -> None:
        """Throttle one device to ``factor`` of baseline throughput,
        re-sharing bandwidth with any in-flight transfers."""
        self._throttle(self._medium(medium_id), factor)
        self._record("degrade_medium", medium_id, f"factor={factor:.4f}")

    def _cap_nic(self, node: str, factor: float) -> None:
        host = self._node(node)
        host.set_nic_factor(factor)
        self.system.cluster.flows.refresh([host.nic_in, host.nic_out])

    def slow_node(self, node: str, factor: float) -> None:
        """Cap a node's NIC to ``factor`` of baseline (straggler node)."""
        self._cap_nic(node, factor)
        self._record("slow_node", node, f"factor={factor:.4f}")

    def restore_node(self, node: str) -> None:
        self._cap_nic(node, 1.0)
        self._record("restore_node", node)

    def corrupt_replica(self, block_id: int, medium_id: str) -> None:
        """Checksum-fail one specific replica, as a reader would report."""
        self._corrupt(block_id, medium_id)

    def corrupt_block(
        self, path: str, block_index: int = 0, medium_id: str | None = None
    ) -> None:
        """Corrupt one replica of ``path``'s ``block_index``-th block.

        With ``medium_id=None`` the victim is chosen deterministically
        (lowest medium id among live replicas).
        """
        blocks = self.system.master.namespace.get_file(path).blocks
        if not 0 <= block_index < len(blocks):
            raise FaultInjectionError(
                f"{path!r} has no block index {block_index}"
            )
        self._corrupt(blocks[block_index].block_id, medium_id)

    def _corrupt(self, block_id: int, medium_id: str | None) -> None:
        """The one check and record behind both corruption primitives.

        The medium must hold a *live* replica of the block: one that is
        finalized, not already corrupt, and on a medium and node that
        are up and reachable. A replica on a silenced node, one still
        being written, or one already corrupt is refused, as is a medium
        without any replica — none of them would be a fresh checksum
        failure a reader could report.
        """
        master = self.system.master
        meta = master.block_map.get(block_id)
        if meta is None:
            raise FaultInjectionError(f"unknown block {block_id}")
        live = sorted(r.medium.medium_id for r in meta.live_replicas())
        if medium_id is None and live:
            medium_id = live[0]
        if medium_id not in live:
            raise FaultInjectionError(
                f"{meta.label} has no live replica on {medium_id or 'any medium'}"
            )
        master.report_corrupt_replica(block_id, medium_id)
        # Trace by path#index, not block id: block ids are process-global
        # counters and would break cross-invocation trace comparison.
        self._record("corrupt", meta.label, f"medium={medium_id}")

    # ------------------------------------------------------------------
    # Declarative schedules
    # ------------------------------------------------------------------
    def apply(self, event: FaultEvent) -> None:
        """Apply one event *now* (its ``at`` is ignored).

        A kind names its primitive; :class:`FaultEvent` admits a
        ``factor`` only for the kinds whose primitive takes one.
        """
        if event.kind == "corrupt":
            self.corrupt_block(event.target, event.block_index, event.medium_id)
        elif event.factor is None:
            getattr(self, event.kind)(event.target)
        else:
            getattr(self, event.kind)(event.target, event.factor)

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
            if node.failed or node.unreachable:
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
