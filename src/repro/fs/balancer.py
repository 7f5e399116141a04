"""The balancer: redistributing replicas within a tier.

HDFS ships a Balancer daemon for exactly the situation the paper's
data-balancing objective (Eq. 1) prevents at write time but cannot fix
after the fact: media filling unevenly as nodes join, files are
deleted, or long sequential writes skew placement. This is the
OctopusFS equivalent — tier-aware: utilization is balanced *within*
each storage tier (moving a memory replica to an HDD would change the
file's tier semantics, so cross-tier moves stay the business of
replication vectors).

The algorithm mirrors HDFS's: per tier, compute mean utilization; media
above ``mean + threshold`` donate replicas to media below
``mean − threshold``, never co-locating two replicas of one block on a
node, until every medium is inside the band or no legal move remains.
Moves are real data transfers on the simulated network (copy then
delete), so a balancer run competes for bandwidth like any client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro.errors import BlockError, WorkerError
from repro.fs.blocks import Replica

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.media import StorageMedium
    from repro.fs.system import OctopusFileSystem


@dataclass(frozen=True)
class PlannedMove:
    """One replica relocation: ``replica`` from its medium to ``target``."""

    replica: Replica
    target: "StorageMedium"

    @property
    def nbytes(self) -> int:
        return self.replica.block.size


@dataclass
class BalancerReport:
    """What a balancer run did."""

    iterations: int = 0
    moves_executed: int = 0
    bytes_moved: int = 0
    #: max |utilization − tier mean| per tier, after balancing.
    final_spread: dict[str, float] = field(default_factory=dict)

    def data(self) -> dict:
        """JSON-serializable form (the ``repro report`` balancer line)."""
        return {
            "iterations": self.iterations,
            "moves_executed": self.moves_executed,
            "bytes_moved": self.bytes_moved,
            "final_spread": dict(self.final_spread),
        }


class Balancer:
    """Tier-aware replica rebalancer.

    ``threshold`` is the allowed deviation from the tier's mean
    utilization (HDFS's default is 10 %; so is ours).
    """

    def __init__(self, system: "OctopusFileSystem", threshold: float = 0.10) -> None:
        self.system = system
        self.threshold = threshold

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def utilization(self, medium: "StorageMedium") -> float:
        return medium.used / medium.capacity

    def tier_mean(self, tier_name: str) -> float:
        media = self.system.cluster.tier(tier_name).live_media
        if not media:
            return 0.0
        return sum(self.utilization(m) for m in media) / len(media)

    def spread(self) -> dict[str, float]:
        """Per tier: the worst deviation from the tier mean."""
        out = {}
        for tier in self.system.cluster.active_tiers():
            mean = self.tier_mean(tier.name)
            out[tier.name] = max(
                (abs(self.utilization(m) - mean) for m in tier.live_media),
                default=0.0,
            )
        return out

    def plan(self, max_moves_per_tier: int = 50) -> list[PlannedMove]:
        """Compute the next batch of replica moves."""
        moves: list[PlannedMove] = []
        for tier in self.system.cluster.active_tiers():
            moves.extend(self._plan_tier(tier.name, max_moves_per_tier))
        return moves

    def _plan_tier(self, tier_name: str, max_moves: int) -> list[PlannedMove]:
        cluster = self.system.cluster
        media = list(cluster.tier(tier_name).live_media)
        if len(media) < 2:
            return []
        mean = self.tier_mean(tier_name)
        donors = sorted(
            (m for m in media if self.utilization(m) > mean + self.threshold),
            key=self.utilization,
            reverse=True,
        )
        moves: list[PlannedMove] = []
        planned_delta: dict[str, int] = {}  # medium_id -> pending bytes +/-

        def projected(medium: "StorageMedium") -> float:
            return (
                medium.used + planned_delta.get(medium.medium_id, 0)
            ) / medium.capacity

        for donor in donors:
            for replica in self._movable_replicas(donor):
                if projected(donor) <= mean + self.threshold:
                    break
                target = self._pick_receiver(
                    media, replica, mean, projected
                )
                if target is None:
                    continue
                moves.append(PlannedMove(replica=replica, target=target))
                planned_delta[donor.medium_id] = (
                    planned_delta.get(donor.medium_id, 0) - replica.block.size
                )
                planned_delta[target.medium_id] = (
                    planned_delta.get(target.medium_id, 0) + replica.block.size
                )
                if len(moves) >= max_moves:
                    return moves
        return moves

    def _movable_replicas(self, medium: "StorageMedium") -> list[Replica]:
        """Finalized, healthy replicas on this medium, largest first."""
        record = self.system.master.workers.get(medium.node.name)
        if record is None or not record.reachable:
            return []
        replicas = [
            replica
            for replica in record.worker.block_report()
            if replica.medium is medium and replica.live
        ]
        replicas.sort(key=lambda r: r.block.size, reverse=True)
        return replicas

    def _pick_receiver(self, media, replica, mean, projected):
        master = self.system.master
        meta = master.block_map.get(replica.block.block_id)
        if meta is None:
            return None
        occupied_nodes = {r.node for r in meta.live_replicas()}
        def fits_after(m) -> bool:
            after = projected(m) + replica.block.size / m.capacity
            return after <= mean + self.threshold

        candidates = [
            m
            for m in media
            if m is not replica.medium
            and m.node not in occupied_nodes
            and m.remaining >= replica.block.size
            and projected(m) < mean
            and fits_after(m)
        ]
        if not candidates:
            return None
        return min(candidates, key=projected)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_iterations: int = 20) -> BalancerReport:
        """Plan and execute until balanced (or the plan dries up)."""
        report = BalancerReport()
        for _ in range(max_iterations):
            moves = self.plan()
            if not moves:
                break
            report.iterations += 1
            procs = [
                self.system.engine.process(
                    self._move_proc(move), name="balancer-move"
                )
                for move in moves
            ]
            results = self.system.engine.run(self.system.engine.all_of(procs))
            for moved in results:
                if moved:
                    report.moves_executed += 1
                    report.bytes_moved += moved
        report.final_spread = self.spread()
        return report

    def _move_proc(self, move: PlannedMove) -> Generator:
        """Copy the replica to the target, then drop the source."""
        master = self.system.master
        meta = master.block_map.get(move.replica.block.block_id)
        if meta is None or not move.replica.live:
            return 0  # the block vanished while we planned
        try:
            move.target.reserve(move.replica.block.capacity)
        except Exception:
            return 0
        worker = master.worker_for(move.target.node)
        block = move.replica.block
        # Named now: a file deleted mid-copy has no path left to derive.
        path, label = meta.path, meta.label
        obs = self.system.obs
        span = None
        if obs.enabled:
            # Explicit root span: this process yields, so the implicit
            # current-span stack cannot carry a parent across resumes
            # (same reasoning as the master's repair process).
            span = obs.tracer.start_span(
                "balancer.move",
                block=label,
                source=move.replica.medium.medium_id,
                destination=move.target.medium_id,
                tier=move.target.tier_name,
            )
        try:
            new_replica = yield from worker.copy_replica_proc(
                block,
                move.replica,
                move.target,
                move.replica.bound_tier,
                parent=span,
            )
            master.attach_replica(meta, new_replica)
        except (WorkerError, BlockError) as exc:
            if span is not None and obs.enabled:
                span.end("error", error=type(exc).__name__)
                obs.metrics.counter("balancer_moves_failed_total").inc()
            return 0
        if span is not None and obs.enabled:
            span.end(bytes=block.size)
            tier = move.target.tier_name
            obs.metrics.counter("balancer_moves_total", tier=tier).inc()
            obs.metrics.counter(
                "balancer_bytes_moved_total", tier=tier
            ).inc(block.size)
        if obs.ledger is not None:
            obs.ledger.on_balancer_move(
                path=path,
                block=label,
                source=move.replica.medium.medium_id,
                destination=move.target.medium_id,
                tier=move.target.tier_name,
                nbytes=block.size,
                span=span,
            )
        # Drop the donor copy, unless the master detached it mid-move.
        if move.replica in meta.replicas:
            master.detach_replica(meta, move.replica)
        return block.size
