"""The (Primary) Master: namespace + block locations (paper §2.1).

The Master maintains the two metadata collections of the paper — the
directory namespace and the block-location map — and regulates all
access. It owns the pluggable block *placement* policy (§3.3) invoked on
every block allocation and replication-vector change, the pluggable
data *retrieval* policy (§4.2) used to order replicas for reads, and the
replication manager (§5) that repairs under-replication and trims
over-replication.

Workers register at startup and report heartbeats (usage/load
statistics) and block reports (replica inventories); a worker missing
heartbeats past the expiry window is declared dead and its replicas
trigger re-replication — memory replicas are lost with it, which is why
the placement policy treats volatile tiers specially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Iterable, Sequence

from repro.core.moop import PlacementRequest
from repro.core.objectives import ObjectiveContext
from repro.core.placement import BlockPlacementPolicy, MoopPlacementPolicy
from repro.core.replication import (
    ReplicationActions,
    analyze_block,
    choose_replica_to_remove,
)
from repro.core.replication_vector import ReplicationVector
from repro.core.retrieval import DataRetrievalPolicy, OctopusRetrievalPolicy
from repro.cluster.media import TierStatistics
from repro.errors import (
    BlockError,
    FileSystemError,
    InsufficientStorageError,
    LeaseError,
    RetrievalError,
    StaleVectorError,
    WorkerError,
)
from repro.fs.blocks import FINALIZED, Block, BlockLocation, Replica
from repro.fs.editlog import EditLog
from repro.fs.inode import INodeFile
from repro.fs.namespace import SUPERUSER, FileStatus, Namespace, UserContext
from repro.fs.worker import HeartbeatReport, Worker

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.media import StorageMedium
    from repro.cluster.topology import Node

#: Heartbeats older than this many seconds mark a worker dead.
DEFAULT_HEARTBEAT_EXPIRY = 30.0

#: HDFS's ``dfs.namenode.replication.work.multiplier.per.iteration``
#: at its default: one replication pass schedules copies for at most
#: this many blocks per reachable worker, and leaves the rest queued.
REPLICATION_WORK_MULTIPLIER_PER_ITERATION = 2


@dataclass
class BlockMeta:
    """Master-side record for one block."""

    block: Block
    inode: INodeFile
    replicas: list[Replica] = field(default_factory=list)

    def live_replicas(self) -> list[Replica]:
        return [r for r in self.replicas if r.live]

    @property
    def path(self) -> str:
        """The owning file's path, derived from the tree when asked."""
        return self.inode.path()

    @property
    def label(self) -> str:
        """The block's name in exports (ids are process-global counters)."""
        return f"{self.inode.path()}#{self.block.index}"


@dataclass
class WorkerRecord:
    worker: Worker
    last_heartbeat: float = 0.0
    last_report: HeartbeatReport | None = None
    #: The worker's process is gone (node failure); volatile replicas
    #: died with it and a recovery is a fresh re-registration.
    dead: bool = False
    #: Heartbeats stopped but the node is not known to have crashed: the
    #: worker is unreachable, its on-disk data presumed intact. Distinct
    #: from ``dead`` so a re-heartbeat is a reconciliation, not a fresh
    #: registration.
    silent: bool = False

    @property
    def reachable(self) -> bool:
        """Can the master route requests to this worker right now?"""
        return not self.dead and not self.silent


class Master:
    """The primary master: the one name service of a deployment."""

    def __init__(
        self,
        cluster: "Cluster",
        placement_policy: BlockPlacementPolicy | None = None,
        retrieval_policy: DataRetrievalPolicy | None = None,
        heartbeat_expiry: float = DEFAULT_HEARTBEAT_EXPIRY,
        name: str = "master",
    ) -> None:
        self.cluster = cluster
        self.name = name
        self.obs = cluster.obs
        self.namespace = Namespace(
            clock=lambda: cluster.engine.now,
            tier_order=tuple(cluster.tier_order),
        )
        self.edit_log = EditLog()
        self.namespace.add_listener(self.edit_log.append)
        self.placement_policy = placement_policy or MoopPlacementPolicy(
            memory_enabled=True
        )
        self.retrieval_policy = retrieval_policy or OctopusRetrievalPolicy(
            cluster.rng.fork("retrieval")
        )
        self.heartbeat_expiry = heartbeat_expiry
        self.block_map: dict[int, BlockMeta] = {}
        self.workers: dict[str, WorkerRecord] = {}
        self._dirty_blocks: set[int] = set()
        #: Blocks a pass skipped because their file was open; they are
        #: queued when the file completes (HDFS checks on completeFile).
        self._skipped_open: set[int] = set()
        #: Ids of the blocks the last pass that examined them found with
        #: no live replica (HDFS's ``getMissingBlocksCount``). A block
        #: leaves once a pass finds a live replica again (a returning
        #: holder marks its blocks dirty) or when it is deleted.
        self.missing_blocks: set[int] = set()

    # ------------------------------------------------------------------
    # Worker membership
    # ------------------------------------------------------------------
    def register_worker(self, worker: Worker) -> None:
        self.workers[worker.name] = WorkerRecord(
            worker=worker, last_heartbeat=self.cluster.engine.now
        )

    def worker_for(self, node: "Node") -> Worker:
        record = self.workers.get(node.name)
        if record is None or not record.reachable:
            raise WorkerError(f"no live worker on node {node.name}")
        return record.worker

    def receive_heartbeat(self, report: HeartbeatReport) -> None:
        record = self.workers.get(report.node_name)
        if record is None:
            raise WorkerError(f"heartbeat from unregistered {report.node_name}")
        record.last_heartbeat = report.timestamp
        record.last_report = report
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("heartbeats_total").inc()
        if record.silent or record.worker.node.unreachable:
            # The worker was only unreachable — its replicas are intact
            # and count again. Mark its blocks dirty so the replication
            # manager reconciles (typically trimming the re-replication
            # surplus the outage provoked). A partition shorter than the
            # heartbeat expiry never sets ``silent``, but its replicas
            # were hidden from liveness all the same — so the trigger is
            # the node-level flag, not only the master's verdict.
            record.silent = False
            record.worker.node.unreachable = False
            self.mark_dirty(record.worker.block_report())
            if obs.enabled:
                obs.tracer.event("worker.reconciled", worker=report.node_name)
                obs.metrics.counter("workers_reconciled_total").inc()
        if record.dead and not record.worker.node.failed:
            record.dead = False  # worker re-joined
            if obs.enabled:
                obs.tracer.event("worker.rejoined", worker=report.node_name)

    def receive_block_report(self, worker: Worker) -> int:
        """Reconcile a worker's replica inventory with the block map.

        Returns the number of stale replicas the worker was told to drop
        (replicas of deleted blocks, e.g. after a master restart).
        """
        dropped = 0
        for replica in worker.block_report():
            meta = self.block_map.get(replica.block.block_id)
            if meta is None:
                worker.delete_replica(replica)
                dropped += 1
                continue
            if replica not in meta.replicas:
                self.attach_replica(meta, replica)
                self._dirty_blocks.add(replica.block.block_id)
        return dropped

    def check_worker_liveness(self) -> list[str]:
        """Expire workers whose heartbeats stopped; returns their names.

        Death and silence are distinct: a worker on a *failed* node is
        declared dead (replicas lost, volatile data gone), while one that
        merely stopped heartbeating is declared silent — unreachable, but
        with its data presumed intact so a later re-heartbeat reconciles
        instead of re-registering from scratch.
        """
        now = self.cluster.engine.now
        obs = self.obs
        expired = []
        for record in self.workers.values():
            node = record.worker.node
            if node.failed:
                if not record.dead:
                    expired.append(node.name)
                    self.declare_dead(node.name)
                continue
            if record.dead or record.silent:
                continue
            if now - record.last_heartbeat > self.heartbeat_expiry:
                record.silent = True
                # Reflect the master's verdict in the cluster view so
                # placement and replica liveness stop counting the node;
                # receive_heartbeat undoes this when contact resumes.
                node.unreachable = True
                expired.append(record.worker.name)
                self.mark_dirty(record.worker.block_report())
                if obs.enabled:
                    obs.tracer.event("worker.silent", worker=node.name)
                    obs.metrics.counter("workers_declared_silent_total").inc()
                if obs.ledger is not None:
                    obs.ledger.on_liveness("silent", node.name)
        self._publish_reachable()
        return expired

    def declare_dead(self, name: str) -> None:
        """Declare the worker on a failed node dead: its replicas are
        lost, so its blocks are marked for repair.

        The liveness sweep calls this for each failed node it finds; a
        crash calls it for its own node alone, because the sweep's
        heartbeat-expiry rule belongs to the service that sends the
        heartbeats.
        """
        record = self.workers[name]
        obs = self.obs
        if not record.dead:
            record.dead = True
            record.silent = False
            self.mark_dirty(record.worker.block_report())
            if obs.enabled:
                obs.tracer.event("worker.dead", worker=name)
                obs.metrics.counter("workers_declared_dead_total").inc()
            if obs.ledger is not None:
                obs.ledger.on_liveness("dead", name)
        self._publish_reachable()

    def _publish_reachable(self) -> None:
        if self.obs.enabled:
            self.obs.metrics.gauge("workers_reachable").set(
                sum(1 for r in self.workers.values() if r.reachable)
            )

    # ------------------------------------------------------------------
    # Namespace operations (delegate + block bookkeeping)
    # ------------------------------------------------------------------
    def _admit_vector(self, rep_vector: ReplicationVector) -> None:
        """Refuse a vector that names a tier with no live medium."""
        tiers = self.cluster.tiers
        for name in rep_vector.explicit_tiers:
            if name not in tiers or not tiers[name].has_live_medium:
                active = [t.name for t in self.cluster.active_tiers()]
                raise InsufficientStorageError(
                    f"vector {rep_vector.shorthand()} requests tiers absent "
                    f"from the cluster (active: {sorted(active)})"
                )

    def mkdir(self, path: str, user: UserContext = SUPERUSER, mode: int = 0o755) -> None:
        self.namespace.mkdir(path, user, mode)

    def create_file(
        self,
        path: str,
        rep_vector: ReplicationVector,
        block_size: int | None = None,
        user: UserContext = SUPERUSER,
        overwrite: bool = False,
    ) -> INodeFile:
        if block_size is None:
            block_size = self.cluster.block_size
        elif block_size <= 0:
            raise FileSystemError(f"block size must be positive, not {block_size}")
        self._admit_vector(rep_vector)
        inode, freed = self.namespace.create_file(
            path,
            rep_vector,
            block_size,
            user,
            overwrite=overwrite,
        )
        for block in freed:
            self._drop_block(block)
        return inode

    def complete_file(self, path: str, user: UserContext = SUPERUSER) -> None:
        inode = self.namespace.complete_file(path, user)
        for block in inode.blocks:
            if block.block_id in self._skipped_open:
                self._skipped_open.remove(block.block_id)
                self._dirty_blocks.add(block.block_id)

    def delete(
        self, path: str, recursive: bool = False, user: UserContext = SUPERUSER
    ) -> int:
        """Delete a path; replicas are freed immediately. Returns blocks freed."""
        blocks = self.namespace.delete(path, recursive, user)
        if self.obs.ledger is not None and blocks:
            self.obs.ledger.on_delete(path, blocks=len(blocks))
        for block in blocks:
            self._drop_block(block)
        return len(blocks)

    def rename(self, src: str, dst: str, user: UserContext = SUPERUSER) -> None:
        self.namespace.rename(src, dst, user)

    def _drop_block(self, block: Block) -> None:
        meta = self.block_map.pop(block.block_id, None)
        self._dirty_blocks.discard(block.block_id)
        self._skipped_open.discard(block.block_id)
        self.missing_blocks.discard(block.block_id)
        if meta is None:
            return
        for replica in list(meta.replicas):
            self._delete_replica_from_worker(replica)

    def _delete_replica_from_worker(self, replica: Replica) -> None:
        record = self.workers.get(replica.node.name)
        if record is not None:
            record.worker.delete_replica(replica)

    # ------------------------------------------------------------------
    # Replica lifecycle: all that edits ``meta.replicas`` and tier usage
    # ------------------------------------------------------------------
    def attach_replica(self, meta: BlockMeta, replica: Replica) -> None:
        """A finalized replica joins its block; the file's tier usage
        (and every ancestor directory's) is charged ``block.size``.

        A copy can outlive its file: if ``meta`` is no longer the record
        mapped under its id (deleted or overwritten while a repair was in
        flight), the worker drops the replica and :class:`BlockError` is
        raised instead.
        """
        if self.block_map.get(meta.block.block_id) is not meta:
            self._delete_replica_from_worker(replica)
            raise BlockError(
                f"block {meta.block.block_id} was deleted while a replica "
                "of it was being copied"
            )
        meta.replicas.append(replica)
        self.namespace.charge_tier_space(
            meta.inode, replica.tier_name, meta.block.size
        )

    def detach_replica(
        self, meta: BlockMeta, replica: Replica, cause: str | None = None
    ) -> None:
        """A replica leaves its block: the worker drops it, the tier
        usage is refunded. ``cause`` names a deliberate removal for the
        ledger; losses pass none — their fault is already on record."""
        meta.replicas.remove(replica)
        self._delete_replica_from_worker(replica)
        self.namespace.charge_tier_space(
            meta.inode, replica.tier_name, -meta.block.size
        )
        if cause is not None and self.obs.ledger is not None:
            self.obs.ledger.on_replica_removed(
                meta.path,
                block=meta.label,
                medium=replica.medium.medium_id,
                tier=replica.tier_name,
                cause=cause,
            )

    def mark_dirty(self, replicas: Iterable[Replica]) -> None:
        """Queue the blocks of ``replicas`` for the next replication pass."""
        self._dirty_blocks.update(r.block.block_id for r in replicas)

    # ------------------------------------------------------------------
    # Block allocation / commit (the write path, §3.1)
    # ------------------------------------------------------------------
    def allocate_block(
        self,
        path: str,
        client_node: "Node | None" = None,
        user: UserContext = SUPERUSER,
    ) -> tuple[Block, list["StorageMedium"]]:
        """Pick the media that will host the next block's replicas.

        Invokes the pluggable placement policy, reserves space on every
        chosen medium, and registers in-flight (WRITING) replicas with
        the owning workers.
        """
        inode = self.namespace.get_file(path, user)
        if not inode.under_construction:
            raise LeaseError(f"file {path!r} is not open for writing")
        block = Block(len(inode.blocks), inode.block_size)
        meta = BlockMeta(block=block, inode=inode)
        request = PlacementRequest(
            rep_vector=inode.rep_vector,
            block_size=inode.block_size,
            client_node=client_node,
        )
        obs = self.obs
        alloc_span = None
        if obs.enabled:
            # The allocation span covers the placement decision; while it
            # is the implicit current span (this method never yields),
            # ``place_replicas`` parents its ``placement.decision`` event
            # here and fills ``obs.last_placement`` for the caller.
            obs.last_placement = None
            span = obs.tracer.start_span(
                "master.allocate_block",
                block=meta.label,
                vector=inode.rep_vector.shorthand(),
            )
            with obs.tracer.use(span):
                try:
                    targets = self.placement_policy.choose_targets(
                        self.cluster, request
                    )
                except Exception as exc:
                    span.end("error", error=type(exc).__name__)
                    obs.metrics.counter("allocations_failed_total").inc()
                    raise
            span.annotate(
                targets=[m.medium_id for m in targets],
                tiers=[m.tier_name for m in targets],
            )
            if obs.last_placement is not None:
                span.annotate(placement_score=obs.last_placement["score"])
            span.end()
            obs.metrics.counter("allocations_total").inc()
            alloc_span = span
        else:
            targets = self.placement_policy.choose_targets(self.cluster, request)
        self._check_quota_for_targets(inode, targets)
        for medium in targets:
            medium.reserve(inode.block_size)
        inode.blocks.append(block)
        self.block_map[block.block_id] = meta
        if obs.ledger is not None:
            obs.ledger.on_placement(
                path=meta.path,
                block=meta.label,
                vector=inode.rep_vector.shorthand(),
                cause="allocate",
                targets=targets,
                decision=obs.last_placement,
                span=alloc_span,
            )
        return block, targets

    def _check_quota_for_targets(
        self, inode: INodeFile, targets: Sequence["StorageMedium"]
    ) -> None:
        per_tier: dict[str, int] = {}
        for medium in targets:
            per_tier[medium.tier_name] = (
                per_tier.get(medium.tier_name, 0) + inode.block_size
            )
        for tier, nbytes in per_tier.items():
            self.namespace.check_tier_space(inode, tier, nbytes)

    def bound_tiers_for_targets(
        self, vector: ReplicationVector, targets: Sequence["StorageMedium"]
    ) -> list[str | None]:
        """Match chosen media back to vector entries (explicit vs U).

        Explicit tier entries bind to media of that tier first; leftover
        media carry ``None`` (they satisfy U entries).
        """
        budget = dict(vector.tier_counts)
        bound: list[str | None] = []
        for medium in targets:
            if budget.get(medium.tier_name, 0) > 0:
                budget[medium.tier_name] -= 1
                bound.append(medium.tier_name)
            else:
                bound.append(None)
        return bound

    def commit_block(
        self, block: Block, actual_size: int, replicas: Sequence[Replica]
    ) -> None:
        """Finalize a written block: commit space, charge quotas."""
        meta = self.block_map.get(block.block_id)
        if meta is None:
            raise BlockError(f"commit for unknown block {block.block_id}")
        block.size = actual_size
        for replica in replicas:
            worker = self.worker_for(replica.node)
            worker.finalize_replica(replica, actual_size)
            self.attach_replica(meta, replica)
        self.namespace.log_block(meta.inode, block)

    def abort_block(self, block: Block, replicas: Sequence[Replica]) -> None:
        """Roll back a failed pipeline write."""
        meta = self.block_map.pop(block.block_id, None)
        self._skipped_open.discard(block.block_id)
        for replica in replicas:
            record = self.workers.get(replica.node.name)
            if record is not None:
                record.worker.abort_replica(replica)
        if meta is not None and block in meta.inode.blocks:
            meta.inode.blocks.remove(block)

    # ------------------------------------------------------------------
    # The read path (§4.1)
    # ------------------------------------------------------------------
    def get_block_replicas(
        self, path: str, client_node: "Node | None" = None,
        user: UserContext = SUPERUSER,
    ) -> list[list[Replica]]:
        """Per-block replica lists, each ordered by the retrieval policy."""
        return self.order_block_replicas(
            self.namespace.get_file(path, user), path, client_node
        )

    def order_block_replicas(
        self, inode: INodeFile, path: str, client_node: "Node | None"
    ) -> list[list[Replica]]:
        """The read path's one body, for a caller that holds the inode
        ``path`` resolved (and was permission-checked) to."""
        return [self._order_block(b, path, client_node) for b in inode.blocks]

    def _order_block(
        self, block: Block, path: str, client_node: "Node | None"
    ) -> list[Replica]:
        """One block's live replicas, best-first for ``client_node``."""
        meta = self.block_map.get(block.block_id)
        live = meta.live_replicas() if meta else []
        if not live:
            raise RetrievalError(
                f"block {block.block_id} of {path!r} has no live replica"
            )
        return self.retrieval_policy.order_replicas(
            live, client_node, self.cluster.topology
        )

    def get_file_block_locations(
        self,
        path: str,
        start: int = 0,
        length: int | None = None,
        client_node: "Node | None" = None,
        user: UserContext = SUPERUSER,
    ) -> list[BlockLocation]:
        """Table 1's ``getFileBlockLocations``: ranged, tier-annotated.

        Only the blocks overlapping ``[start, start + length)`` are
        ordered, so a block outside the range that has no live replica
        does not fail the call. A negative ``start`` or ``length`` is
        rejected, as HDFS ``getBlockLocations`` rejects it.
        """
        if start < 0 or (length or 0) < 0:
            raise ValueError(f"negative range: start={start}, length={length}")
        inode = self.namespace.get_file(path, user)
        if length is None:
            length = max(0, inode.length - start)
        end = start + length
        locations: list[BlockLocation] = []
        offset = 0
        for block in inode.blocks:
            block_start, block_end = offset, offset + block.size
            offset = block_end
            if block_end <= start or block_start >= end:
                continue
            media = [r.medium for r in self._order_block(block, path, client_node)]
            # hosts, tiers, media: parallel tuples, best-first
            columns = zip(*[(m.node.name, m.tier_name, m.medium_id) for m in media])
            locations.append(
                BlockLocation(block_start, block.size, block.block_id, *columns)
            )
        return locations

    def report_corrupt_replica(self, block_id: int, medium_id: str) -> None:
        """Client-detected checksum failure: quarantine and repair."""
        meta = self.block_map.get(block_id)
        if meta is None:
            return
        for replica in meta.replicas:
            if replica.medium.medium_id == medium_id:
                replica.corrupt = True
                self._dirty_blocks.add(block_id)

    # ------------------------------------------------------------------
    # Replication vectors (§2.3 / §5)
    # ------------------------------------------------------------------
    def set_replication(
        self,
        path: str,
        rep_vector: ReplicationVector,
        user: UserContext = SUPERUSER,
        expected: ReplicationVector | None = None,
    ) -> dict[str, int]:
        """Change a file's vector; returns the per-tier delta.

        Asynchronous by design (like HDFS): the namespace updates
        immediately, and the replication manager converges the blocks on
        its next pass (:meth:`check_replication`).

        ``expected`` arms a compare-and-set: the change applies only if
        the file's current vector still equals it, else
        :class:`~repro.errors.StaleVectorError` is raised. Automated
        callers (the tiering engine) use this so a decision made against
        an observed vector never clobbers a concurrent application
        change. Files under construction reject vector changes outright
        — their blocks are still being placed against the create-time
        vector.
        """
        self._admit_vector(rep_vector)
        current = self.namespace.get_file(path, user)
        if current.under_construction:
            raise LeaseError(
                f"cannot change replication of {path!r} while it is "
                "under construction"
            )
        if expected is not None and current.rep_vector != expected:
            if self.obs.ledger is not None:
                self.obs.ledger.on_set_replication(
                    path,
                    old=current.rep_vector.shorthand(),
                    new=rep_vector.shorthand(),
                    cas=True,
                    outcome="stale",
                )
            raise StaleVectorError(
                f"vector of {path!r} is {current.rep_vector.shorthand()}, "
                f"not the expected {expected.shorthand()}"
            )
        inode, old = self.namespace.set_replication_vector(path, rep_vector, user)
        if self.obs.ledger is not None:
            self.obs.ledger.on_set_replication(
                path,
                old=old.shorthand(),
                new=rep_vector.shorthand(),
                cas=expected is not None,
            )
        for block in inode.blocks:
            self._dirty_blocks.add(block.block_id)
        return old.diff(rep_vector)

    # ------------------------------------------------------------------
    # Replication management (§5)
    # ------------------------------------------------------------------
    def check_replication(self, full_scan: bool = False) -> list:
        """One replication-manager pass.

        Examines dirty blocks (or all blocks with ``full_scan``),
        repairs under-replication by scheduling copy processes on the
        engine, and trims over-replication immediately. Deficits are
        always handled before surpluses so a tier *move* copies first
        and deletes only once the new replica exists.

        As in HDFS's ReplicationMonitor, a pass schedules copies for at
        most :data:`REPLICATION_WORK_MULTIPLIER_PER_ITERATION` blocks
        per reachable worker; the blocks it does not reach stay queued
        for the next pass. Blocks that are balanced, only trimmed, or
        whose placement failed do not count.

        Returns the list of spawned repair processes; run the engine to
        completion (or await them) to let the copies finish.
        """
        block_ids = (
            list(self.block_map) if full_scan else list(self._dirty_blocks)
        )
        self._dirty_blocks.clear()
        processes = []
        # Most-endangered blocks first, as in HDFS's replication queues.
        # Ties break on (path, index), never on block id: ids are
        # process-global counters, and an int set like _dirty_blocks
        # iterates in value order, so id-dependent ordering would make
        # otherwise identical runs repair (and place) differently.
        metas = [self.block_map[b] for b in block_ids if b in self.block_map]
        metas.sort(
            key=lambda meta: (
                len(meta.live_replicas()), meta.path, meta.block.index
            )
        )
        budget = REPLICATION_WORK_MULTIPLIER_PER_ITERATION * sum(
            1 for record in self.workers.values() if record.reachable
        )
        for position, meta in enumerate(metas):
            if budget == 0:
                self._dirty_blocks.update(
                    m.block.block_id for m in metas[position:]
                )
                break
            spawned = self._converge_block(meta)
            if spawned:
                processes.extend(spawned)
                budget -= 1
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("replication_passes_total").inc()
            obs.metrics.counter("repairs_scheduled_total").inc(len(processes))
            obs.metrics.gauge("replication_pending").set(
                len(self._dirty_blocks)
            )
        return processes

    def _converge_block(self, meta: BlockMeta) -> list:
        if meta.inode.under_construction:
            self._skipped_open.add(meta.block.block_id)
            return []
        # Lost replicas (dead nodes/media, flagged corrupt) hold no usable
        # data yet still occupy their medium; drop them up front so repair
        # placement can reuse the slot. Those on merely unreachable nodes
        # stay: the data counts again once the node re-heartbeats.
        for replica in list(meta.replicas):
            if replica.state == FINALIZED and replica.lost:
                self.detach_replica(meta, replica)
        live = meta.live_replicas()
        block_id = meta.block.block_id
        if not live:
            # Data loss, or every holder unreachable: nothing to copy
            # from until a holder returns and marks the block dirty.
            if block_id not in self.missing_blocks:
                self.missing_blocks.add(block_id)
                if self.obs.enabled:
                    self.obs.tracer.event("repair.missing", block=meta.label)
                    self.obs.metrics.counter("blocks_missing_total").inc()
            return []
        self.missing_blocks.discard(block_id)
        actions = analyze_block(meta.inode.rep_vector, live)
        processes = []
        if actions.additions:
            for tier in actions.additions:
                proc = self._schedule_repair(meta, tier)
                if proc is not None:
                    processes.append(proc)
            return processes  # removals wait until additions are done
        removable = dict(actions.removable_tiers)
        for _ in range(actions.removals):
            candidates = meta.live_replicas()
            eligible = {t: n for t, n in removable.items() if n > 0}
            if not eligible or len(candidates) <= 1:
                break
            ctx = ObjectiveContext.from_cluster(
                self.cluster, block_size=meta.block.capacity
            )
            replica = choose_replica_to_remove(candidates, eligible, ctx)
            self.detach_replica(meta, replica, cause="over_replication")
            removable[replica.tier_name] -= 1
        return processes

    def _schedule_repair(self, meta: BlockMeta, tier: str | None):
        """Place and launch one re-replication copy; None if impossible."""
        vector = (
            ReplicationVector({tier: 1})
            if tier is not None
            else ReplicationVector(unspecified=1)
        )
        request = PlacementRequest(
            rep_vector=vector,
            block_size=meta.block.capacity,
            existing_replicas=tuple(r.medium for r in meta.replicas if r.live),
            memory_enabled=True,
        )
        obs = self.obs
        if obs.ledger is not None:
            # Clear the side channel so a stale earlier decision cannot
            # masquerade as this repair's placement scores.
            obs.last_placement = None
        try:
            targets = self.placement_policy.choose_targets(self.cluster, request)
        except InsufficientStorageError:
            self._dirty_blocks.add(meta.block.block_id)  # retry later
            if self.obs.enabled:
                self.obs.tracer.event(
                    "repair.deferred",
                    block=meta.label,
                    tier=tier,
                )
                self.obs.metrics.counter("repairs_deferred_total").inc()
            return None
        destination = targets[0]
        # Copy from the most efficient source, judged by the retrieval
        # policy from the destination node's vantage point (§5).
        source = self.retrieval_policy.order_replicas(
            meta.live_replicas(), destination.node, self.cluster.topology
        )[0]
        destination.reserve(meta.block.capacity)
        worker = self.worker_for(destination.node)
        # Snapshot the placement scores and the recent fault/liveness
        # context *now* — by the time the repair process runs, both may
        # describe some other decision, and the block's name with them:
        # a file deleted meanwhile has no path left to derive.
        placement, context = None, []
        if obs.ledger is not None:
            placement = obs.last_placement
            context = obs.ledger.recent_context()
        return self.cluster.engine.process(
            self._repair_proc(
                meta, worker, source, destination, tier, placement, context,
                meta.path, meta.label,
            ),
            name=f"repair:{meta.block.block_id}",
        )

    def _repair_proc(
        self,
        meta: BlockMeta,
        worker: Worker,
        source: Replica,
        destination: "StorageMedium",
        tier: str | None,
        placement: dict | None,
        context: list,
        path: str,
        label: str,
    ) -> Generator:
        obs = self.obs
        span = None
        if obs.enabled:
            # Explicit root span: this process yields, so the implicit
            # current-span stack cannot carry the parent across resumes.
            span = obs.tracer.start_span(
                "master.repair",
                block=label,
                tier=tier,
                source=source.medium.medium_id,
                destination=destination.medium_id,
            )
        ledger_rec = None
        if obs.ledger is not None:
            ledger_rec = obs.ledger.on_repair(
                path=path,
                block=label,
                tier=tier,
                source=source.medium.medium_id,
                destination=destination.medium_id,
                destination_tier=destination.tier_name,
                placement=placement,
                context=context,
                span=span,
            )
        try:
            replica = yield from worker.copy_replica_proc(
                meta.block, source, destination, tier, parent=span
            )
            self.attach_replica(meta, replica)
        except Exception as exc:
            self._dirty_blocks.add(meta.block.block_id)
            if span is not None and obs.enabled:
                span.end("error", error=type(exc).__name__)
                obs.metrics.counter("repairs_failed_total").inc()
            if obs.ledger is not None:
                obs.ledger.on_repair_outcome(ledger_rec, "failed")
            return None
        if span is not None and obs.enabled:
            span.end()
            obs.metrics.counter("repairs_completed_total").inc()
        if obs.ledger is not None:
            obs.ledger.on_repair_outcome(ledger_rec, "completed")
        # Re-examine: more additions may be pending, or now-excess copies.
        self._dirty_blocks.add(meta.block.block_id)
        return replica

    @property
    def pending_replication(self) -> int:
        return len(self._dirty_blocks)

    # ------------------------------------------------------------------
    # Restart / failover support (used by BackupMaster, §2.1)
    # ------------------------------------------------------------------
    def adopt_namespace(self, namespace: Namespace) -> None:
        """Replace this master's namespace with a restored image."""
        self.namespace = namespace
        self.edit_log = EditLog()
        namespace.add_listener(self.edit_log.append)
        namespace._clock = lambda: self.cluster.engine.now

    def rebuild_from_block_reports(self, workers) -> int:
        """Reconstruct the block map from worker inventories.

        A reported replica is matched by block id — checkpoints and
        ``add_block`` records persist the ids — to the restored file
        that lists it; that inode's placeholder Block is replaced with
        the live one the workers hold, so identities line up again. An
        id no restored file lists is a stale replica (its file was
        deleted, or the image predates it) and is deleted, exactly as in
        :meth:`receive_block_report`. Returns the replicas adopted.
        """
        adopted = 0
        owners: dict[int, tuple[INodeFile, int]] = {
            block.block_id: (inode, index)
            for inode in self.namespace.iter_files()
            for index, block in enumerate(inode.blocks)
        }
        for worker in workers:
            if worker.name not in self.workers:
                self.register_worker(worker)
            for replica in worker.block_report():
                owner = owners.get(replica.block.block_id)
                if owner is None:
                    worker.delete_replica(replica)
                    continue
                inode, index = owner
                inode.blocks[index] = replica.block
                meta = self.block_map.setdefault(
                    replica.block.block_id,
                    BlockMeta(block=replica.block, inode=inode),
                )
                if replica not in meta.replicas:
                    self.attach_replica(meta, replica)
                    adopted += 1
                self._dirty_blocks.add(replica.block.block_id)
        return adopted

    # ------------------------------------------------------------------
    # Tier reports (Table 1's getStorageTierReports)
    # ------------------------------------------------------------------
    def get_storage_tier_reports(self) -> list[TierStatistics]:
        return [tier.statistics() for tier in self.cluster.active_tiers()]

    # ------------------------------------------------------------------
    # Misc queries
    # ------------------------------------------------------------------
    def get_status(self, path: str, user: UserContext = SUPERUSER) -> FileStatus:
        return self.namespace.get_status(path, user)

    def list_status(
        self, path: str, user: UserContext = SUPERUSER
    ) -> list[FileStatus]:
        return self.namespace.list_status(path, user)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Master {self.name} blocks={len(self.block_map)} "
            f"workers={len(self.workers)}>"
        )
