"""Workers: block storage and data serving on one node (paper §2.2).

A Worker runs on each storage-bearing node and (i) stores and manages
file-block replicas on the node's media, (ii) serves read/write
requests, and (iii) executes block creation, deletion, and replication
on instructions from the Master. At startup it probes each medium's
sustained write/read throughput (the numbers behind the paper's
Table 2) and it periodically reports heartbeats (usage and load
statistics) and block reports (replica inventory) to the Master.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.errors import BlockError, WorkerError
from repro.fs.blocks import FINALIZED, Block, Replica
from repro.fs.transfer import copy_resources
from repro.util.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.media import StorageMedium
    from repro.cluster.topology import Node


@dataclass
class MediumProbe:
    """One medium's measured throughput from the startup I/O test."""

    medium_id: str
    tier_name: str
    write_throughput: float
    read_throughput: float


@dataclass
class HeartbeatReport:
    """Usage and load statistics sent to the Master."""

    node_name: str
    timestamp: float
    media_remaining: dict[str, int]
    media_connections: dict[str, int]
    network_connections: int


class Worker:
    """The per-node storage daemon."""

    def __init__(
        self,
        cluster: "Cluster",
        node: "Node",
        rng: DeterministicRng | None = None,
    ) -> None:
        if not node.media:
            raise WorkerError(f"node {node.name} has no storage media")
        self.cluster = cluster
        self.node = node
        self.rng = rng or DeterministicRng(cluster.spec.seed, f"worker/{node.name}")
        #: (block_id, medium_id) -> Replica
        self.replicas: dict[tuple[int, str], Replica] = {}
        self.probes = [self._probe_medium(m) for m in node.media]

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def alive(self) -> bool:
        return not self.node.failed

    # ------------------------------------------------------------------
    # Startup throughput probe (§3.2 "short I/O-intensive test")
    # ------------------------------------------------------------------
    def _probe_medium(self, medium: "StorageMedium") -> MediumProbe:
        """Measure sustained throughput with ±2 % run-to-run noise,
        standing in for the paper's short I/O test at Worker launch."""
        jitter = lambda: 1.0 + self.rng.uniform(-0.02, 0.02)  # noqa: E731
        return MediumProbe(
            medium_id=medium.medium_id,
            tier_name=medium.tier_name,
            write_throughput=medium.write_throughput * jitter(),
            read_throughput=medium.read_throughput * jitter(),
        )

    # ------------------------------------------------------------------
    # Replica lifecycle (invoked by Master / client pipelines)
    # ------------------------------------------------------------------
    def medium(self, medium_id: str) -> "StorageMedium":
        for candidate in self.node.media:
            if candidate.medium_id == medium_id:
                return candidate
        raise WorkerError(f"{self.name}: unknown medium {medium_id!r}")

    def create_replica(
        self,
        block: Block,
        medium: "StorageMedium",
        bound_tier: str | None,
        data: bytes | None = None,
    ) -> Replica:
        if medium.node is not self.node:
            raise WorkerError(
                f"{self.name}: medium {medium.medium_id} is not local"
            )
        key = (block.block_id, medium.medium_id)
        if key in self.replicas:
            raise BlockError(
                f"{self.name}: replica of block {block.block_id} already "
                f"exists on {medium.medium_id}"
            )
        replica = Replica(block, medium, bound_tier, data=data)
        self.replicas[key] = replica
        return replica

    def finalize_replica(self, replica: Replica, actual_size: int) -> None:
        """Commit reserved space to stored bytes and mark finalized."""
        replica.medium.commit(replica.block.capacity, actual_size)
        replica.finalize()

    def abort_replica(self, replica: Replica) -> None:
        """Drop an in-flight replica and release its reservation."""
        self.replicas.pop((replica.block.block_id, replica.medium.medium_id), None)
        replica.medium.release_reservation(replica.block.capacity)

    def delete_replica(self, replica: Replica) -> None:
        key = (replica.block.block_id, replica.medium.medium_id)
        if key not in self.replicas:
            return
        del self.replicas[key]
        if replica.state == FINALIZED:
            replica.medium.free(replica.block.size)
        else:
            replica.medium.release_reservation(replica.block.capacity)

    def read_replica(self, block_id: int, medium_id: str) -> Replica:
        key = (block_id, medium_id)
        replica = self.replicas.get(key)
        if replica is None:
            raise BlockError(
                f"{self.name}: no replica of block {block_id} on {medium_id}"
            )
        if replica.damaged or replica.corrupt:
            raise BlockError(
                f"{self.name}: replica of block {block_id} on {medium_id} "
                "failed checksum verification"
            )
        return replica

    def corrupt_replica(self, block_id: int, medium_id: str) -> Replica:
        """Failure injection: flip a replica's checksum state."""
        replica = self.replicas.get((block_id, medium_id))
        if replica is None:
            raise BlockError(f"{self.name}: no such replica to corrupt")
        replica.damaged = True
        return replica

    # ------------------------------------------------------------------
    # Replication transfer (Master-instructed copy onto this worker)
    # ------------------------------------------------------------------
    def copy_replica_proc(
        self,
        block: Block,
        source: Replica,
        destination: "StorageMedium",
        bound_tier: str | None,
        parent=None,
    ) -> Generator:
        """Process: pull a replica from ``source`` onto a local medium.

        The Master already reserved space on ``destination``; this
        process owns that reservation and releases it on any failure.
        Yields until the transfer flow completes; returns the new
        replica. ``parent`` links the transfer's trace span to the
        repair that requested the copy.
        """
        try:
            replica = self.create_replica(
                block, destination, bound_tier, data=source.data
            )
        except Exception:
            # e.g. a concurrent repair already created a copy here; the
            # caller's reservation must not dangle.
            destination.release_reservation(block.capacity)
            raise
        resources = copy_resources(
            self.cluster.topology, source.medium, destination
        )
        try:
            yield self.cluster.flows.transfer(
                block.size, resources,
                label=f"replicate:{block.block_id}->{destination.medium_id}",
                parent=parent,
            )
        except Exception:
            self.abort_replica(replica)
            raise
        self.finalize_replica(replica, block.size)
        obs = self.cluster.obs
        if obs.enabled:
            obs.metrics.counter(
                "replication_bytes_total", tier=destination.tier_name
            ).inc(block.size)
        return replica

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def heartbeat(self) -> HeartbeatReport:
        return HeartbeatReport(
            node_name=self.name,
            timestamp=self.cluster.engine.now,
            media_remaining={m.medium_id: m.remaining for m in self.node.media},
            media_connections={
                m.medium_id: m.nr_connections for m in self.node.media
            },
            network_connections=self.node.nr_connections,
        )

    def block_report(self) -> list[Replica]:
        """The full replica inventory, as sent periodically to the Master."""
        return list(self.replicas.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Worker {self.name} replicas={len(self.replicas)}>"
