"""Storage media and virtual storage tiers.

A :class:`StorageMedium` is one physical device on one node (a memory
budget, an SSD, one of several HDDs, or a remote-store gateway). Media
with similar performance across the cluster are grouped into a virtual
:class:`StorageTier` (paper §2.2): the tier is a logical, cluster-wide
grouping — e.g. the "SSD" tier holds every SSD medium on every worker
that has one.

Each medium exposes:

* capacity accounting (``capacity`` / ``used`` / ``remaining``) with
  reservations so that in-flight block writes are not double-placed, and
* two fluid-flow resources (write channel, read channel) whose
  ``active_count`` is the paper's ``NrConn[m]`` load statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, InsufficientStorageError
from repro.sim.flows import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Node


class StorageMedium:
    """One physical storage device attached to one node."""

    def __init__(
        self,
        medium_id: str,
        node: "Node",
        tier_name: str,
        capacity: int,
        write_throughput: float,
        read_throughput: float,
        volatile: bool = False,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"medium {medium_id}: capacity must be > 0")
        self.medium_id = medium_id
        self.node = node
        self.tier_name = tier_name
        self.capacity = int(capacity)
        self.volatile = volatile
        self.used = 0
        self.reserved = 0
        self.write_throughput = float(write_throughput)
        self.read_throughput = float(read_throughput)
        self._base_write_throughput = float(write_throughput)
        self._base_read_throughput = float(read_throughput)
        #: Throughput multiplier in (0, 1]; < 1 models a degraded device
        #: (failing sectors, thermal throttling, a worn SSD).
        self.degrade_factor = 1.0
        self.write_channel = Resource(f"{medium_id}/w", write_throughput)
        self.read_channel = Resource(f"{medium_id}/r", read_throughput)
        self.failed = False

    # ------------------------------------------------------------------
    # Degradation (fault injection)
    # ------------------------------------------------------------------
    def degrade(self, factor: float) -> None:
        """Scale both channels to ``factor`` of baseline throughput.

        ``factor=1.0`` restores full speed. In-flight flows keep their
        rates until the caller re-shares them
        (:meth:`repro.sim.flows.FlowScheduler.refresh`); the write itself
        already stops the scheduler reusing anything computed under the
        old capacity (``Resource.capacity`` is a property).
        """
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(
                f"medium {self.medium_id}: degrade factor must be in "
                f"(0, 1], got {factor}"
            )
        self.degrade_factor = factor
        self.write_throughput = self._base_write_throughput * factor
        self.read_throughput = self._base_read_throughput * factor
        self.write_channel.capacity = self.write_throughput
        self.read_channel.capacity = self.read_throughput

    def restore(self) -> None:
        """Undo :meth:`degrade`."""
        self.degrade(1.0)

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def remaining(self) -> int:
        """Bytes still placeable: capacity minus stored and reserved data."""
        return self.capacity - self.used - self.reserved

    @property
    def remaining_fraction(self) -> float:
        """``Rem[m]/Cap[m]`` — the normalized quantity of Eq. 1."""
        return self.remaining / self.capacity

    def reserve(self, nbytes: int) -> None:
        """Hold space for an in-flight block write."""
        if nbytes > self.remaining:
            raise InsufficientStorageError(
                f"medium {self.medium_id}: cannot reserve {nbytes} bytes "
                f"({self.remaining} remaining)"
            )
        self.reserved += nbytes

    def commit(self, reserved_bytes: int, actual_bytes: int) -> None:
        """Convert a reservation into stored data (block finalized)."""
        self.reserved -= reserved_bytes
        self.used += actual_bytes
        if self.reserved < 0 or self.used > self.capacity:
            raise InsufficientStorageError(
                f"medium {self.medium_id}: accounting violated "
                f"(used={self.used}, reserved={self.reserved})"
            )

    def release_reservation(self, nbytes: int) -> None:
        """Drop a reservation for an aborted write."""
        self.reserved = max(0, self.reserved - nbytes)

    def free(self, nbytes: int) -> None:
        """Return space when a replica is deleted."""
        self.used = max(0, self.used - nbytes)

    # ------------------------------------------------------------------
    # Load statistics
    # ------------------------------------------------------------------
    @property
    def nr_connections(self) -> int:
        """``NrConn[m]``: active read + write streams on this medium."""
        return self.write_channel.active_count + self.read_channel.active_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StorageMedium {self.medium_id} tier={self.tier_name} "
            f"used={self.used}/{self.capacity}>"
        )


@dataclass
class TierStatistics:
    """Aggregate information reported by ``getStorageTierReports``."""

    tier_name: str
    media_count: int
    total_capacity: int
    used: int
    remaining: int
    avg_write_throughput: float
    avg_read_throughput: float
    active_connections: int

    @property
    def remaining_percent(self) -> float:
        if self.total_capacity == 0:
            return 0.0
        return 100.0 * self.remaining / self.total_capacity


class StorageTier:
    """A cluster-wide virtual grouping of same-performance media.

    ``rank`` orders tiers by performance: rank 0 is the fastest
    ("highest") tier. The paper uses Memory(0) < SSD(1) < HDD(2) <
    Remote(3).
    """

    def __init__(self, name: str, rank: int, volatile: bool = False) -> None:
        self.name = name
        self.rank = rank
        self.volatile = volatile
        self.media: list[StorageMedium] = []

    def add_medium(self, medium: StorageMedium) -> None:
        if medium.tier_name != self.name:
            raise ConfigurationError(
                f"medium {medium.medium_id} belongs to tier "
                f"{medium.tier_name!r}, not {self.name!r}"
            )
        self.media.append(medium)

    @property
    def live_media(self) -> list[StorageMedium]:
        return [
            m
            for m in self.media
            if not m.failed and not m.node.failed and not m.node.unreachable
        ]

    def avg_write_throughput(self) -> float:
        """Per-tier average used by the throughput objective (Eq. 7)."""
        live = self.live_media
        if not live:
            return 0.0
        return sum(m.write_throughput for m in live) / len(live)

    def avg_read_throughput(self) -> float:
        live = self.live_media
        if not live:
            return 0.0
        return sum(m.read_throughput for m in live) / len(live)

    def statistics(self) -> TierStatistics:
        live = self.live_media
        return TierStatistics(
            tier_name=self.name,
            media_count=len(live),
            total_capacity=sum(m.capacity for m in live),
            used=sum(m.used for m in live),
            remaining=sum(m.remaining for m in live),
            avg_write_throughput=self.avg_write_throughput(),
            avg_read_throughput=self.avg_read_throughput(),
            active_connections=sum(m.nr_connections for m in live),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StorageTier {self.name} rank={self.rank} media={len(self.media)}>"
