"""Blocks, replicas, and the client-visible block location record.

File content is split into large blocks (128 MB by default, §2.1); each
block is independently replicated onto storage media across workers and
tiers. A :class:`Replica` records one copy of one block on one medium;
the Master's block map aggregates them. :class:`BlockLocation` is the
client-visible record returned by ``getFileBlockLocations`` — unlike
HDFS it names the storage *tier* of every replica (Table 1), which is
what lets schedulers make tier-aware decisions (§6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.media import StorageMedium

_block_ids = itertools.count(1000)

FINALIZED = "finalized"
WRITING = "writing"


class Block:
    """One block of a file: its id plus the bytes it holds.

    A block is known by ``block_id`` alone. Which file owns it — and so
    what path names it — is the Master's knowledge, kept on its
    ``BlockMeta`` record: workers and a second master rebuilt over their
    reports share these objects.
    """

    def __init__(
        self, index: int, capacity: int, block_id: int | None = None
    ) -> None:
        self.block_id = next(_block_ids) if block_id is None else block_id
        self.index = index  # position in the owning file's block list
        self.capacity = capacity  # the file's block size
        self.size = 0  # actual bytes written (== capacity except the tail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Block {self.block_id} #{self.index}>"


class Replica:
    """One copy of a block on one storage medium."""

    def __init__(
        self,
        block: Block,
        medium: "StorageMedium",
        bound_tier: str | None,
        data: bytes | None = None,
    ) -> None:
        self.block = block
        self.medium = medium
        #: The tier entry of the replication vector this replica satisfies;
        #: ``None`` marks a U ("unspecified") replica the policy placed.
        self.bound_tier = bound_tier
        self.data = data
        self.state = WRITING
        #: Master-visible corruption (set once a checksum failure is reported).
        self.corrupt = False
        #: Latent on-disk damage; discovered only when a reader checksums it.
        self.damaged = False

    @property
    def tier_name(self) -> str:
        return self.medium.tier_name

    @property
    def node(self):
        return self.medium.node

    @property
    def live(self) -> bool:
        """Usable for reads and as a copy source *right now*."""
        return (
            self.state == FINALIZED
            and not self.corrupt
            and not self.medium.failed
            and not self.medium.node.failed
            and not self.medium.node.unreachable
        )

    @property
    def lost(self) -> bool:
        """Master-visible permanent loss. A replica on a merely
        unreachable (network-silent) node is *not* lost: the data is
        intact and counts again once the node re-heartbeats."""
        return (
            self.corrupt
            or self.medium.failed
            or self.medium.node.failed
        )

    def finalize(self) -> None:
        self.state = FINALIZED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Replica block={self.block.block_id} on "
            f"{self.medium.medium_id} state={self.state}>"
        )


@dataclass(frozen=True)
class BlockLocation:
    """Client-visible location info for one block (Table 1).

    ``hosts``, ``tiers``, and ``media`` are parallel, ordered best-first
    by the active data retrieval policy.
    """

    offset: int
    length: int
    block_id: int
    hosts: tuple[str, ...]
    tiers: tuple[str, ...]
    media: tuple[str, ...]

    def __post_init__(self) -> None:
        assert len(self.hosts) == len(self.tiers) == len(self.media)
