"""Inodes: the in-memory representation of files and directories.

Mirrors the HDFS NameNode design: the whole namespace is a tree of
inodes held in the Master's memory. Files carry the paper's
:class:`~repro.core.replication_vector.ReplicationVector` where HDFS
stored a replication short, plus the block list. Directories may carry
quotas — a namespace quota (max inodes in the subtree) and per-tier
space quotas, the paper's §1 "quota mechanisms per storage media" for
fair multi-tenant use of scarce tiers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.core.replication_vector import ReplicationVector
from repro.errors import QuotaExceededError

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.blocks import Block


class INode:
    """Common metadata for files and directories."""

    is_directory = False

    def __init__(
        self,
        name: str,
        owner: str,
        group: str,
        mode: int,
        mtime: float = 0.0,
    ) -> None:
        self.name = name
        self.parent: "INodeDirectory | None" = None
        self.owner = owner
        self.group = group
        self.mode = mode
        self.mtime = mtime

    def path(self) -> str:
        """Reconstruct the absolute path by walking to the root."""
        parts: list[str] = []
        node: INode | None = self
        while node is not None and node.name:
            parts.append(node.name)
            node = node.parent
        return "/" + "/".join(reversed(parts))

    def ancestors(self) -> Iterator["INodeDirectory"]:
        """Enclosing directories, innermost first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dir" if self.is_directory else "file"
        return f"<INode {kind} {self.path()!r}>"


class INodeFile(INode):
    """A file: a replication vector, a block size, and a block list."""

    def __init__(
        self,
        name: str,
        owner: str,
        group: str,
        mode: int,
        rep_vector: ReplicationVector,
        block_size: int,
        mtime: float = 0.0,
    ) -> None:
        super().__init__(name, owner, group, mode, mtime)
        self.rep_vector = rep_vector
        self.block_size = block_size
        self.blocks: list["Block"] = []
        self.under_construction = True
        # Finalized bytes per tier (for per-tier space quotas).
        self.tier_bytes: dict[str, int] = {}

    @property
    def length(self) -> int:
        return sum(block.size for block in self.blocks)

    def complete(self) -> None:
        self.under_construction = False

    def charge_tier(self, tier: str, delta: int) -> None:
        """Record finalized replica bytes on a tier (negative to release)."""
        current = self.tier_bytes.get(tier, 0) + delta
        if current:
            self.tier_bytes[tier] = current
        else:
            self.tier_bytes.pop(tier, None)


class INodeDirectory(INode):
    """A directory: named children plus optional quotas.

    Subtree usage counters (inode count and per-tier stored bytes) are
    maintained eagerly on every mutation so quota checks are O(depth).
    """

    is_directory = True

    def __init__(
        self,
        name: str,
        owner: str,
        group: str,
        mode: int,
        mtime: float = 0.0,
    ) -> None:
        super().__init__(name, owner, group, mode, mtime)
        self.children: dict[str, INode] = {}
        self.namespace_quota: int | None = None
        self.tier_space_quota: dict[str, int] = {}
        # Subtree usage, this directory included in inode_count.
        self.subtree_inodes = 1
        self.subtree_tier_bytes: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Child management (quota-aware)
    # ------------------------------------------------------------------
    def add_child(self, child: INode) -> None:
        assert child.name not in self.children, "caller must check existence"
        self._check_namespace_quota(self._subtree_size_of(child))
        self.children[child.name] = child
        child.parent = self
        self._propagate_inodes(self._subtree_size_of(child))
        for tier, nbytes in self._subtree_bytes_of(child).items():
            self._propagate_bytes(tier, nbytes)

    def remove_child(self, name: str) -> INode:
        child = self.children.pop(name)
        child.parent = None
        self._propagate_inodes(-self._subtree_size_of(child))
        for tier, nbytes in self._subtree_bytes_of(child).items():
            self._propagate_bytes(tier, -nbytes)
        return child

    @staticmethod
    def _subtree_size_of(child: INode) -> int:
        if isinstance(child, INodeDirectory):
            return child.subtree_inodes
        return 1

    @staticmethod
    def _subtree_bytes_of(child: INode) -> dict[str, int]:
        if isinstance(child, INodeDirectory):
            return dict(child.subtree_tier_bytes)
        if isinstance(child, INodeFile):
            return dict(child.tier_bytes)
        return {}

    # ------------------------------------------------------------------
    # Quotas
    # ------------------------------------------------------------------
    def set_quota(
        self,
        namespace_quota: int | None = None,
        tier_space_quota: dict[str, int] | None = None,
    ) -> None:
        """Set or clear quotas; existing usage above a new quota is kept
        (HDFS semantics: the quota only blocks further growth)."""
        self.namespace_quota = namespace_quota
        self.tier_space_quota = dict(tier_space_quota or {})

    def _check_namespace_quota(self, new_inodes: int) -> None:
        for directory in [self, *self.ancestors()]:
            quota = directory.namespace_quota
            if quota is not None and directory.subtree_inodes + new_inodes > quota:
                raise QuotaExceededError(
                    f"namespace quota of {directory.path()!r} exceeded: "
                    f"quota={quota}, would use "
                    f"{directory.subtree_inodes + new_inodes}"
                )

    def check_tier_space(self, tier: str, nbytes: int) -> None:
        """Raise if charging ``nbytes`` on ``tier`` would break a quota
        anywhere up the tree."""
        for directory in [self, *self.ancestors()]:
            quota = directory.tier_space_quota.get(tier)
            if quota is None:
                continue
            used = directory.subtree_tier_bytes.get(tier, 0)
            if used + nbytes > quota:
                raise QuotaExceededError(
                    f"{tier} space quota of {directory.path()!r} exceeded: "
                    f"quota={quota}, used={used}, requested={nbytes}"
                )

    def charge_tier_space(self, tier: str, nbytes: int) -> None:
        """Record ``nbytes`` (may be negative) of ``tier`` usage here and
        up the tree. Callers check quotas first via :meth:`check_tier_space`."""
        self._propagate_bytes(tier, nbytes)

    def _propagate_inodes(self, delta: int) -> None:
        for directory in [self, *self.ancestors()]:
            directory.subtree_inodes += delta

    def _propagate_bytes(self, tier: str, delta: int) -> None:
        for directory in [self, *self.ancestors()]:
            current = directory.subtree_tier_bytes.get(tier, 0) + delta
            if current:
                directory.subtree_tier_bytes[tier] = current
            else:
                directory.subtree_tier_bytes.pop(tier, None)
