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

from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.replication_vector import ReplicationVector
from repro.errors import QuotaExceededError

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.blocks import Block

#: The per-tier usage or quota of an inode that has none, and the
#: children of an empty directory: one shared, read-only mapping. Most
#: inodes never store a byte on a tier or carry a quota, and many
#: directories stay empty, so none of them owns an empty dict; the
#: writers (:func:`_add`, :meth:`INodeDirectory.set_quota`,
#: :meth:`INodeDirectory._link` and ``_unlink``) swap in a dict of the
#: inode's own at the first entry and back to this at the last.
EMPTY: Mapping[str, Any] = MappingProxyType({})


class INode:
    """Common metadata for files and directories."""

    # No per-instance dict: the master holds one inode per namespace
    # entry, and the namespace's size is bounded by their bytes.
    __slots__ = ("name", "parent", "owner", "group", "mode", "mtime")

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dir" if self.is_directory else "file"
        return f"<INode {kind} {self.path()!r}>"


class INodeFile(INode):
    """A file: a replication vector, a block size, and a block list."""

    __slots__ = ("rep_vector", "block_size", "blocks", "under_construction", "tier_bytes")

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
        self.tier_bytes: Mapping[str, int] = EMPTY

    @property
    def length(self) -> int:
        return sum(block.size for block in self.blocks)

    def complete(self) -> None:
        self.under_construction = False

    def charge_tier(self, tier: str, delta: int) -> None:
        """Record finalized replica bytes on a tier (negative to release)."""
        self.tier_bytes = _add(self.tier_bytes, tier, delta)


class INodeDirectory(INode):
    """A directory: named children plus optional quotas.

    Subtree usage counters (inode count and per-tier stored bytes) are
    maintained eagerly on every mutation so quota checks are O(depth).
    """

    __slots__ = (
        "children", "namespace_quota", "tier_space_quota", "subtree_inodes",
        "subtree_tier_bytes",
    )

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
        self.children: Mapping[str, INode] = EMPTY
        self.namespace_quota: int | None = None
        self.tier_space_quota: Mapping[str, int] = EMPTY
        # Subtree usage, this directory included in inode_count.
        self.subtree_inodes = 1
        self.subtree_tier_bytes: Mapping[str, int] = EMPTY

    # ------------------------------------------------------------------
    # Child management (quota-aware)
    # ------------------------------------------------------------------
    def add_child(self, child: INode) -> None:
        assert child.name not in self.children, "caller must check existence"
        inodes, tier_bytes = _usage_of(child)
        chain = self._chain()
        _check_namespace_quota(chain, inodes)
        self._link(child)
        _charge(chain, 1, inodes, tier_bytes)

    def remove_child(self, name: str) -> INode:
        child = self._unlink(name)
        child.parent = None
        inodes, tier_bytes = _usage_of(child)
        _charge(self._chain(), -1, inodes, tier_bytes)
        return child

    def move_child(self, name: str, target: "INodeDirectory", new_name: str) -> None:
        """Move child ``name`` into ``target`` as ``new_name``.

        Usage changes only below the deepest directory both sides share,
        so only the target's side of that is quota-checked, for inodes
        and for every tier the subtree stores bytes on (HDFS's
        ``verifyQuotaForRename``) — before anything moves, so a refused
        move leaves the tree as it was.
        """
        child = self.children[name]
        inodes, tier_bytes = _usage_of(child)
        source, destination = self._chain(), target._chain()
        while source and destination and source[-1] is destination[-1]:
            source.pop()
            destination.pop()
        _check_namespace_quota(destination, inodes)
        for tier, nbytes in tier_bytes.items():
            _check_tier_space_quota(destination, tier, nbytes)
        self._unlink(name)
        child.name = new_name
        target._link(child)
        _charge(source, -1, inodes, tier_bytes)
        _charge(destination, 1, inodes, tier_bytes)

    def _link(self, child: INode) -> None:
        if self.children is EMPTY:
            self.children = {}
        self.children[child.name] = child
        child.parent = self

    def _unlink(self, name: str) -> INode:
        children = self.children
        child = children[name]
        del children[name]
        if not children:
            self.children = EMPTY
        return child

    def _chain(self) -> list["INodeDirectory"]:
        """This directory and its ancestors, innermost first."""
        chain = []
        node: INodeDirectory | None = self
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain

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
        self.tier_space_quota = dict(tier_space_quota) if tier_space_quota else EMPTY

    def check_tier_space(self, tier: str, nbytes: int) -> None:
        """Raise if charging ``nbytes`` on ``tier`` would break a quota
        anywhere up the tree."""
        _check_tier_space_quota(self._chain(), tier, nbytes)

    def charge_tier_space(self, tier: str, nbytes: int) -> None:
        """Record ``nbytes`` (may be negative) of ``tier`` usage here and
        up the tree. Callers check quotas first via :meth:`check_tier_space`."""
        _charge(self._chain(), 1, 0, {tier: nbytes})


def _usage_of(child: INode) -> tuple[int, Mapping[str, int]]:
    """What a subtree counts against its ancestors: inodes, tier bytes."""
    if isinstance(child, INodeDirectory):
        return child.subtree_inodes, child.subtree_tier_bytes
    if isinstance(child, INodeFile):
        return 1, child.tier_bytes
    return 1, EMPTY


def _check_namespace_quota(chain: list[INodeDirectory], inodes: int) -> None:
    for directory in chain:
        quota = directory.namespace_quota
        if quota is not None and directory.subtree_inodes + inodes > quota:
            raise QuotaExceededError(
                f"namespace quota of {directory.path()!r} exceeded: "
                f"quota={quota}, would use {directory.subtree_inodes + inodes}"
            )


def _check_tier_space_quota(
    chain: list[INodeDirectory], tier: str, nbytes: int
) -> None:
    for directory in chain:
        quota = directory.tier_space_quota.get(tier)
        if quota is None:
            continue
        used = directory.subtree_tier_bytes.get(tier, 0)
        if used + nbytes > quota:
            raise QuotaExceededError(
                f"{tier} space quota of {directory.path()!r} exceeded: "
                f"quota={quota}, used={used}, requested={nbytes}"
            )


def _charge(
    chain: list[INodeDirectory], sign: int, inodes: int, tier_bytes: Mapping[str, int]
) -> None:
    """Add (``sign`` 1) or take away (-1) a subtree's usage on every
    directory of ``chain``, in one pass."""
    for directory in chain:
        directory.subtree_inodes += sign * inodes
        if tier_bytes:
            usage = directory.subtree_tier_bytes
            for tier, nbytes in tier_bytes.items():
                usage = _add(usage, tier, sign * nbytes)
            directory.subtree_tier_bytes = usage


def _add(usage: Mapping[str, int], tier: str, delta: int) -> Mapping[str, int]:
    """``usage`` with ``delta`` added on ``tier``, a tier at zero dropped:
    updated in place when it is a dict of its own, a new dict when it was
    :data:`EMPTY`, and :data:`EMPTY` again once nothing is left."""
    current = usage.get(tier, 0) + delta
    if current:
        if usage is EMPTY:
            return {tier: current}
        usage[tier] = current
        return usage
    if tier in usage:
        del usage[tier]
    return usage or EMPTY
