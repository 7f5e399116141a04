"""The directory namespace: hierarchical file organization (paper §2.1).

This is the Master's first metadata collection — a tree of inodes with
the traditional operations (mkdir, create, open, rename, delete, list)
plus the OctopusFS extensions: files carry replication vectors, and
directories may carry per-tier space quotas so scarce media (memory,
SSD) can be shared fairly across tenants.

Every mutating operation is emitted to registered edit-log listeners
*after* it succeeds, so a Backup Master replaying the stream converges
to the same tree (see :mod:`repro.fs.editlog`).

Permissions follow the POSIX subset HDFS implements: rwx bits for
owner/group/other, ``x`` to traverse directories, ``w`` on the parent to
create/delete/rename, and a superuser that bypasses all checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from repro.core.replication_vector import DEFAULT_TIER_ORDER, ReplicationVector
from repro.errors import (
    DirectoryNotEmptyError,
    FileAlreadyExistsError,
    FileNotFoundInNamespaceError,
    IsADirectoryInNamespaceError,
    NotADirectoryInNamespaceError,
    PathError,
    PermissionDeniedError,
    QuotaExceededError,
)
from repro.fs import paths
from repro.fs.inode import INode, INodeDirectory, INodeFile

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.blocks import Block

READ = 4
WRITE = 2
EXECUTE = 1

DEFAULT_DIR_MODE = 0o755
DEFAULT_FILE_MODE = 0o644

#: Shared empty vector for directory FileStatus records (hot path: ls).
_EMPTY_VECTOR = ReplicationVector()


@dataclass(frozen=True)
class UserContext:
    """Identity used for permission checks."""

    user: str = "root"
    groups: frozenset[str] = frozenset()
    superuser: bool = False

    @staticmethod
    def root() -> "UserContext":
        return UserContext(user="root", superuser=True)


SUPERUSER = UserContext.root()


class FileStatus(NamedTuple):
    """The listing record returned to clients (HDFS ``FileStatus``).

    A named tuple: ``ls`` builds one per entry, and a frozen dataclass
    costs an ``object.__setattr__`` per field.
    """

    path: str
    is_directory: bool
    length: int
    rep_vector: ReplicationVector
    block_size: int
    owner: str
    group: str
    mode: int
    mtime: float
    under_construction: bool = False


class Namespace:
    """The inode tree plus all namespace operations."""

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        tier_order: tuple[str, ...] = DEFAULT_TIER_ORDER,
    ) -> None:
        self._clock = clock or (lambda: 0.0)
        #: Tier axis used to encode vectors into edit-log records; a
        #: cluster with extra tiers (NVRAM, ...) passes its own order.
        self.tier_order = tuple(tier_order)
        self.root = INodeDirectory("", "root", "supergroup", DEFAULT_DIR_MODE)
        self._listeners: list[Callable[[dict], None]] = []

    # ------------------------------------------------------------------
    # Edit-log plumbing
    # ------------------------------------------------------------------
    def add_listener(self, listener: Callable[[dict], None]) -> None:
        """Register an edit-log sink; it receives each mutation as a dict."""
        self._listeners.append(listener)

    def _emit(self, op: str, **fields: object) -> None:
        if not self._listeners:
            return
        # Stamped once, here, so a replayed op sets the mtimes it set live.
        record = {"op": op, "time": self._clock(), **fields}
        for listener in self._listeners:
            listener(record)

    # ------------------------------------------------------------------
    # Resolution and permission checks
    # ------------------------------------------------------------------
    def _resolve(
        self, path: str, user: UserContext, need_exists: bool = True
    ) -> INode | None:
        """Walk the tree, enforcing traverse (x) permission on ancestors."""
        components = paths.split(path)
        checked = not user.superuser
        node: INode = self.root
        for index, component in enumerate(components):
            if not node.is_directory:
                raise NotADirectoryInNamespaceError(
                    f"{node.path()!r} is not a directory"
                )
            if checked:
                self._check_access(node, user, EXECUTE)
            child = node.children.get(component)
            if child is None:
                if need_exists:
                    missing = "/" + "/".join(components[: index + 1])
                    raise FileNotFoundInNamespaceError(f"no such path: {missing!r}")
                return None
            node = child
        return node

    def _resolve_dir(self, path: str, user: UserContext) -> INodeDirectory:
        node = self._resolve(path, user)
        if not isinstance(node, INodeDirectory):
            raise NotADirectoryInNamespaceError(f"{path!r} is not a directory")
        return node

    def _resolve_file(self, path: str, user: UserContext) -> INodeFile:
        node = self._resolve(path, user)
        if not isinstance(node, INodeFile):
            raise IsADirectoryInNamespaceError(f"{path!r} is a directory")
        return node

    def _check_access(self, inode: INode, user: UserContext, perm: int) -> None:
        if user.superuser:
            return
        if user.user == inode.owner:
            bits = (inode.mode >> 6) & 7
        elif inode.group in user.groups:
            bits = (inode.mode >> 3) & 7
        else:
            bits = inode.mode & 7
        if bits & perm != perm:
            raise PermissionDeniedError(
                f"user {user.user!r} lacks {'rwx'[3 - perm.bit_length()]!r}-class "
                f"permission {perm} on {inode.path()!r} (mode {oct(inode.mode)})"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def exists(self, path: str, user: UserContext = SUPERUSER) -> bool:
        return self._resolve(paths.normalize(path), user, need_exists=False) is not None

    def is_directory(self, path: str, user: UserContext = SUPERUSER) -> bool:
        node = self._resolve(paths.normalize(path), user, need_exists=False)
        return isinstance(node, INodeDirectory)

    def get_file(self, path: str, user: UserContext = SUPERUSER) -> INodeFile:
        return self._resolve_file(paths.normalize(path), user)

    def get_status(
        self, path: str, user: UserContext = SUPERUSER
    ) -> FileStatus:
        path = paths.normalize(path)
        node = self._resolve(path, user)
        assert node is not None
        return self._status_of(node, path)

    def list_status(
        self, path: str, user: UserContext = SUPERUSER
    ) -> list[FileStatus]:
        """List a directory's children (or the file itself)."""
        path = paths.normalize(path)
        node = self._resolve(path, user)
        assert node is not None
        if not node.is_directory:
            return [self._status_of(node, path)]
        self._check_access(node, user, READ)
        prefix = "" if path == paths.ROOT else path
        return [
            self._status_of(child, f"{prefix}/{name}")
            for name, child in sorted(node.children.items())
        ]

    def _status_of(self, node: INode, path: str) -> FileStatus:
        """The record of ``node``, which the caller resolved ``path`` to.

        Positional, in field order: ``ls`` pays per keyword per entry.
        """
        if node.is_directory:
            return FileStatus(
                path, True, 0, _EMPTY_VECTOR, 0,
                node.owner, node.group, node.mode, node.mtime,
            )
        return FileStatus(
            path, False, node.length, node.rep_vector, node.block_size,
            node.owner, node.group, node.mode, node.mtime,
            node.under_construction,
        )

    def iter_files(self, path: str = "/") -> Iterator[INodeFile]:
        """Depth-first iteration over every file under ``path``."""
        start = self._resolve(paths.normalize(path), SUPERUSER)
        stack: list[INode] = [start] if start is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, INodeFile):
                yield node
            elif isinstance(node, INodeDirectory):
                stack.extend(node.children[name] for name in sorted(node.children, reverse=True))

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def mkdir(
        self,
        path: str,
        user: UserContext = SUPERUSER,
        mode: int = DEFAULT_DIR_MODE,
        create_parents: bool = True,
    ) -> INodeDirectory:
        path = paths.normalize(path)
        if path == paths.ROOT:
            return self.root
        existing = self._resolve(path, user, need_exists=False)
        if existing is not None:
            if isinstance(existing, INodeDirectory):
                return existing
            raise FileAlreadyExistsError(f"file exists at {path!r}")
        parent_path = paths.parent(path)
        parent = self._resolve(parent_path, user, need_exists=False)
        if parent is None:
            if not create_parents:
                raise FileNotFoundInNamespaceError(
                    f"parent does not exist: {parent_path!r}"
                )
            parent = self.mkdir(parent_path, user, mode, create_parents=True)
        if not isinstance(parent, INodeDirectory):
            raise NotADirectoryInNamespaceError(
                f"{parent_path!r} is not a directory"
            )
        self._check_access(parent, user, WRITE)
        directory = INodeDirectory(
            paths.basename(path), user.user, parent.group, mode, self._clock()
        )
        parent.add_child(directory)
        self._emit("mkdir", path=path, user=user.user, mode=mode)
        return directory

    def create_file(
        self,
        path: str,
        rep_vector: ReplicationVector,
        block_size: int,
        user: UserContext = SUPERUSER,
        mode: int = DEFAULT_FILE_MODE,
        overwrite: bool = False,
    ) -> tuple[INodeFile, list["Block"]]:
        """Create a file inode (under construction).

        Returns the inode and any blocks freed by an overwrite, which the
        Master must deallocate from workers.
        """
        path = paths.normalize(path)
        freed: list["Block"] = []
        existing = self._resolve(path, user, need_exists=False)
        if existing is not None:
            if isinstance(existing, INodeDirectory):
                raise FileAlreadyExistsError(f"directory exists at {path!r}")
            if not overwrite:
                raise FileAlreadyExistsError(f"file exists at {path!r}")
            freed = self.delete(path, user=user)
        parent = self.mkdir(paths.parent(path), user)
        self._check_access(parent, user, WRITE)
        if rep_vector.total_replicas < 1:
            raise PathError(
                f"file {path!r} needs at least one replica, got "
                f"{rep_vector.shorthand()}"
            )
        inode = INodeFile(
            paths.basename(path),
            user.user,
            parent.group,
            mode,
            rep_vector,
            block_size,
            self._clock(),
        )
        parent.add_child(inode)
        self._emit(
            "create_file",
            path=path,
            user=user.user,
            mode=mode,
            rep_vector=rep_vector.encode(self.tier_order),
            block_size=block_size,
        )
        return inode, freed

    def complete_file(self, path: str, user: UserContext = SUPERUSER) -> None:
        inode = self._resolve_file(paths.normalize(path), user)
        inode.complete()
        inode.mtime = self._clock()
        self._emit("complete_file", path=paths.normalize(path))

    def rename(
        self, src: str, dst: str, user: UserContext = SUPERUSER
    ) -> None:
        src = paths.normalize(src)
        dst = paths.normalize(dst)
        if src == paths.ROOT:
            raise PathError("cannot rename the root")
        if paths.is_ancestor(src, dst):
            raise PathError(f"cannot rename {src!r} under itself ({dst!r})")
        node = self._resolve(src, user)
        assert node is not None
        if self._resolve(dst, user, need_exists=False) is not None:
            raise FileAlreadyExistsError(f"rename target exists: {dst!r}")
        src_parent = node.parent
        assert src_parent is not None
        self._check_access(src_parent, user, WRITE)
        dst_parent = self._resolve(paths.parent(dst), user, need_exists=False)
        if dst_parent is None or not isinstance(dst_parent, INodeDirectory):
            raise FileNotFoundInNamespaceError(
                f"rename target parent missing: {paths.parent(dst)!r}"
            )
        self._check_access(dst_parent, user, WRITE)
        src_parent.remove_child(node.name)
        node.name = paths.basename(dst)
        try:
            dst_parent.add_child(node)
        except QuotaExceededError:
            node.name = paths.basename(src)
            src_parent.add_child(node)
            raise
        node.mtime = self._clock()
        self._emit("rename", src=src, dst=dst)

    def delete(
        self,
        path: str,
        recursive: bool = False,
        user: UserContext = SUPERUSER,
    ) -> list["Block"]:
        """Remove a path; returns every block whose replicas must go."""
        path = paths.normalize(path)
        if path == paths.ROOT:
            raise PathError("cannot delete the root")
        node = self._resolve(path, user)
        assert node is not None
        parent = node.parent
        assert parent is not None
        self._check_access(parent, user, WRITE)
        if isinstance(node, INodeDirectory) and node.children and not recursive:
            raise DirectoryNotEmptyError(
                f"directory not empty (use recursive=True): {path!r}"
            )
        parent.remove_child(node.name)
        blocks: list["Block"] = []
        stack: list[INode] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, INodeFile):
                blocks.extend(current.blocks)
            elif isinstance(current, INodeDirectory):
                stack.extend(current.children.values())
        self._emit("delete", path=path, recursive=recursive)
        return blocks

    def set_replication_vector(
        self,
        path: str,
        rep_vector: ReplicationVector,
        user: UserContext = SUPERUSER,
    ) -> tuple[INodeFile, ReplicationVector]:
        """Swap a file's vector; returns the inode and the *old* vector."""
        path = paths.normalize(path)
        inode = self._resolve_file(path, user)
        self._check_access(inode, user, WRITE)
        if rep_vector.total_replicas < 1:
            raise PathError(
                f"replication vector must keep >= 1 replica, got "
                f"{rep_vector.shorthand()}"
            )
        old = inode.rep_vector
        inode.rep_vector = rep_vector
        inode.mtime = self._clock()
        self._emit(
            "set_replication",
            path=path,
            rep_vector=rep_vector.encode(self.tier_order),
        )
        return inode, old

    def set_permission(
        self, path: str, mode: int, user: UserContext = SUPERUSER
    ) -> None:
        path = paths.normalize(path)
        node = self._resolve(path, user)
        assert node is not None
        if not user.superuser and user.user != node.owner:
            raise PermissionDeniedError(
                f"only the owner may chmod {path!r}"
            )
        node.mode = mode
        self._emit("set_permission", path=path, mode=mode)

    def set_owner(
        self,
        path: str,
        owner: str | None = None,
        group: str | None = None,
        user: UserContext = SUPERUSER,
    ) -> None:
        path = paths.normalize(path)
        if not user.superuser:
            raise PermissionDeniedError("only the superuser may chown")
        node = self._resolve(path, user)
        assert node is not None
        if owner is not None:
            node.owner = owner
        if group is not None:
            node.group = group
        self._emit("set_owner", path=path, owner=owner, group=group)

    def set_quota(
        self,
        path: str,
        namespace_quota: int | None = None,
        tier_space_quota: dict[str, int] | None = None,
        user: UserContext = SUPERUSER,
    ) -> None:
        path = paths.normalize(path)
        if not user.superuser:
            raise PermissionDeniedError("only the superuser may set quotas")
        directory = self._resolve_dir(path, user)
        directory.set_quota(namespace_quota, tier_space_quota)
        self._emit(
            "set_quota",
            path=path,
            namespace_quota=namespace_quota,
            tier_space_quota=dict(tier_space_quota or {}),
        )

    def log_block(self, inode: INodeFile, block: "Block") -> None:
        """Journal a committed block so standbys learn file lengths.

        Blocks are allocated and finalized by the Master; the namespace
        only forwards the event into the edit stream (HDFS's ADD_BLOCK).
        """
        self._emit(
            "add_block",
            path=inode.path(),
            block_id=block.block_id,
            index=block.index,
            size=block.size,
        )

    # ------------------------------------------------------------------
    # Tier-space accounting (called by the Master on replica lifecycle)
    # ------------------------------------------------------------------
    def check_tier_space(self, inode: INodeFile, tier: str, nbytes: int) -> None:
        parent = inode.parent
        if parent is not None:
            parent.check_tier_space(tier, nbytes)

    def charge_tier_space(self, inode: INodeFile, tier: str, nbytes: int) -> None:
        inode.charge_tier(tier, nbytes)
        parent = inode.parent
        if parent is not None:
            parent.charge_tier_space(tier, nbytes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def total_inodes(self) -> int:
        return self.root.subtree_inodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Namespace inodes={self.total_inodes}>"
