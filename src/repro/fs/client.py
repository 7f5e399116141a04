"""The Client: the file system API of the paper's Table 1.

A Client is bound to a network location (a cluster node, or ``None``
for an off-cluster machine) and a user identity. It exposes the usual
FileSystem operations plus the OctopusFS extensions:

* ``create(path, rep_vector, block_size)`` — replication *vector*
  instead of HDFS's replication short;
* ``set_replication(path, rep_vector)`` — move/copy/re-replicate/delete
  replicas across tiers by rewriting the vector;
* ``get_file_block_locations(path, start, len)`` — block locations that
  name the storage tier of every replica;
* ``get_storage_tier_reports()`` — capacity/throughput/load per active
  tier.

Backwards compatibility: every entry point also accepts a plain ``int``
replication factor, which becomes ``U = r`` exactly as §2.3 prescribes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.media import TierStatistics
from repro.core.replication_vector import ReplicationVector
from repro.errors import FileSystemError
from repro.fs.blocks import BlockLocation
from repro.fs.namespace import SUPERUSER, FileStatus, UserContext
from repro.fs.streams import FSDataInputStream, FSDataOutputStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Node
    from repro.fs.system import OctopusFileSystem


def _as_vector(
    rep: ReplicationVector | int | None, default: ReplicationVector
) -> ReplicationVector:
    if rep is None:
        return default
    if isinstance(rep, int):
        return ReplicationVector.from_replication_factor(rep)
    return rep


class Client:
    """A user/application handle onto the file system."""

    def __init__(
        self,
        system: "OctopusFileSystem",
        node: "Node | None" = None,
        user: UserContext = SUPERUSER,
    ) -> None:
        self.system = system
        self.node = node
        self.user = user

    # ------------------------------------------------------------------
    # Table 1 APIs
    # ------------------------------------------------------------------
    def create(
        self,
        path: str,
        rep_vector: ReplicationVector | int | None = None,
        block_size: int | None = None,
        overwrite: bool = False,
    ) -> FSDataOutputStream:
        """Create a file and return an output stream for writing."""
        vector = _as_vector(rep_vector, self.system.default_rep_vector)
        self.system.master.create_file(
            path, vector, block_size, user=self.user, overwrite=overwrite
        )
        return FSDataOutputStream(self.system, path, self.node)

    def set_replication(
        self,
        path: str,
        rep_vector: ReplicationVector | int,
        expected: ReplicationVector | None = None,
    ) -> dict[str, int]:
        """Rewrite a file's replication vector (asynchronous, §5).

        Returns the per-tier delta; call
        :meth:`OctopusFileSystem.await_replication` to block until the
        replica movements complete. Passing ``expected`` turns the call
        into a compare-and-set that fails with
        :class:`~repro.errors.StaleVectorError` when the file's vector
        is no longer the one the caller observed.
        """
        vector = _as_vector(rep_vector, self.system.default_rep_vector)
        return self.system.master.set_replication(
            path, vector, user=self.user, expected=expected
        )

    def get_replication(self, path: str) -> ReplicationVector:
        """The file's current replication vector (for read-modify-CAS)."""
        return self.get_status(path).rep_vector

    def get_file_block_locations(
        self, path: str, start: int = 0, length: int | None = None
    ) -> list[BlockLocation]:
        """Block locations in a byte range, each naming worker and tier."""
        return self.system.master.get_file_block_locations(
            path, start, length, client_node=self.node, user=self.user
        )

    def get_storage_tier_reports(self) -> list[TierStatistics]:
        """Per-tier capacity, throughput, and load information."""
        return self.system.master.get_storage_tier_reports()

    # ------------------------------------------------------------------
    # Standard FileSystem operations
    # ------------------------------------------------------------------
    def open(self, path: str) -> FSDataInputStream:
        # Existence + permissions; listeners learn the file, not the
        # caller's spelling of its name.
        inode = self.system.master.namespace.get_file(path, self.user)
        self.system.notify_access(inode)
        return FSDataInputStream(self.system, path, self.node)

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self.system.master.mkdir(path, user=self.user, mode=mode)

    def delete(self, path: str, recursive: bool = False) -> int:
        return self.system.master.delete(path, recursive, user=self.user)

    def rename(self, src: str, dst: str) -> None:
        self.system.master.rename(src, dst, user=self.user)

    def exists(self, path: str) -> bool:
        return self.system.master.namespace.exists(path, self.user)

    def get_status(self, path: str) -> FileStatus:
        return self.system.master.get_status(path, self.user)

    def list_status(self, path: str) -> list[FileStatus]:
        return self.system.master.list_status(path, self.user)

    def set_permission(self, path: str, mode: int) -> None:
        self.system.master.namespace.set_permission(path, mode, self.user)

    def set_owner(
        self, path: str, owner: str | None = None, group: str | None = None
    ) -> None:
        self.system.master.namespace.set_owner(
            path, owner, group, self.user
        )

    def set_quota(
        self,
        path: str,
        namespace_quota: int | None = None,
        tier_space_quota: dict[str, int] | None = None,
    ) -> None:
        """Set namespace / per-tier space quotas on a directory."""
        self.system.master.namespace.set_quota(
            path, namespace_quota, tier_space_quota, self.user
        )

    # ------------------------------------------------------------------
    # Convenience helpers
    # ------------------------------------------------------------------
    def write_file(
        self,
        path: str,
        data: bytes | None = None,
        size: int | None = None,
        rep_vector: ReplicationVector | int | None = None,
        block_size: int | None = None,
        overwrite: bool = False,
    ) -> None:
        """Create, write, and close in one call (bytes or size-only).

        A write that raises (a tier quota refused a block, say) leaves
        no file behind, so the same call can be retried.
        """
        if data is not None and size is not None:
            raise FileSystemError("cannot mix byte and size-only writes")
        stream = self.create(path, rep_vector, block_size, overwrite)
        try:
            if data is not None:
                stream.write(data)
            if size is not None:
                stream.write_size(size)
            stream.close()
        except Exception:
            self.delete(path)
            raise

    def read_file(self, path: str) -> bytes | None:
        """Open, read fully, and return content (None for size-only data)."""
        return self.open(path).read()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.node.name if self.node else "off-cluster"
        return f"<Client at {where} as {self.user.user!r}>"
