"""Exception hierarchy for the OctopusFS reproduction.

Every error raised by the library derives from :class:`OctopusError` so
applications can catch library failures with a single ``except`` clause.
The sub-hierarchy mirrors the major subsystems: file-system semantics
(:class:`FileSystemError` and its children), placement/retrieval policy
failures (:class:`PlacementError`), and simulation misuse
(:class:`SimulationError`).
"""

from __future__ import annotations


class OctopusError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(OctopusError):
    """An invalid cluster, tier, or policy configuration was supplied."""


class SimulationError(OctopusError):
    """The discrete-event engine was used incorrectly."""


class FileSystemError(OctopusError):
    """Base class for file-system level failures."""


class PathError(FileSystemError):
    """A malformed path was supplied to a namespace operation."""


class FileNotFoundInNamespaceError(FileSystemError):
    """The requested path does not exist."""


class FileAlreadyExistsError(FileSystemError):
    """A create/mkdir/rename target already exists."""


class NotADirectoryInNamespaceError(FileSystemError):
    """A file component appeared where a directory was required."""


class IsADirectoryInNamespaceError(FileSystemError):
    """A directory was supplied where a file was required."""

class DirectoryNotEmptyError(FileSystemError):
    """A non-recursive delete targeted a non-empty directory."""


class PermissionDeniedError(FileSystemError):
    """The caller lacks permission for the requested operation."""


class QuotaExceededError(FileSystemError):
    """A namespace or per-tier space quota would be violated."""


class LeaseError(FileSystemError):
    """A write lease was violated (e.g. two writers on one file)."""


class ReplicationVectorError(FileSystemError):
    """An invalid replication vector was supplied."""


class StaleVectorError(FileSystemError):
    """A compare-and-set ``setReplication`` lost the race: the file's
    vector is no longer the one the caller observed."""


class PlacementError(OctopusError):
    """The placement policy could not satisfy a placement request."""


class InsufficientStorageError(PlacementError):
    """No storage medium has room for the requested replica."""


class RetrievalError(OctopusError):
    """No live replica could be located for a read."""


class BlockError(FileSystemError):
    """A block-level invariant was violated (missing/corrupt replica)."""


class WorkerError(OctopusError):
    """A worker-level failure (dead worker, unknown medium)."""


class FaultInjectionError(OctopusError):
    """A fault-injection schedule or event was invalid."""
