"""Backup Masters: hot-standby namespace images and checkpoints (§2.1).

A Backup Master (i) maintains an up-to-date in-memory image of the
namespace by applying the Primary's edit stream as it is produced, and
(ii) periodically persists a checkpoint so the system can restart from
the most recent checkpoint plus the edit-log tail.

Failover: :meth:`BackupMaster.promote` builds a fresh
:class:`~repro.fs.master.Master` from the standby image. Block
*locations* are soft state (as in HDFS): the promoted master rebuilds
its block map from worker block reports via
:meth:`Master.rebuild_from_block_reports`, matching replicas to restored
files by block id.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fs import checkpoint as ckpt
from repro.fs.editlog import apply_record, replay
from repro.fs.master import Master
from repro.fs.namespace import Namespace

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.system import OctopusFileSystem


class BackupMaster:
    """A standby that mirrors one primary master."""

    def __init__(self, primary: Master, name: str = "backup") -> None:
        self.primary = primary
        self.name = name
        # Start from an image of the primary as it stands — its edit log
        # may have been truncated — then follow the live stream.
        self.image, self.applied_txid = ckpt.load_checkpoint(
            ckpt.write_checkpoint(primary.namespace, primary.edit_log.last_txid)
        )
        self.checkpoints: list[dict] = []
        #: Time of the record being applied: the image's clock.
        self._record_time = 0.0
        self.image._clock = lambda: self._record_time
        primary.namespace.add_listener(self._on_edit)

    def _on_edit(self, record: dict) -> None:
        # The primary's EditLog listener assigns txids; we see the raw
        # record, so count in lockstep.
        self._record_time = record["time"]
        apply_record(record, self.image)
        self.applied_txid += 1

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def create_checkpoint(self) -> dict:
        """Snapshot the standby image; the primary can then truncate its
        edit log through the covered transaction."""
        snapshot = ckpt.write_checkpoint(self.image, self.applied_txid)
        self.checkpoints.append(snapshot)
        return snapshot

    @property
    def latest_checkpoint(self) -> dict | None:
        return self.checkpoints[-1] if self.checkpoints else None

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def promote(self, system: "OctopusFileSystem") -> Master:
        """Take over from a failed primary.

        Builds a new Master around the standby namespace image, rebuilds
        block locations from worker reports, and swaps it into the
        system. Returns the new master.
        """
        return _take_over(system, self.image, f"{self.name}-promoted")


def restore_master_from_checkpoint(
    system: "OctopusFileSystem",
    snapshot: dict,
    edit_tail: list[dict],
) -> Master:
    """Cold restart: checkpoint + edit-log tail + block reports (§2.1)."""
    namespace, last_txid = ckpt.load_checkpoint(snapshot)
    replay([r for r in edit_tail if r.get("txid", 0) > last_txid], namespace)
    return _take_over(system, namespace, "restored")


def _take_over(
    system: "OctopusFileSystem", namespace: Namespace, name: str
) -> Master:
    """Swap in a successor of ``system.master`` built around ``namespace``.

    The successor keeps the outgoing master's configuration — both
    policies and the heartbeat expiry — and rebuilds block locations
    from the workers' reports.
    """
    outgoing = system.master
    master = Master(
        system.cluster,
        placement_policy=outgoing.placement_policy,
        retrieval_policy=outgoing.retrieval_policy,
        heartbeat_expiry=outgoing.heartbeat_expiry,
        name=name,
    )
    master.adopt_namespace(namespace)
    for worker in system.workers.values():
        master.register_worker(worker)
    master.rebuild_from_block_reports(system.workers.values())
    system.master = master
    return master
