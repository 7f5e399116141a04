"""The edit log: a replayable journal of namespace mutations.

The Master appends every successful namespace mutation to its edit log;
a Backup Master applies each record to its own namespace image as it is
produced, so it can take over (or write a checkpoint) at any time (§2.1).

Records are plain dicts with an ``op`` key — trivially serializable and
easy to assert on in tests. ``replay`` applies a record stream to a
namespace using superuser credentials (permissions were already checked
when the op first ran).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.replication_vector import ReplicationVector
from repro.errors import FileSystemError
from repro.fs.blocks import Block
from repro.fs.namespace import SUPERUSER, Namespace


class EditLog:
    """An append-only journal with transaction ids."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        #: Id of the latest record ever appended; truncation keeps it.
        self.last_txid = 0

    def append(self, record: dict) -> None:
        self.last_txid += 1
        self.records.append({**record, "txid": self.last_txid})

    def since(self, txid: int) -> list[dict]:
        """Records strictly after transaction ``txid``."""
        return [r for r in self.records if r["txid"] > txid]

    def truncate_through(self, txid: int) -> None:
        """Drop records up to and including ``txid`` (post-checkpoint)."""
        self.records = self.since(txid)

    def __len__(self) -> int:
        return len(self.records)


def replay(records: Iterable[dict], namespace: Namespace) -> int:
    """Apply an edit-record stream to a namespace; returns ops applied.

    Each record is applied at the ``time`` it was journaled, so mtimes
    come out as on the primary; a record without one (built by hand)
    is applied under the namespace's own clock.
    """
    clock = namespace._clock
    stamp = None
    namespace._clock = lambda: clock() if stamp is None else stamp
    applied = 0
    try:
        for record in records:
            stamp = record.get("time")
            apply_record(record, namespace)
            applied += 1
    finally:
        namespace._clock = clock
    return applied


def apply_record(record: dict, ns: Namespace) -> None:
    """Apply one record through the namespace op that journaled it,
    under the namespace's clock (:func:`replay` sets it to the record's
    time; a standby's image reads it from the record it is applying)."""
    op = record.get("op")
    order = ns.tier_order
    if op == "mkdir":
        directory = ns.mkdir(record["path"], SUPERUSER, record["mode"])
        directory.owner = record["user"]
    elif op == "create_file":
        inode, _freed = ns.create_file(
            record["path"],
            ReplicationVector.decode(record["rep_vector"], order),
            record["block_size"],
            SUPERUSER,
            record["mode"],
            overwrite=True,
        )
        inode.owner = record["user"]
    elif op == "add_block":
        inode = ns.get_file(record["path"])
        block = Block(
            record["index"], inode.block_size, block_id=record["block_id"]
        )
        block.size = record["size"]
        inode.blocks.append(block)
    elif op == "complete_file":
        ns.complete_file(record["path"])
    elif op == "rename":
        ns.rename(record["src"], record["dst"])
    elif op == "delete":
        ns.delete(record["path"], recursive=record["recursive"])
    elif op == "set_replication":
        ns.set_replication_vector(
            record["path"],
            ReplicationVector.decode(record["rep_vector"], order),
        )
    elif op == "set_permission":
        ns.set_permission(record["path"], record["mode"])
    elif op == "set_owner":
        ns.set_owner(record["path"], record["owner"], record["group"])
    elif op == "set_quota":
        ns.set_quota(
            record["path"],
            record["namespace_quota"],
            record["tier_space_quota"],
        )
    else:
        raise FileSystemError(f"unknown edit-log op: {op!r}")
