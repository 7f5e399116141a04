"""Namespace checkpoints: serialize the inode tree to a plain dict.

The Backup Master periodically snapshots its namespace image so the
system can restart from the most recent checkpoint plus the edit-log
tail (§2.1). The format is a nested dict of JSON-compatible values.

Block lists are *not* part of a checkpoint — as in HDFS, block locations
are soft state rebuilt from worker block reports after a restart; only
file lengths (block count and sizes) are recorded so a restored file
knows its expected shape.
"""

from __future__ import annotations

from repro.core.replication_vector import DEFAULT_TIER_ORDER, ReplicationVector
from repro.fs.blocks import Block
from repro.fs.inode import INodeDirectory, INodeFile
from repro.fs.namespace import Namespace

FORMAT_VERSION = 1


def write_checkpoint(namespace: Namespace, last_txid: int = 0) -> dict:
    """Serialize the namespace into a checkpoint dict."""
    return {
        "version": FORMAT_VERSION,
        "last_txid": last_txid,
        "tier_order": list(namespace.tier_order),
        "root": _serialize_dir(namespace.root, namespace.tier_order),
    }


def _serialize_dir(directory: INodeDirectory, order: tuple[str, ...]) -> dict:
    children = []
    for name in sorted(directory.children):
        child = directory.children[name]
        if isinstance(child, INodeDirectory):
            children.append(_serialize_dir(child, order))
        elif isinstance(child, INodeFile):
            children.append(_serialize_file(child, order))
    return {
        "type": "dir",
        "name": directory.name,
        "owner": directory.owner,
        "group": directory.group,
        "mode": directory.mode,
        "mtime": directory.mtime,
        "namespace_quota": directory.namespace_quota,
        "tier_space_quota": dict(directory.tier_space_quota),
        "children": children,
    }


def _serialize_file(inode: INodeFile, order: tuple[str, ...]) -> dict:
    return {
        "type": "file",
        "name": inode.name,
        "owner": inode.owner,
        "group": inode.group,
        "mode": inode.mode,
        "mtime": inode.mtime,
        "rep_vector": inode.rep_vector.encode(order),
        "block_size": inode.block_size,
        "under_construction": inode.under_construction,
        "blocks": [[block.block_id, block.size] for block in inode.blocks],
    }


def load_checkpoint(snapshot: dict) -> tuple[Namespace, int]:
    """Rebuild a namespace from a checkpoint dict.

    Returns the namespace and the transaction id the checkpoint covers
    (replay the edit-log tail after it to catch up).
    """
    if snapshot.get("version") != FORMAT_VERSION:
        raise ValueError(f"unknown checkpoint version: {snapshot.get('version')!r}")
    order = tuple(snapshot.get("tier_order", DEFAULT_TIER_ORDER))
    namespace = Namespace(tier_order=order)
    _load_dir(snapshot["root"], namespace.root, order)
    return namespace, snapshot.get("last_txid", 0)


def _load_dir(
    record: dict, directory: INodeDirectory, order: tuple[str, ...]
) -> None:
    directory.owner = record["owner"]
    directory.group = record["group"]
    directory.mode = record["mode"]
    directory.mtime = record["mtime"]
    directory.set_quota(record["namespace_quota"], record["tier_space_quota"])
    for child in record["children"]:
        if child["type"] == "dir":
            sub = INodeDirectory(
                child["name"], child["owner"], child["group"], child["mode"],
                child["mtime"],
            )
            directory.add_child(sub)
            _load_dir(child, sub, order)
        else:
            inode = INodeFile(
                child["name"],
                child["owner"],
                child["group"],
                child["mode"],
                ReplicationVector.decode(child["rep_vector"], order),
                child["block_size"],
                child["mtime"],
            )
            directory.add_child(inode)
            for index, (block_id, size) in enumerate(child["blocks"]):
                block = Block(index, child["block_size"], block_id=block_id)
                block.size = size
                inode.blocks.append(block)
            if not child["under_construction"]:
                inode.complete()
