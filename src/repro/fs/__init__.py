"""The OctopusFS file system: master, workers, client, namespace.

This package is the HDFS-like substrate with the paper's tiered-storage
extensions baked in. The usual entry point is
:class:`~repro.fs.system.OctopusFileSystem`, which assembles the one
Master, one Worker per storage-bearing node, and hands out
:class:`~repro.fs.client.Client` instances bound to a network location.

The public client API mirrors the paper's Table 1: ``create`` takes a
:class:`~repro.core.replication_vector.ReplicationVector`;
``setReplication`` rewrites it (moving/copying/deleting replicas across
tiers); ``getFileBlockLocations`` exposes worker *and tier* per replica;
``getStorageTierReports`` summarizes each active tier.
"""

from repro.fs.backup import BackupMaster
from repro.fs.blocks import Block, BlockLocation, Replica
from repro.fs.client import Client
from repro.fs.master import Master
from repro.fs.namespace import FileStatus, Namespace, UserContext
from repro.fs.system import OctopusFileSystem
from repro.fs.worker import Worker

__all__ = [
    "BackupMaster",
    "Block",
    "BlockLocation",
    "Replica",
    "Client",
    "Master",
    "Namespace",
    "FileStatus",
    "UserContext",
    "OctopusFileSystem",
    "Worker",
]
