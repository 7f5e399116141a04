"""S-Live: the namespace stress test of the paper's §7.4.

S-Live ("Stress Test for Live Data Verification") hammers the Master
with a mix of typical file-system operations and reports the rate of
successful operations per second per operation type. The paper runs one
script against stock HDFS and against OctopusFS, two systems that share
all but the tier extras; so do we. Both sides are
:class:`~repro.fs.namespace.Namespace`: OctopusFS on the default tier
axis, stock HDFS on a one-tier axis, where the vector ``U = r`` *is*
the replication short (§2.3's compatibility rule) and the single
``DISK`` entry of the per-tier accounting *is* the aggregate
disk-space count. What differs between the sides is data, never code,
so the wall-clock gap is the cost of the tier extras alone — Table 3's
"despite the extra processing related to the tiers, OctopusFS offers
very similar performance".

:class:`NamespaceAdapter` is the one surface S-Live drives;
:class:`OctopusNamespaceAdapter` and :class:`HdfsNamespaceAdapter` are
its two constructions. :class:`SLive` generates and executes the
operation mix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.replication_vector import DEFAULT_TIER_ORDER, ReplicationVector
from repro.fs.master import Master
from repro.fs.namespace import Namespace
from repro.util.rng import DeterministicRng
from repro.util.units import MB

#: The operation types reported in Table 3.
OPERATIONS = ("mkdir", "ls", "create", "open", "rename", "delete")

BLOCK_SIZE = 128 * MB


class NamespaceAdapter:
    """S-Live's six calls onto a :class:`Namespace`.

    Real S-Live's ``create`` writes data; ours would leave empty inodes
    and the per-tier usage walks (``add_child`` / ``remove_child`` up
    the tree) nothing to carry. An adapter that owns its namespace
    therefore also plays the Master's part: each created file gets one
    block whose three replicas finalise on ``replica_tiers``, charged a
    replica at a time as ``Master.attach_replica`` does.
    """

    name: str
    #: The namespace's tier axis.
    tier_order: tuple[str, ...]
    #: Where the three replicas of a created file's block land.
    replica_tiers: tuple[str, ...]

    def __init__(self, namespace: Namespace | None = None) -> None:
        if namespace is None:
            namespace = Namespace(tier_order=self.tier_order)
            self._charged_tiers = self.replica_tiers
        else:
            # It belongs to a Master that does its own accounting:
            # charge nothing on its behalf.
            self._charged_tiers = ()
        self.namespace = namespace
        # HDFS's replication short: U = 3, whatever the axis.
        self._vector = ReplicationVector.from_replication_factor(3)
        # Journal like a real Master would: edits go somewhere.
        self.edit_records: list[dict] = []
        self.namespace.add_listener(self.edit_records.append)

    def mkdir(self, path: str) -> None:
        self.namespace.mkdir(path)

    def create(self, path: str) -> None:
        inode, _freed = self.namespace.create_file(
            path, self._vector, BLOCK_SIZE
        )
        for tier in self._charged_tiers:
            self.namespace.charge_tier_space(inode, tier, BLOCK_SIZE)

    def open(self, path: str) -> object:
        return self.namespace.get_status(path)

    def ls(self, path: str) -> object:
        return self.namespace.list_status(path)

    def rename(self, src: str, dst: str) -> None:
        self.namespace.rename(src, dst)

    def delete(self, path: str) -> None:
        self.namespace.delete(path, recursive=True)


class OctopusNamespaceAdapter(NamespaceAdapter):
    """OctopusFS: MOOP spreads ``U = 3`` over the paper cluster's three
    tiers, so a file carries three per-tier usage entries."""

    name = "OctopusFS"
    tier_order = DEFAULT_TIER_ORDER
    replica_tiers = ("MEMORY", "SSD", "HDD")

    @classmethod
    def for_master(cls, master: Master) -> "OctopusNamespaceAdapter":
        return cls(master.namespace)


class HdfsNamespaceAdapter(NamespaceAdapter):
    """Stock HDFS: one tier, so the three replicas add up in one
    aggregate disk-space entry of replication × length."""

    name = "HDFS"
    tier_order = ("DISK",)
    replica_tiers = ("DISK", "DISK", "DISK")


@dataclass
class SLiveResult:
    """Successful operations per second, per operation type."""

    system: str
    ops_per_second: dict[str, float] = field(default_factory=dict)
    op_counts: dict[str, int] = field(default_factory=dict)

    def per_worker(self, workers: int) -> dict[str, float]:
        """The paper reports ops/s *per worker* on a 9-worker cluster."""
        return {op: rate / workers for op, rate in self.ops_per_second.items()}


class SLive:
    """The stress-test driver."""

    def __init__(
        self,
        ops_per_type: int = 2000,
        dirs: int = 50,
        seed: int = 0,
        obs=None,
    ) -> None:
        self.ops_per_type = ops_per_type
        self.dirs = dirs
        self.seed = seed
        if obs is None:
            from repro.obs import Observability, active_capture

            obs = Observability()  # disabled no-op bundle
            capture = active_capture()
            if capture is not None:
                # S-Live builds no cluster, so inside a capture scope
                # (the CLI's --obs-out) it hands its bundle over itself.
                capture.attach(obs)
        #: Optional :class:`~repro.obs.Observability`; S-Live is a pure
        #: metadata benchmark with no simulation engine, so its metrics
        #: are wall-clock-free counters and per-phase events.
        self.obs = obs

    def run(self, adapter) -> SLiveResult:
        """Execute the full mix against one namesystem adapter.

        Phases run in dependency order (create before open/rename,
        rename before delete) with per-phase wall-clock timing, like the
        real S-Live's per-operation reporting.
        """
        rng = DeterministicRng(self.seed, "slive")
        result = SLiveResult(system=adapter.name)
        n = self.ops_per_type

        dir_paths = [f"/slive/d{i % self.dirs}/sub{i}" for i in range(n)]
        file_paths = [
            f"/slive/d{i % self.dirs}/file_{i}" for i in range(n)
        ]
        renamed = [f"/slive/d{i % self.dirs}/renamed_{i}" for i in range(n)]
        ls_targets = [f"/slive/d{i % self.dirs}" for i in range(n)]

        self._timed(result, "mkdir", dir_paths, adapter.mkdir)
        self._timed(result, "create", file_paths, adapter.create)
        # Open and ls sample paths in random order, like S-Live's reads.
        opens = rng.shuffled(file_paths)
        self._timed(result, "open", opens, adapter.open)
        self._timed(result, "ls", ls_targets, adapter.ls)
        self._timed(
            result,
            "rename",
            list(zip(file_paths, renamed)),
            lambda pair: adapter.rename(pair[0], pair[1]),
        )
        self._timed(result, "delete", renamed, adapter.delete)
        return result

    def _timed(self, result: SLiveResult, op: str, items, fn) -> None:
        start = time.perf_counter()
        for item in items:
            fn(item)
        elapsed = time.perf_counter() - start
        result.op_counts[op] = len(items)
        result.ops_per_second[op] = (
            len(items) / elapsed if elapsed > 0 else float("inf")
        )
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter(
                "slive_ops_total", system=result.system, op=op
            ).inc(len(items))
            obs.tracer.event(
                "workload.phase", workload="slive", system=result.system,
                phase=op, ops=len(items),
            )
