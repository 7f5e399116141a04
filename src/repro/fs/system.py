"""Assembling a running OctopusFS instance.

:class:`OctopusFileSystem` wires a :class:`~repro.cluster.cluster.
Cluster` to a Master, one Worker per storage-bearing node, and optional
background services (heartbeats, liveness checks, the replication
monitor). Faults are injected through ``fs.faults``, a
:class:`~repro.sim.faults.FaultInjector`: the one place a fault is
applied and recorded. It is the main entry point of the library:

>>> from repro import OctopusFileSystem, ReplicationVector
>>> from repro.cluster import small_cluster_spec
>>> fs = OctopusFileSystem(small_cluster_spec())
>>> client = fs.client(on="worker1")
>>> client.write_file("/data/hello", data=b"hi", rep_vector=ReplicationVector.of(u=2))
>>> client.read_file("/data/hello")
b'hi'
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Generator

from repro.cluster.cluster import Cluster
from repro.cluster.spec import ClusterSpec
from repro.core.placement import BlockPlacementPolicy
from repro.core.replication_vector import ReplicationVector
from repro.core.retrieval import DataRetrievalPolicy
from repro.errors import ConfigurationError, WorkerError
from repro.fs.client import Client
from repro.fs.master import Master
from repro.fs.namespace import SUPERUSER, UserContext
from repro.fs.worker import Worker
from repro.sim.faults import FaultInjector, FaultSchedule
from repro.sim.periodic import PeriodicProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Node
    from repro.fs.inode import INodeFile

DEFAULT_HEARTBEAT_INTERVAL = 3.0
DEFAULT_REPLICATION_INTERVAL = 5.0


class OctopusFileSystem:
    """A complete in-process OctopusFS deployment."""

    def __init__(
        self,
        spec_or_cluster: ClusterSpec | Cluster,
        placement_policy: BlockPlacementPolicy | None = None,
        retrieval_policy: DataRetrievalPolicy | None = None,
        default_rep_vector: ReplicationVector | None = None,
        faults: FaultSchedule | None = None,
    ) -> None:
        if isinstance(spec_or_cluster, Cluster):
            self.cluster = spec_or_cluster
        else:
            self.cluster = Cluster(spec_or_cluster)
        self.engine = self.cluster.engine
        self.obs = self.cluster.obs
        self.master = Master(
            self.cluster,
            placement_policy=placement_policy,
            retrieval_policy=retrieval_policy,
        )
        #: HDFS-compatible default: three replicas, tiers unspecified.
        self.default_rep_vector = default_rep_vector or (
            ReplicationVector.from_replication_factor(3)
        )
        self.workers: dict[str, Worker] = {}
        for node in self.cluster.worker_nodes:
            worker = Worker(self.cluster, node)
            self.workers[node.name] = worker
            self.master.register_worker(worker)
        #: The running background daemons; empty while stopped.
        self.services: list[PeriodicProcess] = []
        #: Called with the opened file's inode on every Client.open
        #: (cache managers, §6-style schedulers, and monitoring hook in
        #: here).
        self.access_listeners: list = []
        #: Deterministic fault injection (repro.sim.faults). Passing a
        #: ``faults=FaultSchedule(...)`` argument arms the schedule as an
        #: engine process; the injector is always available for direct
        #: calls and chaos runs.
        self.faults = FaultInjector(self)
        if faults is not None:
            self.faults.run_schedule(faults)

    def notify_access(self, inode: "INodeFile") -> None:
        for listener in self.access_listeners:
            listener(inode)

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def client(
        self, on: "str | Node | None" = None, user: UserContext = SUPERUSER
    ) -> Client:
        """Get a client bound to a node (by name) or off-cluster (None)."""
        node = None
        if on is not None:
            node = on if not isinstance(on, str) else self.cluster.node(on)
        return Client(self, node=node, user=user)

    # ------------------------------------------------------------------
    # Engine helpers
    # ------------------------------------------------------------------
    def run_to_completion(self, generator: Generator) -> Any:
        """Run one process to completion on the shared engine."""
        return self.engine.run(self.engine.process(generator))

    def await_replication(self, max_rounds: int = 1000) -> int:
        """Drive the replication manager until every block converges.

        Returns the number of passes taken. Useful in tests and scripts
        that do not run the background services. A pass bounded by the
        replication budget still makes progress, so ``max_rounds``
        counts only the passes that schedule nothing while work is
        pending.
        """
        passes = stalled = 0
        while True:
            passes += 1
            processes = self.master.check_replication()
            if processes:
                self.engine.run(self.engine.all_of(processes))
                continue
            if self.master.pending_replication == 0:
                return passes
            stalled += 1
            if stalled >= max_rounds:
                raise WorkerError(
                    f"replication did not converge: {max_rounds} passes "
                    "scheduled nothing while work was pending"
                )

    # ------------------------------------------------------------------
    # Background services (heartbeats, liveness, replication monitor)
    # ------------------------------------------------------------------
    def start_services(
        self,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        replication_interval: float = DEFAULT_REPLICATION_INTERVAL,
    ) -> None:
        """Launch the periodic daemons on the simulation engine.

        One :class:`~repro.sim.periodic.PeriodicProcess` per worker
        heartbeat and one for the replication monitor, each firing in
        the step that starts it and then every interval. Call
        :meth:`stop_services` before draining the engine with a bare
        ``engine.run()``, or always run with ``run(until=...)``.
        """
        if self.services:
            raise ConfigurationError("services already running")
        daemons = [
            (partial(self._heartbeat, worker), heartbeat_interval,
             f"heartbeat:{worker.name}")
            for worker in self.workers.values()
        ]
        daemons.append((self._replication_pass, replication_interval, "replication"))
        self.services = [
            PeriodicProcess(self.engine, *daemon, initial_delay=0).start()
            for daemon in daemons
        ]

    def stop_services(self) -> None:
        for service in self.services:
            service.stop()
        self.services = []

    def _heartbeat(self, worker: Worker) -> None:
        # A dead worker sends nothing; an unreachable one sends
        # heartbeats that never arrive — same observable silence.
        if worker.alive and not worker.node.unreachable:
            self.master.receive_heartbeat(worker.heartbeat())

    def _replication_pass(self) -> None:
        self.master.check_worker_liveness()
        self.master.check_replication()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OctopusFileSystem workers={len(self.workers)} "
            f"blocks={len(self.master.block_map)}>"
        )
