"""Assembling a running OctopusFS instance.

:class:`OctopusFileSystem` wires a :class:`~repro.cluster.cluster.
Cluster` to a Master, one Worker per storage-bearing node, and optional
background services (heartbeats, liveness checks, the replication
monitor). It is the main entry point of the library:

>>> from repro import OctopusFileSystem, ReplicationVector
>>> from repro.cluster import small_cluster_spec
>>> fs = OctopusFileSystem(small_cluster_spec())
>>> client = fs.client(on="worker1")
>>> client.write_file("/data/hello", data=b"hi", rep_vector=ReplicationVector.of(u=2))
>>> client.read_file("/data/hello")
b'hi'
"""

from __future__ import annotations

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

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.media import StorageMedium
    from repro.cluster.topology import Node

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
        self._services_running = False
        #: Called with the path on every Client.open (cache managers,
        #: §6-style schedulers, and monitoring hook in here).
        self.access_listeners: list = []
        #: Deterministic fault injection (repro.sim.faults). Passing a
        #: ``faults=FaultSchedule(...)`` argument arms the schedule as an
        #: engine process; the injector is always available for direct
        #: calls and chaos runs.
        self.faults = FaultInjector(self)
        if faults is not None:
            self.faults.run_schedule(faults)

    def notify_access(self, path: str) -> None:
        for listener in self.access_listeners:
            listener(path)

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

    def master_for(self, path: str) -> Master:
        """The master owning ``path`` (overridden by federation)."""
        return self.master

    # ------------------------------------------------------------------
    # Engine helpers
    # ------------------------------------------------------------------
    def run_to_completion(self, generator: Generator) -> Any:
        """Run one process to completion on the shared engine."""
        return self.engine.run(self.engine.process(generator))

    def await_replication(self, max_rounds: int = 1000) -> int:
        """Drive the replication manager until every block converges.

        Returns the number of passes taken. Useful in tests and scripts
        that do not run the background services.
        """
        for round_number in range(1, max_rounds + 1):
            processes = self.master.check_replication()
            if processes:
                self.engine.run(self.engine.all_of(processes))
                continue
            if self.master.pending_replication == 0:
                return round_number
        raise WorkerError(
            f"replication did not converge in {max_rounds} passes"
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

        They reschedule themselves while running; call
        :meth:`stop_services` before draining the engine with a bare
        ``engine.run()``, or always run with ``run(until=...)``.
        """
        if self._services_running:
            raise ConfigurationError("services already running")
        self._services_running = True
        for worker in self.workers.values():
            self.engine.process(
                self._heartbeat_loop(worker, heartbeat_interval),
                name=f"heartbeat:{worker.name}",
            )
        self.engine.process(
            self._replication_loop(replication_interval), name="replication"
        )

    def stop_services(self) -> None:
        self._services_running = False

    def _heartbeat_loop(self, worker: Worker, interval: float) -> Generator:
        while self._services_running:
            # A dead worker sends nothing; an unreachable one sends
            # heartbeats that never arrive — same observable silence.
            if worker.alive and not worker.node.unreachable:
                self.master.receive_heartbeat(worker.heartbeat())
            yield self.engine.timeout(interval)

    def _replication_loop(self, interval: float) -> Generator:
        while self._services_running:
            self.master.check_worker_liveness()
            self.master.check_replication()
            yield self.engine.timeout(interval)

    # ------------------------------------------------------------------
    # Trash maintenance
    # ------------------------------------------------------------------
    def expunge_trash(self, older_than: float = 0.0) -> int:
        """Permanently delete trashed entries older than ``older_than``
        simulated seconds. Returns the number of entries removed."""
        removed = 0
        now = self.engine.now
        master = self.master_for("/.Trash")
        if not master.namespace.exists("/.Trash"):
            return 0
        for user_dir in master.list_status("/.Trash"):
            for entry in master.list_status(user_dir.path):
                if now - entry.mtime >= older_than:
                    master.delete(entry.path, recursive=True)
                    removed += 1
        return removed

    # ------------------------------------------------------------------
    # Decommissioning (graceful node removal)
    # ------------------------------------------------------------------
    def decommission_worker(self, name: str, max_rounds: int = 1000) -> int:
        """Gracefully retire a worker: drain its replicas, then remove it.

        The node keeps serving reads while the replication manager
        copies every replica it holds onto other nodes; once empty, the
        worker is retired. Returns the number of replicas drained.
        """
        if name not in self.workers:
            raise WorkerError(f"unknown worker {name!r}")
        worker = self.workers[name]
        node = self.cluster.node(name)
        node.decommissioning = True
        drained = len(worker.block_report())
        self.master.mark_dirty(worker.block_report())
        self.await_replication(max_rounds=max_rounds)
        if worker.block_report():
            raise WorkerError(
                f"decommission of {name} stalled with "
                f"{len(worker.block_report())} replicas left"
            )
        # Retired: no longer a member of the cluster.
        node.failed = True
        self.master.workers[name].dead = True
        return drained

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def _cancel_flows_on(self, resources: list, failure: WorkerError) -> None:
        """Abort every transfer crossing ``resources``, in flow start
        order: set order follows object addresses and would make the
        failure cascade differ between runs."""
        doomed = {flow for resource in resources for flow in resource.flows}
        for flow in sorted(doomed, key=lambda f: f.seq):
            self.cluster.flows.cancel_flow(flow, failure)

    def fail_worker(self, name: str) -> None:
        """Kill a worker: node marked dead, in-flight transfers aborted,
        volatile (memory) replicas lost with it."""
        if name not in self.workers:
            raise WorkerError(f"unknown worker {name!r}")
        node = self.cluster.fail_node(name)
        resources = [node.nic_in, node.nic_out]
        for medium in node.media:
            resources.extend([medium.read_channel, medium.write_channel])
        self._cancel_flows_on(resources, WorkerError(f"worker {name} died"))
        self.master.check_worker_liveness()

    def fail_medium(self, medium_id: str) -> None:
        """Kill a single storage device (disk failure, not node failure).

        In-flight transfers on the medium abort; its replicas are lost
        and the replication manager re-replicates from surviving copies.
        """
        medium = self.cluster.media.get(medium_id)
        if medium is None:
            raise WorkerError(f"unknown medium {medium_id!r}")
        medium.failed = True
        self._cancel_flows_on(
            [medium.read_channel, medium.write_channel],
            WorkerError(f"medium {medium_id} failed"),
        )
        worker = self.workers[medium.node.name]
        self.master.mark_dirty(
            r for r in worker.block_report() if r.medium is medium
        )

    def recover_worker(self, name: str) -> None:
        """Bring a failed worker back; its volatile replicas are gone."""
        if name not in self.workers:
            raise WorkerError(f"unknown worker {name!r}")
        node = self.cluster.recover_node(name)
        worker = self.workers[name]
        # Memory does not survive a restart: drop volatile replicas.
        volatile = [r for r in worker.block_report() if r.medium.volatile]
        for replica in volatile:
            worker.delete_replica(replica)
            meta = self.master.block_map.get(replica.block.block_id)
            if meta and replica in meta.replicas:
                self.master.detach_replica(meta, replica)
        record = self.master.workers[name]
        record.dead = False
        record.silent = False
        record.last_heartbeat = self.engine.now
        self.master.receive_block_report(worker)
        # The worker no longer reports its volatile blocks: name them too,
        # or the loss goes unrepaired when it was never declared dead.
        self.master.mark_dirty(volatile + worker.block_report())

    def silence_worker(self, name: str, cut_flows: bool = True) -> None:
        """Partition a worker off the network without killing it.

        Heartbeats stop arriving and (with ``cut_flows``) in-flight
        transfers crossing the node's NIC abort, but the process and its
        replicas — volatile ones included — stay intact. The master
        declares the worker *silent* (not dead) once the heartbeat
        expiry elapses; see :meth:`Master.check_worker_liveness`.
        """
        if name not in self.workers:
            raise WorkerError(f"unknown worker {name!r}")
        node = self.cluster.silence_node(name)
        if cut_flows:
            self._cancel_flows_on(
                [node.nic_in, node.nic_out],
                WorkerError(f"worker {name} is unreachable"),
            )

    def unsilence_worker(self, name: str) -> None:
        """Heal a network partition; the worker re-heartbeats at once.

        Unlike :meth:`recover_worker`, nothing was lost — the master
        reconciles the returning replicas (usually trimming the surplus
        its outage-time re-replication created).
        """
        if name not in self.workers:
            raise WorkerError(f"unknown worker {name!r}")
        record = self.master.workers.get(name)
        if record is not None and not record.dead:
            # Deliver the heartbeat while the unreachable flag is still
            # set: receive_heartbeat uses it to tell "returning from a
            # partition" (reconcile the node's blocks) from a routine
            # beat, then clears it.
            self.master.receive_heartbeat(self.workers[name].heartbeat())
        self.cluster.unsilence_node(name)

    def degrade_medium(self, medium_id: str, factor: float) -> "StorageMedium":
        """Throttle one device to ``factor`` of baseline throughput."""
        if medium_id not in self.cluster.media:
            raise WorkerError(f"unknown medium {medium_id!r}")
        return self.cluster.degrade_medium(medium_id, factor)

    def repair_medium(self, medium_id: str) -> None:
        """Bring a failed (or degraded) device back at full speed.

        Replicas the master already pruned are gone — the device returns
        empty; any it still remembers are marked dirty so the
        replication manager revalidates them.
        """
        medium = self.cluster.media.get(medium_id)
        if medium is None:
            raise WorkerError(f"unknown medium {medium_id!r}")
        medium.failed = False
        medium.degrade(1.0)
        self.cluster.flows.refresh([medium.read_channel, medium.write_channel])
        worker = self.workers[medium.node.name]
        self.master.mark_dirty(
            r for r in worker.block_report() if r.medium is medium
        )

    def slow_worker(self, name: str, factor: float) -> None:
        """Cap a node's NIC to ``factor`` of baseline (slow-node fault)."""
        if name not in self.workers:
            raise WorkerError(f"unknown worker {name!r}")
        self.cluster.cap_node_rate(name, factor)

    def restore_worker_speed(self, name: str) -> None:
        if name not in self.workers:
            raise WorkerError(f"unknown worker {name!r}")
        self.cluster.cap_node_rate(name, 1.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OctopusFileSystem workers={len(self.workers)} "
            f"blocks={len(self.master.block_map)}>"
        )
