"""Materialized cluster: engine + topology + media + tiers in one object.

It holds the state a fault changes (``node.failed``,
``node.unreachable``, ``medium.failed``, ``medium.degrade``) but applies
no fault itself: :class:`repro.sim.faults.FaultInjector` does that.
"""

from __future__ import annotations

from repro.cluster.media import StorageMedium, StorageTier
from repro.cluster.spec import ClusterSpec
from repro.cluster.topology import NetworkTopology, Node
from repro.core.objectives import PlacementView
from repro.errors import ConfigurationError
from repro.obs import Observability, active_capture
from repro.sim.engine import SimulationEngine
from repro.sim.flows import FlowScheduler
from repro.util.rng import DeterministicRng


class Cluster:
    """The built substrate every other subsystem hangs off of.

    Owns the simulation engine, the fluid-flow scheduler, the network
    topology, all storage media, and the virtual tier groupings. The
    file-system layer (:mod:`repro.fs`) adds a master and workers on top.
    """

    def __init__(
        self, spec: ClusterSpec, engine: SimulationEngine | None = None
    ) -> None:
        self.spec = spec
        self.engine = engine or SimulationEngine()
        #: Metrics + tracing bundle, stamped by the sim clock. Disabled
        #: (near-zero-cost) until someone calls ``obs.enable()``.
        self.obs = Observability(clock=lambda: self.engine.now)
        capture = active_capture()
        if capture is not None:
            # An enclosing ObsCapture scope (e.g. the CLI's experiment
            # --obs-out) collects this cluster's telemetry.
            capture.attach(self.obs, self)
        self.flows = FlowScheduler(self.engine, obs=self.obs)
        self.rng = DeterministicRng(spec.seed, "cluster")
        self.topology = NetworkTopology()
        self.tiers: dict[str, StorageTier] = {
            t.name: StorageTier(t.name, t.rank, volatile=t.volatile)
            for t in spec.tiers
        }
        self.media: dict[str, StorageMedium] = {}
        self._build_nodes()
        #: What placement decisions read between them (the Master's
        #: heartbeat statistics, §3.2).
        self.placement_view = PlacementView(self)

    def _build_nodes(self) -> None:
        rack_names = {node.rack for node in self.spec.nodes}
        overhead = self.spec.network_congestion_overhead
        for rack_name in sorted(rack_names):
            self.topology.add_rack(
                rack_name, self.spec.rack_uplink_bandwidth, overhead
            )
        for node_spec in self.spec.nodes:
            node = self.topology.add_node(
                node_spec.name, node_spec.rack, node_spec.nic_bandwidth, overhead
            )
            for index, medium_spec in enumerate(node_spec.media):
                medium_id = f"{node_spec.name}:{medium_spec.tier.lower()}{index}"
                tier = self.tiers[medium_spec.tier]
                medium = StorageMedium(
                    medium_id=medium_id,
                    node=node,
                    tier_name=medium_spec.tier,
                    capacity=medium_spec.capacity,
                    write_throughput=medium_spec.write_throughput,
                    read_throughput=medium_spec.read_throughput,
                    volatile=tier.volatile,
                )
                node.media.append(medium)
                tier.add_medium(medium)
                self.media[medium_id] = medium

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def block_size(self) -> int:
        return self.spec.block_size

    @property
    def nodes(self) -> list[Node]:
        return list(self.topology.nodes.values())

    @property
    def worker_nodes(self) -> list[Node]:
        return self.topology.worker_nodes

    @property
    def tier_order(self) -> list[str]:
        """Tier names fastest-first; the replication-vector axis order."""
        return self.spec.tier_order

    def node(self, name: str) -> Node:
        if name not in self.topology.nodes:
            raise ConfigurationError(f"unknown node: {name}")
        return self.topology.nodes[name]

    def tier(self, name: str) -> StorageTier:
        if name not in self.tiers:
            raise ConfigurationError(f"unknown tier: {name}")
        return self.tiers[name]

    def live_media(self) -> list[StorageMedium]:
        """Every readable medium on a live, reachable node."""
        return [
            medium
            for node in self.topology.nodes.values()
            if not node.failed and not node.unreachable
            for medium in node.media
            if not medium.failed
        ]

    def active_tiers(self) -> list[StorageTier]:
        """Tiers that currently have at least one live medium."""
        return [
            tier
            for tier in sorted(self.tiers.values(), key=lambda t: t.rank)
            if tier.has_live_medium
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cluster nodes={len(self.topology.nodes)} "
            f"media={len(self.media)} tiers={list(self.tiers)}>"
        )
