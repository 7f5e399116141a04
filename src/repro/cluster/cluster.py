"""Materialized cluster: engine + topology + media + tiers in one object."""

from __future__ import annotations

from repro.cluster.media import StorageMedium, StorageTier
from repro.cluster.spec import ClusterSpec
from repro.cluster.topology import NetworkTopology, Node
from repro.errors import ConfigurationError
from repro.obs import Observability, active_capture
from repro.sim.engine import SimulationEngine
from repro.sim.flows import FlowScheduler
from repro.util.rng import DeterministicRng


class Cluster:
    """The built substrate every other subsystem hangs off of.

    Owns the simulation engine, the fluid-flow scheduler, the network
    topology, all storage media, and the virtual tier groupings. The
    file-system layer (:mod:`repro.fs`) adds masters and workers on top.
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
            for node in self.nodes
            for medium in node.media
            if not medium.failed and not node.failed and not node.unreachable
        ]

    def placeable_media(self) -> list[StorageMedium]:
        """Live media that may accept *new* replicas (excludes media on
        decommissioning nodes, which only serve reads while draining)."""
        return [m for m in self.live_media() if not m.node.decommissioning]

    def active_tiers(self) -> list[StorageTier]:
        """Tiers that currently have at least one live medium."""
        return [
            tier
            for tier in sorted(self.tiers.values(), key=lambda t: t.rank)
            if tier.live_media
        ]

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail_node(self, name: str) -> Node:
        node = self.node(name)
        node.failed = True
        node.unreachable = False  # death supersedes mere silence
        return node

    def recover_node(self, name: str) -> Node:
        node = self.node(name)
        node.failed = False
        node.unreachable = False
        return node

    def silence_node(self, name: str) -> Node:
        """Partition a node off the network without killing its process."""
        node = self.node(name)
        node.unreachable = True
        return node

    def unsilence_node(self, name: str) -> Node:
        node = self.node(name)
        node.unreachable = False
        return node

    def degrade_medium(self, medium_id: str, factor: float) -> StorageMedium:
        """Throttle one device to ``factor`` of its baseline throughput,
        re-sharing bandwidth with any in-flight transfers."""
        if medium_id not in self.media:
            raise ConfigurationError(f"unknown medium: {medium_id}")
        medium = self.media[medium_id]
        medium.degrade(factor)
        # Hint the changed channels so the incremental solver only
        # revisits their connected components.
        self.flows.refresh([medium.read_channel, medium.write_channel])
        return medium

    def cap_node_rate(self, name: str, factor: float) -> Node:
        """Cap a node's NIC to ``factor`` of baseline (slow-node fault)."""
        node = self.node(name)
        node.set_nic_factor(factor)
        self.flows.refresh([node.nic_in, node.nic_out])
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cluster nodes={len(self.topology.nodes)} "
            f"media={len(self.media)} tiers={list(self.tiers)}>"
        )
