"""Hierarchical network topology: racks, nodes, NICs, uplinks.

The paper (following HDFS) assumes workers spread across racks behind a
two-level switch hierarchy. We model:

* per-node full-duplex NICs (separate ingress/egress fluid resources),
* per-rack uplinks (shared by all cross-rack traffic of that rack), and
* an implicit non-blocking core.

``NetworkTopology.distance`` uses the HDFS convention: 0 for the same
node, 2 for the same rack, 4 across racks. The data path between two
nodes is the ordered list of fluid resources a flow must cross, which is
what turns concurrency into congestion in the experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.sim.flows import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.media import StorageMedium

DISTANCE_LOCAL = 0
DISTANCE_SAME_RACK = 2
DISTANCE_OFF_RACK = 4


class Rack:
    """A rack of nodes behind a shared uplink to the core."""

    def __init__(
        self, name: str, uplink_bandwidth: float, congestion_overhead: float = 0.0
    ) -> None:
        self.name = name
        self.nodes: list["Node"] = []
        self.uplink_out = Resource(
            f"rack:{name}/up", uplink_bandwidth, congestion_overhead
        )
        self.uplink_in = Resource(
            f"rack:{name}/down", uplink_bandwidth, congestion_overhead
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rack {self.name} nodes={len(self.nodes)}>"


class Node:
    """A cluster machine: a NIC plus zero or more storage media."""

    def __init__(
        self,
        name: str,
        rack: Rack,
        nic_bandwidth: float,
        congestion_overhead: float = 0.0,
    ) -> None:
        self.name = name
        self.rack = rack
        rack.nodes.append(self)
        self.nic_out = Resource(
            f"node:{name}/out", nic_bandwidth, congestion_overhead
        )
        self.nic_in = Resource(
            f"node:{name}/in", nic_bandwidth, congestion_overhead
        )
        self.nic_bandwidth = float(nic_bandwidth)
        self._base_nic_bandwidth = float(nic_bandwidth)
        self.media: list["StorageMedium"] = []
        self.failed = False
        #: Network-silent: the process is alive and its data intact, but
        #: nothing reaches it (heartbeats included). Distinct from
        #: ``failed``, where the process is gone and volatile replicas
        #: with it.
        self.unreachable = False
        #: NIC rate-cap factor in (0, 1]; < 1 models a slow node.
        self.nic_factor = 1.0
        #: Decommissioning nodes still serve reads but accept no new
        #: replicas; the master drains them before retirement.
        self.decommissioning = False

    def set_nic_factor(self, factor: float) -> None:
        """Cap (or restore) NIC bandwidth to ``factor`` of the baseline.

        In-flight flows keep their rates until the caller re-shares
        them with :meth:`repro.sim.flows.FlowScheduler.refresh`; the
        write itself already stops the scheduler reusing anything
        computed under the old capacity.
        """
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(
                f"node {self.name}: nic factor must be in (0, 1], got {factor}"
            )
        self.nic_factor = factor
        self.nic_bandwidth = self._base_nic_bandwidth * factor
        self.nic_out.capacity = self.nic_bandwidth
        self.nic_in.capacity = self.nic_bandwidth

    @property
    def nr_connections(self) -> int:
        """``NrConn[W]``: active network streams touching this node."""
        return self.nic_out.active_count + self.nic_in.active_count

    @property
    def live_media(self) -> list["StorageMedium"]:
        if self.failed or self.unreachable:
            return []
        return [m for m in self.media if not m.failed]

    def medium_for_tier(self, tier_name: str) -> list["StorageMedium"]:
        return [m for m in self.live_media if m.tier_name == tier_name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} rack={self.rack.name} media={len(self.media)}>"


class NetworkTopology:
    """The rack/node graph plus path-resource computation."""

    def __init__(self) -> None:
        self.racks: dict[str, Rack] = {}
        self.nodes: dict[str, Node] = {}

    def add_rack(
        self, name: str, uplink_bandwidth: float, congestion_overhead: float = 0.0
    ) -> Rack:
        if name in self.racks:
            raise ConfigurationError(f"duplicate rack name: {name}")
        rack = Rack(name, uplink_bandwidth, congestion_overhead)
        self.racks[name] = rack
        return rack

    def add_node(
        self,
        name: str,
        rack_name: str,
        nic_bandwidth: float,
        congestion_overhead: float = 0.0,
    ) -> Node:
        if name in self.nodes:
            raise ConfigurationError(f"duplicate node name: {name}")
        if rack_name not in self.racks:
            raise ConfigurationError(f"unknown rack: {rack_name}")
        node = Node(
            name, self.racks[rack_name], nic_bandwidth, congestion_overhead
        )
        self.nodes[name] = node
        return node

    def distance(self, a: Node | None, b: Node | None) -> int:
        """HDFS-style network distance; off-cluster clients are maximal."""
        if a is None or b is None:
            return DISTANCE_OFF_RACK
        if a is b:
            return DISTANCE_LOCAL
        if a.rack is b.rack:
            return DISTANCE_SAME_RACK
        return DISTANCE_OFF_RACK

    def path_resources(self, src: Node | None, dst: Node | None) -> list[Resource]:
        """The fluid resources a transfer from ``src`` to ``dst`` crosses.

        A ``None`` endpoint is an off-cluster client, assumed to enter
        through the core (its own NIC is not modeled). A local transfer
        (same node) touches no network resources at all.
        """
        if src is dst:
            return []
        resources: list[Resource] = []
        if src is not None:
            resources.append(src.nic_out)
        cross_rack = src is None or dst is None or src.rack is not dst.rack
        if cross_rack:
            if src is not None:
                resources.append(src.rack.uplink_out)
            if dst is not None:
                resources.append(dst.rack.uplink_in)
        if dst is not None:
            resources.append(dst.nic_in)
        return resources

    @property
    def worker_nodes(self) -> list[Node]:
        """Nodes that carry storage media (i.e. run a Worker)."""
        return [n for n in self.nodes.values() if n.media and not n.failed]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NetworkTopology racks={len(self.racks)} nodes={len(self.nodes)}>"
        )
