"""Pluggable data retrieval (replica ordering) policies (paper §4).

On a read, the Master has a retrieval policy order the block's live
:class:`~repro.fs.blocks.Replica` objects; the client tries them in
order. The OctopusFS policy (§4.2) estimates the transfer rate each
location could sustain —
``min(NetThru[W]/NrConn[W], RThru[m]/NrConn[m])``, Eq. 12 — so a
memory replica two hops away can beat a local HDD, unless the remote
node's NIC is already saturated. The HDFS baseline orders only by
network distance and is blind to tiers, which is the gap Figure 5
measures.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from repro.util.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.media import StorageMedium
    from repro.cluster.topology import NetworkTopology, Node
    from repro.fs.blocks import Replica


def transfer_rates(
    medium: "StorageMedium", client_node: "Node | None"
) -> tuple[float, float]:
    """Eq. 12 and its media term: ``(estimate, RThru[m]/NrConn[m])``.

    Counts include the prospective new connection (the ``+1``), so an
    idle medium divides by one. A client-local replica skips the network
    term entirely. ``NrConn`` is read off the channels' flow sets (what
    ``nr_connections`` sums) without the two property calls: this runs
    for every replica of every read.
    """
    writes, reads = medium.write_channel.flows, medium.read_channel.flows
    media_rate = medium.read_throughput / (len(writes) + len(reads) + 1)
    worker = medium.node
    if worker is client_node:
        return media_rate, media_rate
    sends, receives = worker.nic_out.flows, worker.nic_in.flows
    network_rate = worker.nic_bandwidth / (len(sends) + len(receives) + 1)
    if network_rate < media_rate:
        return network_rate, media_rate
    return media_rate, media_rate


def estimate_transfer_rate(
    medium: "StorageMedium", client_node: "Node | None"
) -> float:
    """Eq. 12: the rate a new reader could expect from this replica."""
    return transfer_rates(medium, client_node)[0]


class DataRetrievalPolicy(ABC):
    """Strategy interface: order a block's replicas for a given client."""

    name: str = "abstract"

    @abstractmethod
    def order_replicas(
        self,
        replicas: Sequence["Replica"],
        client_node: "Node | None",
        topology: "NetworkTopology",
    ) -> list["Replica"]:
        """Return the replicas best-first, as a new list; must be a
        permutation. Each replica's location is ``replica.medium``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class OctopusRetrievalPolicy(DataRetrievalPolicy):
    """Rate-based ordering: Eq. 12, descending.

    Ties on the estimated rate fall back to the raw media throughput
    (the paper's network-bottleneck tie-break); full ties are shuffled
    to spread load. The shuffle draws from a deterministic RNG so runs
    are reproducible.
    """

    name = "octopus"

    def __init__(self, rng: DeterministicRng | None = None) -> None:
        self.rng = rng or DeterministicRng(0, "octopus-retrieval")

    def order_replicas(
        self,
        replicas: Sequence["Replica"],
        client_node: "Node | None",
        topology: "NetworkTopology",
    ) -> list["Replica"]:
        shuffled = self.rng.shuffled(replicas)
        # Descending on (Eq. 12, media term) and stable: full ties keep
        # their shuffled order.
        shuffled.sort(key=lambda r: transfer_rates(r.medium, client_node), reverse=True)
        return shuffled


class HdfsLocalityRetrievalPolicy(DataRetrievalPolicy):
    """The stock HDFS ordering: network distance only, tiers ignored."""

    name = "hdfs"

    def __init__(self, rng: DeterministicRng | None = None) -> None:
        self.rng = rng or DeterministicRng(0, "hdfs-retrieval")

    def order_replicas(
        self,
        replicas: Sequence["Replica"],
        client_node: "Node | None",
        topology: "NetworkTopology",
    ) -> list["Replica"]:
        shuffled = self.rng.shuffled(replicas)
        shuffled.sort(key=lambda r: topology.distance(client_node, r.medium.node))
        return shuffled
