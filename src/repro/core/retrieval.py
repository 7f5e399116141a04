"""Pluggable data retrieval (replica ordering) policies (paper §4).

On a read, the Master returns a block's replica locations *ordered* by a
retrieval policy; the client tries them in order. The OctopusFS policy
(§4.2) estimates the transfer rate each location could sustain —
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


def transfer_rates(
    medium: "StorageMedium", client_node: "Node | None"
) -> tuple[float, float]:
    """Eq. 12 and its media term: ``(estimate, RThru[m]/NrConn[m])``.

    Counts include the prospective new connection (the ``+1``), so an
    idle medium divides by one. A client-local replica skips the network
    term entirely.
    """
    media_rate = medium.read_throughput / (medium.nr_connections + 1)
    if client_node is not None and medium.node is client_node:
        return media_rate, media_rate
    worker = medium.node
    network_rate = worker.nic_bandwidth / (worker.nr_connections + 1)
    return min(network_rate, media_rate), media_rate


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
        replicas: Sequence["StorageMedium"],
        client_node: "Node | None",
        topology: "NetworkTopology",
    ) -> list["StorageMedium"]:
        """Return the replicas best-first; must be a permutation."""

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
        replicas: Sequence["StorageMedium"],
        client_node: "Node | None",
        topology: "NetworkTopology",
    ) -> list["StorageMedium"]:
        shuffled = self.rng.shuffled(replicas)

        def best_first(medium: "StorageMedium") -> tuple[float, float]:
            rate, media_rate = transfer_rates(medium, client_node)
            return -rate, -media_rate

        shuffled.sort(key=best_first)
        return shuffled


class HdfsLocalityRetrievalPolicy(DataRetrievalPolicy):
    """The stock HDFS ordering: network distance only, tiers ignored."""

    name = "hdfs"

    def __init__(self, rng: DeterministicRng | None = None) -> None:
        self.rng = rng or DeterministicRng(0, "hdfs-retrieval")

    def order_replicas(
        self,
        replicas: Sequence["StorageMedium"],
        client_node: "Node | None",
        topology: "NetworkTopology",
    ) -> list["StorageMedium"]:
        shuffled = self.rng.shuffled(replicas)
        shuffled.sort(
            key=lambda medium: topology.distance(client_node, medium.node)
        )
        return shuffled
