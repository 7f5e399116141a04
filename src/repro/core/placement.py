"""Pluggable block placement policies (paper §3.3 and §7.2).

The file system takes any :class:`BlockPlacementPolicy`; the paper's
evaluation compares eight of them, all implemented here:

* :class:`MoopPlacementPolicy` — the default MOOP policy (Algorithm 2).
* :class:`DataBalancingPolicy`, :class:`LoadBalancingPolicy`,
  :class:`FaultTolerancePolicy`, :class:`ThroughputMaximizationPolicy` —
  the four single-objective variants built for §7.2's ablation.
* :class:`RuleBasedPolicy` — tiers round-robin, random nodes on two
  racks; the model-free straw man of §7.2.
* :class:`OriginalHdfsPolicy` — the stock HDFS placement (local node,
  remote rack, same remote rack), either restricted to HDDs
  ("Original HDFS") or tier-blind over HDDs+SSDs ("HDFS with SSD").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from repro.core import objectives as obj
from repro.core.moop import (
    PlacementRequest,
    expand_vector,
    gen_options,
    place_replicas,
)
from repro.errors import ConfigurationError, InsufficientStorageError
from repro.util.rng import DeterministicRng

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.media import StorageMedium
    from repro.cluster.topology import Node, Rack


class BlockPlacementPolicy(ABC):
    """Strategy interface: pick the media that will host a block's replicas."""

    name: str = "abstract"

    @abstractmethod
    def choose_targets(
        self, cluster: "Cluster", request: PlacementRequest
    ) -> list["StorageMedium"]:
        """Return the chosen media in pipeline order.

        Implementations must respect the hard constraints (unique media,
        sufficient remaining capacity) and raise
        :class:`~repro.errors.InsufficientStorageError` when impossible.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class MoopPlacementPolicy(BlockPlacementPolicy):
    """The default policy: greedy multi-objective optimization.

    ``memory_enabled`` controls whether U entries may land on volatile
    tiers (§3.3: disabled by default; the evaluation enables it).
    ``rng`` spreads exact score ties; see :func:`place_replicas`.
    """

    name = "moop"

    def __init__(
        self,
        memory_enabled: bool = False,
        rng: DeterministicRng | None = None,
    ) -> None:
        self.memory_enabled = memory_enabled
        self.rng = rng

    def choose_targets(
        self, cluster: "Cluster", request: PlacementRequest
    ) -> list["StorageMedium"]:
        request = replace(request, memory_enabled=self.memory_enabled)
        return place_replicas(cluster, request, rng=self.rng)


class SingleObjectivePolicy(BlockPlacementPolicy):
    """The MOOP machinery scored on exactly one objective (§7.2)."""

    def __init__(
        self,
        objective: str,
        memory_enabled: bool = True,
        rng: DeterministicRng | None = None,
    ) -> None:
        if objective not in obj.ALL_OBJECTIVES:
            raise ConfigurationError(f"unknown objective {objective!r}")
        self.objective = objective
        self.memory_enabled = memory_enabled
        # A single objective ties across same-tier media constantly
        # (e.g. every idle SSD has the same throughput score), so the
        # tie-break shuffle is load-bearing here, not cosmetic.
        self.rng = rng or DeterministicRng(0, f"policy/{objective}")
        self.name = objective

    def choose_targets(
        self, cluster: "Cluster", request: PlacementRequest
    ) -> list["StorageMedium"]:
        request = replace(request, memory_enabled=self.memory_enabled)
        return place_replicas(
            cluster, request, objectives=(self.objective,), rng=self.rng
        )


class DataBalancingPolicy(SingleObjectivePolicy):
    """Maximize Eq. 1 only: chase the emptiest media."""

    def __init__(
        self, memory_enabled: bool = True, rng: DeterministicRng | None = None
    ) -> None:
        super().__init__(obj.DATA_BALANCING, memory_enabled, rng)


class LoadBalancingPolicy(SingleObjectivePolicy):
    """Maximize Eq. 3 only: chase the least-connected media."""

    def __init__(
        self, memory_enabled: bool = True, rng: DeterministicRng | None = None
    ) -> None:
        super().__init__(obj.LOAD_BALANCING, memory_enabled, rng)


class FaultTolerancePolicy(SingleObjectivePolicy):
    """Maximize Eq. 5 only: spread over tiers/nodes/two racks."""

    def __init__(
        self, memory_enabled: bool = True, rng: DeterministicRng | None = None
    ) -> None:
        super().__init__(obj.FAULT_TOLERANCE, memory_enabled, rng)


class ThroughputMaximizationPolicy(SingleObjectivePolicy):
    """Maximize Eq. 7 only: chase the fastest tiers."""

    def __init__(
        self, memory_enabled: bool = True, rng: DeterministicRng | None = None
    ) -> None:
        super().__init__(obj.THROUGHPUT_MAX, memory_enabled, rng)


class RuleBasedPolicy(BlockPlacementPolicy):
    """Round-robin across tiers, random nodes across two racks (§7.2).

    The tier cursor persists across blocks so consecutive replicas keep
    cycling through the tier list; nodes are drawn uniformly from two
    randomly chosen racks per block. No load, capacity-percentage, or
    throughput modeling — which is precisely what the paper shows it
    loses to the MOOP policy.
    """

    name = "rule"

    def __init__(self, rng: DeterministicRng | None = None) -> None:
        self.rng = rng or DeterministicRng(0, "rule-policy")
        self._tier_cursor = 0

    def choose_targets(
        self, cluster: "Cluster", request: PlacementRequest
    ) -> list["StorageMedium"]:
        tier_names = [t.name for t in cluster.active_tiers()]
        if not tier_names:
            raise InsufficientStorageError("no active storage tiers")
        racks = self._pick_racks(cluster)
        entries = expand_vector(
            request.rep_vector,
            {t.name: t.rank for t in cluster.tiers.values()},
        )
        chosen: list["StorageMedium"] = []
        excluded = set(request.excluded_media)
        excluded.update(m.medium_id for m in request.existing_replicas)
        # Nothing placed mid-decision changes who can take a replica.
        placeable = cluster.placeable_media()
        for entry in entries:
            medium = self._pick_medium(
                placeable, request, entry.required_tier, tier_names, racks,
                chosen, excluded,
            )
            chosen.append(medium)
        return chosen

    def _pick_racks(self, cluster: "Cluster") -> list["Rack"]:
        racks = [
            rack
            for rack in cluster.topology.racks.values()
            if any(node.media and not node.failed for node in rack.nodes)
        ]
        if len(racks) <= 2:
            return racks
        return self.rng.sample(racks, 2)

    def _pick_medium(
        self,
        placeable: list["StorageMedium"],
        request: PlacementRequest,
        required_tier: str | None,
        tier_names: list[str],
        racks: list["Rack"],
        chosen: list["StorageMedium"],
        excluded: set[str],
    ) -> "StorageMedium":
        chosen_ids = {m.medium_id for m in chosen} | excluded
        used_nodes = {m.node for m in chosen}

        def eligible(tier: str, relax_racks: bool, relax_nodes: bool):
            media = []
            for medium in placeable:
                if medium.tier_name != tier:
                    continue
                if medium.medium_id in chosen_ids:
                    continue
                if medium.remaining < request.block_size:
                    continue
                if not relax_racks and medium.node.rack not in racks:
                    continue
                if not relax_nodes and medium.node in used_nodes:
                    continue
                media.append(medium)
            return media

        tiers_to_try: list[str]
        if required_tier is not None:
            tiers_to_try = [required_tier]
        else:
            # Round-robin: try the cursor tier first, then the rest in order.
            start = self._tier_cursor
            tiers_to_try = [
                tier_names[(start + offset) % len(tier_names)]
                for offset in range(len(tier_names))
            ]
            self._tier_cursor = (start + 1) % len(tier_names)
        for relax_racks, relax_nodes in (
            (False, False), (False, True), (True, False), (True, True),
        ):
            for tier in tiers_to_try:
                media = eligible(tier, relax_racks, relax_nodes)
                if media:
                    return self.rng.choice(media)
        raise InsufficientStorageError(
            "rule-based policy found no medium with space for the block"
        )


class OriginalHdfsPolicy(BlockPlacementPolicy):
    """Stock HDFS placement, unaware of storage tiers.

    Replica 1 goes to the client's node (when it is a worker), replica 2
    to a random node on another rack, replica 3 to a different node on
    replica 2's rack, and further replicas to random nodes. Within a
    node the medium is drawn uniformly from ``allowed_tiers`` — with
    3 HDDs + 1 SSD per node and both tiers allowed, ~25 % of data lands
    on SSDs, matching the paper's "HDFS with SSD" observation.
    """

    def __init__(
        self,
        allowed_tiers: Sequence[str] = ("HDD",),
        rng: DeterministicRng | None = None,
        name: str = "hdfs",
    ) -> None:
        self.allowed_tiers = frozenset(t.upper() for t in allowed_tiers)
        self.rng = rng or DeterministicRng(0, "hdfs-policy")
        self.name = name
        # HDFS's RoundRobinVolumeChoosingPolicy: volumes on a node take
        # turns, which keeps per-disk load even under streaming writes.
        self._volume_cursor: dict[str, int] = {}

    def choose_targets(
        self, cluster: "Cluster", request: PlacementRequest
    ) -> list["StorageMedium"]:
        total = request.rep_vector.total_replicas
        if total < 1:
            raise InsufficientStorageError("HDFS placement needs >= 1 replica")
        excluded = set(request.excluded_media)
        excluded.update(m.medium_id for m in request.existing_replicas)
        chosen: list["StorageMedium"] = []
        for index in range(total):
            medium = self._pick_for_slot(
                cluster, request, index, chosen, excluded
            )
            chosen.append(medium)
        return chosen

    # HDFS chooses a node first, then a volume on it.
    def _pick_for_slot(
        self,
        cluster: "Cluster",
        request: PlacementRequest,
        index: int,
        chosen: list["StorageMedium"],
        excluded: set[str],
    ) -> "StorageMedium":
        used_nodes = {m.node for m in chosen} | {
            m.node for m in request.existing_replicas
        }
        taken = excluded | {m.medium_id for m in chosen}
        volumes: dict["Node", list["StorageMedium"]] = {}

        def node_media(node: "Node") -> list["StorageMedium"]:
            """The node's volumes this slot may use, worked out once."""
            if node not in volumes:
                volumes[node] = [
                    m
                    for m in ([] if node.decommissioning else node.live_media)
                    if m.tier_name in self.allowed_tiers
                    and m.medium_id not in taken
                    and m.remaining >= request.block_size
                ]
            return volumes[node]

        candidates = self._candidate_nodes(cluster, request, index, chosen)
        preferred = [n for n in candidates if n not in used_nodes and node_media(n)]
        if not preferred:
            # Fall back to any writable node anywhere, new nodes first.
            everywhere = [n for n in cluster.worker_nodes if node_media(n)]
            preferred = [n for n in everywhere if n not in used_nodes] or everywhere
        if not preferred:
            raise InsufficientStorageError(
                f"HDFS policy: no node has room in tiers {sorted(self.allowed_tiers)}"
            )
        node = self.rng.choice(preferred)
        return self._next_volume(node, node_media(node))

    def _next_volume(
        self, node: "Node", volumes: list["StorageMedium"]
    ) -> "StorageMedium":
        """Round-robin over a node's eligible volumes."""
        cursor = self._volume_cursor.get(node.name, 0)
        self._volume_cursor[node.name] = cursor + 1
        return volumes[cursor % len(volumes)]

    def _candidate_nodes(
        self,
        cluster: "Cluster",
        request: PlacementRequest,
        index: int,
        chosen: list["StorageMedium"],
    ) -> list["Node"]:
        workers = cluster.worker_nodes
        prior = list(request.existing_replicas) + chosen
        if index == 0 and not prior:
            if request.client_node is not None and request.client_node.media:
                return [request.client_node]
            return workers
        if not prior:
            return workers
        first_rack = prior[0].node.rack
        if index == 1 or len(prior) == 1:
            off_rack = [n for n in workers if n.rack is not first_rack]
            return off_rack or workers
        second_rack = prior[1].node.rack
        same_rack = [n for n in workers if n.rack is second_rack]
        return same_rack or workers


def make_policy(
    name: str,
    rng: DeterministicRng | None = None,
    memory_enabled: bool = True,
) -> BlockPlacementPolicy:
    """Factory for the eight evaluated policies by short name.

    Recognized names: ``moop``, ``db``, ``lb``, ``ft``, ``tm``,
    ``rule``, ``hdfs``, ``hdfs+ssd``.
    """
    key = name.lower()
    if key == "moop":
        return MoopPlacementPolicy(memory_enabled=memory_enabled, rng=rng)
    if key in obj.ALL_OBJECTIVES:
        return SingleObjectivePolicy(key, memory_enabled=memory_enabled, rng=rng)
    if key == "rule":
        return RuleBasedPolicy(rng)
    if key == "hdfs":
        return OriginalHdfsPolicy(("HDD",), rng, name="hdfs")
    if key in ("hdfs+ssd", "hdfs_ssd"):
        return OriginalHdfsPolicy(("HDD", "SSD"), rng, name="hdfs+ssd")
    raise ConfigurationError(f"unknown placement policy {name!r}")
