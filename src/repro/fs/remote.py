"""Remote storage as an integrated tier (paper §2.4).

The remote store (another DFS, S3, NAS, ...) is just another storage
tier: :func:`remote_cluster_spec` builds a cluster whose "REMOTE" tier
lives on a gateway node, so placement policies and replication vectors
(the ⟨M,S,H,R⟩ "R" entry) use it like any other medium, with the
gateway's bandwidth as the natural bottleneck.
"""

from __future__ import annotations

from repro.cluster.spec import (
    ClusterSpec,
    MediumSpec,
    NodeSpec,
    TierSpec,
    paper_cluster_spec,
)
from repro.util.units import MB, TB


def remote_cluster_spec(
    workers: int = 9,
    racks: int = 2,
    remote_capacity: int = 4 * TB,
    remote_bandwidth: float = 100.0 * MB,
    **kwargs,
) -> ClusterSpec:
    """The paper's testbed plus an integrated REMOTE tier on a gateway."""
    base = paper_cluster_spec(workers=workers, racks=racks, **kwargs)
    tiers = base.tiers + (TierSpec("REMOTE", rank=3),)
    gateway = NodeSpec(
        name="remote-gw",
        rack="rack0",
        nic_bandwidth=remote_bandwidth,
        media=(
            MediumSpec.of(
                "REMOTE", remote_capacity, remote_bandwidth, remote_bandwidth
            ),
        ),
    )
    return ClusterSpec(
        tiers=tiers,
        nodes=base.nodes + (gateway,),
        rack_uplink_bandwidth=base.rack_uplink_bandwidth,
        block_size=base.block_size,
        seed=base.seed,
    )
