"""Input splits: what both engine simulations read from the DFS.

A split is one input block. :func:`plan_splits` lists a job's splits
with the nodes that could read each locally; :func:`read_split` starts
one split's read from the replica the retrieval policy ranks best for
the reading node, so a tier-aware ordering speeds the task (§6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from repro.errors import RetrievalError
from repro.fs.transfer import read_resources

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Node
    from repro.fs.blocks import Block
    from repro.fs.master import Master
    from repro.fs.system import OctopusFileSystem
    from repro.sim.events import Event


class Split(NamedTuple):
    master: "Master"  # the name service owning the input file
    block: "Block"
    hosts: set[str]  # nodes holding a live replica


def plan_splits(
    system: "OctopusFileSystem", input_paths: Iterable[str]
) -> Iterator[Split]:
    """One split per input block, in path order then block order."""
    for path in input_paths:
        master = system.master_for(path)
        for block in master.namespace.get_file(path).blocks:
            meta = master.block_map.get(block.block_id)
            live = meta.live_replicas() if meta else []
            if not live:
                raise RetrievalError(
                    f"input block {block.block_id} of {path!r} lost"
                )
            yield Split(master, block, {r.node.name for r in live})


def read_split(split: Split, node: "Node", label: str) -> "Event":
    """Start the DFS read of ``split`` onto ``node``; returns the
    flow-completion event."""
    master, block, _hosts = split
    meta = master.block_map.get(block.block_id)
    live = meta.live_replicas() if meta else []
    if not live:
        raise RetrievalError(f"block {block.block_id} has no live replica")
    topology = master.cluster.topology
    ordered = master.retrieval_policy.order_replicas(
        [r.medium for r in live], node, topology
    )
    resources = read_resources(topology, ordered[0], node)
    return master.cluster.flows.transfer(block.size, resources, label=label)
