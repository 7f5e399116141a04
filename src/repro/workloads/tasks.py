"""The task substrate both engine simulations run on (paper §7.5).

Hadoop and Spark reach the DFS only through placement and retrieval;
the mechanisms around their task bodies are the same, so they are
written once here:

* a split is one input block: :func:`plan_splits` lists a job's splits
  with the nodes that could read each locally, and :func:`read_split`
  starts one split's read from the replica the retrieval policy ranks
  best for the reading node, so a tier-aware ordering speeds the task
  (§6);
* :func:`run_wave` drains a queue of tasks through per-node slots, each
  slot choosing its next task with :func:`pick_local`'s locality levels;
* :func:`shuffle` moves intermediate data between nodes' local disks;
* :func:`write_part` and :func:`write_parts` write output files through
  the DFS client, so the placement policy and any replication vector
  shape their cost; :func:`list_files` lists what a job wrote.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Iterable, Iterator, NamedTuple

from repro.errors import RetrievalError
from repro.fs.transfer import copy_resources, read_resources

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.media import StorageMedium
    from repro.cluster.topology import Node
    from repro.core.replication_vector import ReplicationVector
    from repro.fs.blocks import Block
    from repro.fs.client import Client
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
    master = system.master
    for path in input_paths:
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
    best = master.retrieval_policy.order_replicas(live, node, topology)[0]
    resources = read_resources(topology, best.medium, node)
    return master.cluster.flows.transfer(block.size, resources, label=label)


def run_wave(
    system: "OctopusFileSystem",
    slots: int,
    queue: list[Split],
    pick: Callable[[list[Split], "Node"], Split],
    task: Callable[[Split, "Node"], Generator],
    name: str,
) -> Generator:
    """Drain ``queue`` through ``slots`` processes per worker.

    Processes start in sorted worker order, named ``name:<worker>``;
    each pops ``pick(queue, node)`` and runs ``task`` on it until the
    queue is empty. The wave ends when every process has.
    """
    engine = system.engine

    def slot(node: "Node") -> Generator:
        while queue:
            split = pick(queue, node)
            queue.remove(split)
            yield from task(split, node)

    procs = []
    for node_name in sorted(system.workers):
        node = system.cluster.node(node_name)
        for _slot in range(slots):
            procs.append(engine.process(slot(node), name=f"{name}:{node_name}"))
    yield engine.all_of(procs)


def pick_local(
    queue: list[Split],
    node: "Node",
    first: Callable[[Split, "Node"], bool] | None = None,
) -> Split:
    """The split ``node`` runs next, by locality level: the first one
    ``first`` accepts, else node-local, else rack-local, else the head
    of the queue."""
    if first is not None:
        for split in queue:
            if first(split, node):
                return split
    for split in queue:
        if node.name in split.hosts:
            return split
    rack_nodes = {n.name for n in node.rack.nodes}
    for split in queue:
        if split.hosts & rack_nodes:
            return split
    return queue[0]


def local_disk(node: "Node", channel: str) -> "StorageMedium":
    """``node``'s HDD (any live medium if it has none) with the fewest
    flows on ``channel``, ``"read_channel"`` or ``"write_channel"``:
    Hadoop and Spark spread local I/O over the disks."""
    disks = node.medium_for_tier("HDD") or node.live_media
    return min(disks, key=lambda medium: getattr(medium, channel).active_count)


def shuffle(
    system: "OctopusFileSystem",
    moves: Iterable[tuple["Node", "Node", int]],
    label: str,
) -> Generator:
    """One disk-to-disk transfer per ``(source, destination, bytes)``
    with bytes > 0, read from the source's least read-loaded disk and
    written to the destination's least write-loaded one; waits for all
    of them."""
    cluster = system.cluster
    flows = [
        cluster.flows.transfer(
            nbytes,
            copy_resources(
                cluster.topology,
                local_disk(source, "read_channel"),
                local_disk(destination, "write_channel"),
            ),
            label=label,
        )
        for source, destination, nbytes in moves
        if nbytes > 0
    ]
    if flows:
        yield system.engine.all_of(flows)


def write_part(
    client: "Client",
    path: str,
    size: int,
    vector: "ReplicationVector | int | None",
) -> Generator:
    """Write ``size`` bytes to ``path`` from ``client``'s node, with
    replication ``vector`` (None: the file system's default)."""
    stream = client.create(path, rep_vector=vector, overwrite=True)
    yield from stream.write_size_proc(size)
    yield from stream.close_proc()


def write_parts(
    system: "OctopusFileSystem",
    stem: str,
    per_node: int,
    vector: "ReplicationVector | int | None",
) -> "Event":
    """Start one writer per worker, in sorted order: worker ``i`` writes
    ``per_node`` bytes to ``<stem>-<i:05d>``. Returns the event of all
    of them closing their files."""
    engine = system.engine
    procs = [
        engine.process(
            write_part(
                system.client(on=name), f"{stem}-{index:05d}", per_node, vector
            )
        )
        for index, name in enumerate(sorted(system.workers))
    ]
    return engine.all_of(procs)


def list_files(system: "OctopusFileSystem", directory: str) -> list[str]:
    """The paths of the files (not directories) in ``directory``."""
    return [
        s.path for s in system.master.list_status(directory) if not s.is_directory
    ]
