"""Remote storage: integrated and stand-alone modes (paper §2.4).

**Integrated mode** — the remote store (another DFS, S3, NAS, ...) is
just another storage tier: :func:`remote_cluster_spec` builds a cluster
whose "REMOTE" tier lives on a gateway node, so placement policies and
replication vectors (the ⟨M,S,H,R⟩ "R" entry) use it like any other
medium, with the gateway's bandwidth as the natural bottleneck.

**Stand-alone mode** — the remote store is an independent entity
mounted at a directory, generalizing MixApart: file *names* are appended
into the OctopusFS namespace for a unified listing view, while reads are
proxied through cluster workers with transparent on-cluster caching
(the first read pulls from the remote gateway and caches a replica in a
configurable tier; later reads are served locally). The paper declines
to elaborate this mode further; our implementation covers exactly the
behaviour above and keeps writes remote-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.cluster.spec import (
    DEFAULT_TIERS,
    PAPER_NIC_BANDWIDTH,
    PAPER_RACK_UPLINK,
    ClusterSpec,
    MediumSpec,
    NodeSpec,
    TierSpec,
    paper_cluster_spec,
)
from repro.core.replication_vector import ReplicationVector
from repro.errors import RemoteStorageError
from repro.fs import paths
from repro.sim.flows import Resource
from repro.util.units import GB, MB, TB

if TYPE_CHECKING:  # pragma: no cover
    from repro.fs.client import Client
    from repro.fs.system import OctopusFileSystem


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


@dataclass
class RemoteObject:
    """One object in the remote store."""

    key: str
    size: int
    data: bytes | None = None


class RemoteStore:
    """A stand-alone remote object store (S3/NAS stand-in).

    Transfers to/from the cluster share ``gateway`` bandwidth, so a
    burst of remote reads contends exactly like a thin WAN pipe would.
    """

    def __init__(self, name: str = "s3", bandwidth: float = 100.0 * MB) -> None:
        self.name = name
        self.objects: dict[str, RemoteObject] = {}
        self.gateway = Resource(f"remote:{name}", bandwidth)

    def put(self, key: str, data: bytes | None = None, size: int | None = None) -> None:
        if data is None and size is None:
            raise RemoteStorageError("put needs data or a size")
        self.objects[key] = RemoteObject(
            key=key, size=len(data) if data is not None else int(size or 0),
            data=data,
        )

    def get(self, key: str) -> RemoteObject:
        if key not in self.objects:
            raise RemoteStorageError(f"{self.name}: no such object {key!r}")
        return self.objects[key]

    def list(self) -> list[RemoteObject]:
        return [self.objects[k] for k in sorted(self.objects)]


class StandaloneMount:
    """A remote store mounted at a directory (stand-alone mode, §2.4)."""

    def __init__(
        self,
        system: "OctopusFileSystem",
        store: RemoteStore,
        mount_point: str,
        cache_vector: ReplicationVector | None = None,
    ) -> None:
        self.system = system
        self.store = store
        self.mount_point = paths.normalize(mount_point)
        #: Where cached copies land; 1 replica on any tier by default.
        self.cache_vector = cache_vector or ReplicationVector.of(u=1)
        self._cache_dir = self.mount_point + "/.cache"
        system.master_for(self.mount_point).mkdir(self._cache_dir)
        self.refresh()

    # ------------------------------------------------------------------
    # Unified namespace view
    # ------------------------------------------------------------------
    def remote_path(self, key: str) -> str:
        return paths.join(self.mount_point, key)

    def refresh(self) -> list[str]:
        """Append the remote listing into the namespace (names + sizes).

        Remote-backed entries are directories' worth of zero-block files
        whose data stays remote until cached; they are marked by living
        under the mount point.
        """
        master = self.system.master_for(self.mount_point)
        added = []
        for obj in self.store.list():
            path = self.remote_path(obj.key)
            if not master.namespace.exists(path):
                master.create_file(
                    path, ReplicationVector.of(u=1), overwrite=False
                )
                master.complete_file(path)
                added.append(path)
        return added

    def list_status(self):
        master = self.system.master_for(self.mount_point)
        return [
            status
            for status in master.list_status(self.mount_point)
            if not status.path.endswith("/.cache")
        ]

    # ------------------------------------------------------------------
    # Reads with worker-side caching (MixApart-style)
    # ------------------------------------------------------------------
    def _cache_path(self, key: str) -> str:
        return paths.join(self._cache_dir, key.replace("/", "_"))

    def is_cached(self, key: str) -> bool:
        master = self.system.master_for(self._cache_dir)
        path = self._cache_path(key)
        if not master.namespace.exists(path):
            return False
        return not master.namespace.get_file(path).under_construction

    def read(self, key: str, client: "Client") -> bytes | None:
        """Read an object through the cluster, caching it on first use."""
        return self.system.run_to_completion(self.read_proc(key, client))

    def read_proc(self, key: str, client: "Client") -> Generator:
        obj = self.store.get(key)
        cache_path = self._cache_path(key)
        if self.is_cached(key):
            stream = client.open(cache_path)
            data = yield from stream.read_proc()
            return data if data is not None else obj.data
        # Cache miss: pull across the remote gateway...
        resources = [self.store.gateway]
        if client.node is not None:
            resources.append(client.node.nic_in)
        yield self.system.cluster.flows.transfer(
            obj.size, resources, label=f"remote-read:{key}"
        )
        # ...and populate the on-cluster cache for the next reader.
        stream = client.create(
            cache_path, rep_vector=self.cache_vector, overwrite=True
        )
        if obj.data is not None:
            yield from stream.write_proc(obj.data)
        else:
            yield from stream.write_size_proc(obj.size)
        yield from stream.close_proc()
        return obj.data

    def write(self, key: str, data: bytes | None = None, size: int | None = None) -> None:
        """Writes go to the remote store; the namespace view follows."""
        self.system.run_to_completion(self.write_proc(key, data, size))

    def write_proc(
        self, key: str, data: bytes | None = None, size: int | None = None
    ) -> Generator:
        nbytes = len(data) if data is not None else int(size or 0)
        yield self.system.cluster.flows.transfer(
            nbytes, [self.store.gateway], label=f"remote-write:{key}"
        )
        self.store.put(key, data=data, size=size)
        self.refresh()
