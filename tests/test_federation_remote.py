"""Tests for master federation (§2.1) and remote storage (§2.4)."""

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import Cluster, small_cluster_spec
from repro.errors import ConfigurationError, RemoteStorageError
from repro.fs import checkpoint as ckpt
from repro.fs.editlog import replay
from repro.fs.federation import FederatedFileSystem
from repro.fs.namespace import Namespace
from repro.fs.remote import (
    RemoteStore,
    StandaloneMount,
    remote_cluster_spec,
)
from repro.util.units import MB


class TestFederation:
    @pytest.fixture
    def fed(self):
        return FederatedFileSystem(
            small_cluster_spec(), mounts=("/data", "/logs")
        )

    def test_masters_per_mount(self, fed):
        assert len(fed.masters) == 3  # "/", "/data", "/logs"
        assert fed.master_for("/data/x") is fed.mount_table["/data"]
        assert fed.master_for("/logs/y") is fed.mount_table["/logs"]
        assert fed.master_for("/misc") is fed.mount_table["/"]

    def test_longest_prefix_wins(self):
        fed = FederatedFileSystem(
            small_cluster_spec(), mounts=("/a", "/a/b")
        )
        assert fed.master_for("/a/b/c") is fed.mount_table["/a/b"]
        assert fed.master_for("/a/z") is fed.mount_table["/a"]

    def test_namespaces_independent(self, fed):
        client = fed.client(on="worker1")
        client.write_file("/data/f", size=4 * MB)
        assert not fed.mount_table["/logs"].namespace.exists("/data/f")
        assert fed.mount_table["/data"].namespace.exists("/data/f")

    def test_workers_serve_all_masters(self, fed):
        client = fed.client(on="worker1")
        client.write_file("/data/a", data=b"1" * MB)
        client.write_file("/logs/b", data=b"2" * MB)
        assert client.read_file("/data/a") == b"1" * MB
        assert client.read_file("/logs/b") == b"2" * MB

    def test_cross_mount_rename_rejected(self, fed):
        client = fed.client(on="worker1")
        client.write_file("/data/f", size=MB)
        with pytest.raises(ConfigurationError):
            client.rename("/data/f", "/logs/f")

    def test_same_mount_rename_allowed(self, fed):
        client = fed.client(on="worker1")
        client.write_file("/data/f", size=MB)
        client.rename("/data/f", "/data/g")
        assert client.exists("/data/g")

    def test_duplicate_mount_rejected(self):
        with pytest.raises(ConfigurationError):
            FederatedFileSystem(small_cluster_spec(), mounts=("/m", "/m"))

    def test_federated_replication_converges(self, fed):
        client = fed.client(on="worker1")
        client.write_file("/data/r", size=4 * MB, rep_vector=ReplicationVector.of(hdd=1))
        client.set_replication("/data/r", ReplicationVector.of(hdd=2))
        fed.await_replication()
        locs = client.get_file_block_locations("/data/r")
        assert len(locs[0].hosts) == 2


class TestIntegratedRemote:
    def test_remote_tier_in_cluster(self):
        cluster = Cluster(remote_cluster_spec(workers=4))
        assert "REMOTE" in cluster.tiers
        assert len(cluster.tier("REMOTE").media) == 1
        assert cluster.tier_order == ["MEMORY", "SSD", "HDD", "REMOTE"]

    def test_vector_with_remote_entry(self):
        fs = OctopusFileSystem(remote_cluster_spec(workers=4, block_size=4 * MB))
        client = fs.client(on="worker1")
        client.write_file(
            "/archive", size=4 * MB,
            rep_vector=ReplicationVector.of(hdd=1, remote=1),
        )
        loc = client.get_file_block_locations("/archive")[0]
        assert sorted(loc.tiers) == ["HDD", "REMOTE"]
        assert "remote-gw" in loc.hosts

    def test_remote_writes_slower_than_local(self):
        fs = OctopusFileSystem(remote_cluster_spec(workers=4, block_size=4 * MB))
        client = fs.client(on="worker1")
        t0 = fs.engine.now
        client.write_file("/l", size=8 * MB, rep_vector=ReplicationVector.of(ssd=1))
        local_time = fs.engine.now - t0
        t1 = fs.engine.now
        client.write_file("/r", size=8 * MB, rep_vector=ReplicationVector.of(remote=1))
        remote_time = fs.engine.now - t1
        assert remote_time > local_time


class TestStandaloneRemote:
    @pytest.fixture
    def fs(self):
        return OctopusFileSystem(small_cluster_spec())

    @pytest.fixture
    def store(self):
        store = RemoteStore("warehouse", bandwidth=50.0 * MB)
        store.put("sales/2016.csv", data=b"r1,r2" * 1000)
        store.put("sales/2017.csv", size=8 * MB)
        return store

    def test_store_basics(self, store):
        assert [o.key for o in store.list()] == [
            "sales/2016.csv",
            "sales/2017.csv",
        ]
        with pytest.raises(RemoteStorageError):
            store.get("nope")
        with pytest.raises(RemoteStorageError):
            store.put("empty")

    def test_mount_appends_namespace(self, fs, store):
        mount = StandaloneMount(fs, store, "/warehouse")
        names = {s.path for s in mount.list_status()}
        assert "/warehouse/sales" in names  # directory entry appears
        assert fs.master.namespace.exists("/warehouse/sales/2016.csv")

    def test_read_through_with_caching(self, fs, store):
        mount = StandaloneMount(fs, store, "/warehouse")
        client = fs.client(on="worker1")
        assert not mount.is_cached("sales/2016.csv")
        data = mount.read("sales/2016.csv", client)
        assert data == b"r1,r2" * 1000
        assert mount.is_cached("sales/2016.csv")

    def test_cached_read_is_faster(self, fs, store):
        mount = StandaloneMount(fs, store, "/warehouse")
        client = fs.client(on="worker1")
        t0 = fs.engine.now
        mount.read("sales/2017.csv", client)
        cold = fs.engine.now - t0
        t1 = fs.engine.now
        mount.read("sales/2017.csv", client)
        warm = fs.engine.now - t1
        assert warm < cold

    def test_write_goes_to_remote_and_view_refreshes(self, fs, store):
        mount = StandaloneMount(fs, store, "/warehouse")
        mount.write("sales/2018.csv", size=2 * MB)
        assert store.get("sales/2018.csv").size == 2 * MB
        assert fs.master.namespace.exists("/warehouse/sales/2018.csv")

    def test_refresh_picks_up_external_objects(self, fs, store):
        mount = StandaloneMount(fs, store, "/warehouse")
        store.put("new/obj", size=MB)  # added behind OctopusFS's back
        added = mount.refresh()
        assert "/warehouse/new/obj" in added

    def test_mount_entries_are_journaled_complete(self, fs, store):
        """A standby, or a checkpoint plus its tail, restores every
        remote name as a closed file, as the live tree has it."""
        mount = StandaloneMount(fs, store, "/warehouse")
        mount.write("sales/2018.csv", size=2 * MB)
        replayed = Namespace(tier_order=fs.master.namespace.tier_order)
        replay(fs.master.edit_log.records, replayed)
        assert ckpt.write_checkpoint(replayed) == ckpt.write_checkpoint(
            fs.master.namespace
        )
