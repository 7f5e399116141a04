"""Tests for remote storage (§2.4) as an integrated REMOTE tier, the
one remote mode reproduced. Master federation (§2.1) and the
stand-alone mount are not; the file keeps its name so the remote-tier
test ids stay stable."""

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import Cluster
from repro.fs.remote import remote_cluster_spec
from repro.util.units import MB


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

