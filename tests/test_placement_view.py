"""The placement view: what a decision reads, kept between decisions.

``Cluster.placement_view`` caches what only liveness and ``degrade()``
move, checks that key on every read, re-reads ``Rem`` and ``NrConn``
and re-forms rows only for the media whose pair moved. These tests hold
it to a fresh walk (``read_media`` over ``cluster.live_media()``), which
is what every decision read before the view:

* **Differential.** After every step of a random script — capacity
  accounting, flows, liveness, degradation, direct assignments, two
  block sizes taking turns — the view's snapshot equals a fresh walk's.
* **Picks.** A seeded placement script picks the same media through the
  view as through a fresh walk.
* **Counts.** A read re-forms the rows of the media that moved and no
  others.
"""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, paper_cluster_spec
from repro.core import moop
from repro.core import objectives as obj
from repro.core.moop import PlacementRequest
from repro.core.objectives import ObjectiveContext, read_media, snapshot_cluster
from repro.core.placement import MoopPlacementPolicy
from repro.core.replication_vector import ReplicationVector
from repro.errors import PlacementError
from repro.util.rng import DeterministicRng
from repro.util.units import MB

BLOCK_SIZES = (128 * MB, 48 * MB)


def fresh_walk(cluster, block_size):
    return read_media(cluster.live_media(), block_size, cluster)


def assert_view_is_fresh(cluster, block_size):
    if not cluster.live_media():
        with pytest.raises(PlacementError):
            snapshot_cluster(cluster, block_size)
        return
    view, fresh = snapshot_cluster(cluster, block_size), fresh_walk(cluster, block_size)
    assert view.ctx == fresh.ctx
    assert view.pool == fresh.pool
    assert view.rows == fresh.rows and list(view.rows) == list(fresh.rows)
    assert ObjectiveContext.from_cluster(cluster, block_size) == fresh.ctx


class Script:
    """One step per op on a small cluster, each keeping the accounting
    legal (``free`` and ``release_reservation`` raise on a violation)."""

    def __init__(self):
        self.cluster = Cluster(paper_cluster_spec(workers=6, racks=3))
        self.media = list(self.cluster.media.values())
        self.nodes = self.cluster.worker_nodes
        self.flows = []

    def apply(self, op, pick, amount):
        cluster = self.cluster
        medium = self.media[pick % len(self.media)]
        node = self.nodes[pick % len(self.nodes)]
        nbytes = amount * MB
        if op == "reserve":
            medium.reserve(min(nbytes, max(medium.remaining, 0)))
        elif op == "commit":
            held = min(nbytes, medium.reserved, medium.capacity - medium.used)
            medium.commit(held, held)
        elif op == "release":
            medium.release_reservation(min(nbytes, medium.reserved))
        elif op == "free":
            medium.free(min(nbytes, medium.used))
        elif op == "flow":
            channel = medium.write_channel if amount % 2 else medium.read_channel
            self.flows.append(cluster.flows.start_flow(nbytes, [channel]))
        elif op == "finish" and self.flows:
            cluster.engine.run(self.flows.pop(pick % len(self.flows)).completed)
        elif op == "cancel" and self.flows:
            flow = self.flows.pop(pick % len(self.flows))
            cluster.flows.cancel_flow(flow, RuntimeError("cancelled"))
        elif op == "crash":
            node.failed = True
        elif op == "restart":
            node.failed = False
        elif op == "unreachable":
            node.unreachable = True
        elif op == "return":
            node.unreachable = False
        elif op == "fail":
            medium.failed = True
        elif op == "degrade":
            medium.degrade(amount / 64)
            cluster.flows.refresh([medium.read_channel, medium.write_channel])
        elif op == "restore":
            medium.restore()
            cluster.flows.refresh([medium.read_channel, medium.write_channel])
        elif op == "set_used":
            medium.used = min(nbytes * 100, medium.capacity - medium.reserved)
        elif op == "set_reserved":
            medium.reserved = min(nbytes * 100, medium.capacity - medium.used)
        elif op == "set_failed":
            medium.failed = bool(amount % 2)


OPS = (
    "reserve", "commit", "release", "free", "flow", "finish", "cancel",
    "crash", "restart", "unreachable", "return", "fail", "degrade",
    "restore", "set_used", "set_reserved", "set_failed",
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 1000), st.integers(1, 64)),
        max_size=40,
    )
)
def test_the_view_reads_what_a_fresh_walk_reads(steps):
    script = Script()
    assert_view_is_fresh(script.cluster, BLOCK_SIZES[0])
    for index, step in enumerate(steps):
        script.apply(*step)
        # The two block sizes take turns, as files with their own block
        # size and repairs of them do.
        assert_view_is_fresh(script.cluster, BLOCK_SIZES[index % 2])


def place_script():
    """300 decisions on one cluster: two block sizes, every pick reserved
    and written, writes finished and deleted, a worker crashing and
    returning, a disk degrading; the digest of the picks."""
    cluster = Cluster(paper_cluster_spec(workers=12, racks=3, seed=4))
    policy = MoopPlacementPolicy(memory_enabled=True, rng=DeterministicRng(4, "view"))
    workers = cluster.worker_nodes
    writes, picks = [], []
    for block in range(300):
        size = BLOCK_SIZES[block % 3 == 0]
        request = PlacementRequest(
            rep_vector=ReplicationVector.of(u=3) if block % 4 else ReplicationVector.of(ssd=1, u=2),
            block_size=size,
            client_node=workers[(7 * block) % len(workers)] if block % 5 else None,
        )
        chosen = policy.choose_targets(cluster, request)
        for medium in chosen:
            medium.reserve(size)
        writes.append((cluster.flows.start_flow(size, [m.write_channel for m in chosen]), chosen, size))
        if len(writes) > 10:
            flow, done, written = writes.pop(0)
            cluster.engine.run(flow.completed)
            for medium in done:
                medium.commit(written, written)
                if block % 7 == 0:
                    medium.free(written)
        if block == 100:
            workers[3].failed = True
        if block == 160:
            workers[3].failed = False
            chosen[0].degrade(0.4)
        picks.append([m.medium_id for m in chosen])
    return hashlib.md5(json.dumps(picks).encode()).hexdigest()


def test_picks_through_the_view_equal_picks_through_a_fresh_walk(monkeypatch):
    through_view = place_script()
    monkeypatch.setattr(moop, "snapshot_cluster", fresh_walk)
    assert place_script() == through_view


class TestRowsAreReformedOnlyWhereSomethingMoved:
    @pytest.fixture
    def counted(self, monkeypatch):
        """The media of every ``read_media`` call, as lists."""
        calls = []
        real = obj.read_media

        def counting(media, block_size, cluster=None):
            media = list(media)
            calls.append(media)
            return real(media, block_size, cluster)

        monkeypatch.setattr(obj, "read_media", counting)
        return calls

    def test_only_the_moved_media(self, counted):
        cluster = Cluster(paper_cluster_spec())
        live = cluster.live_media()
        snapshot_cluster(cluster, cluster.block_size)
        counted.clear()
        assert snapshot_cluster(cluster, cluster.block_size).rows == fresh_walk(
            cluster, cluster.block_size
        ).rows
        assert counted == []  # nothing moved
        counted.clear()
        live[30].reserve(cluster.block_size)
        cluster.flows.start_flow(MB, [live[7].read_channel])
        snapshot_cluster(cluster, cluster.block_size)
        assert counted == [[live[7], live[30]]]

    def test_block_sizes_keep_their_own_rows(self, counted):
        cluster = Cluster(paper_cluster_spec())
        live = cluster.live_media()
        big, small = BLOCK_SIZES
        snapshot_cluster(cluster, big)
        snapshot_cluster(cluster, small)  # first read of this size: every row
        assert counted[-1] == live
        counted.clear()
        live[3].reserve(small)
        snapshot_cluster(cluster, big)
        snapshot_cluster(cluster, small)
        assert counted == [[live[3]], [live[3]]]

    def test_a_liveness_or_throughput_change_re_forms_everything(self, counted):
        cluster = Cluster(paper_cluster_spec())
        snapshot_cluster(cluster, cluster.block_size)
        cluster.worker_nodes[2].unreachable = True
        counted.clear()
        snapshot_cluster(cluster, cluster.block_size)
        assert counted == [cluster.live_media()]
        cluster.live_media()[5].degrade(0.5)
        counted.clear()
        snapshot_cluster(cluster, cluster.block_size)
        assert counted == [cluster.live_media()]
