"""The §6 multi-level cache: ``BudgetedCachePolicy`` on a ``TieringEngine``.

The eviction orders are checked on hand-built states (the policy is a
pure function of one); everything else drives a real file system and
steps the engine with ``run_round()`` — promotion happens at a round,
not inside ``Client.open``.
"""

import math

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.errors import ConfigurationError
from repro.tier import (
    DEMOTE,
    PROMOTE,
    BudgetedCachePolicy,
    FileObservation,
    ObservedState,
    TieringEngine,
)
from repro.util.units import MB

HDD2 = ReplicationVector.of(hdd=2)


@pytest.fixture
def fs():
    return OctopusFileSystem(small_cluster_spec())


@pytest.fixture
def client(fs):
    return fs.client(on="worker1")


def cache(fs, budget=64 * MB, half_life=30.0, **policy):
    return TieringEngine(
        fs, BudgetedCachePolicy(budget=budget, **policy), half_life=half_life
    ).attach()


def step(fs, engine):
    decisions = engine.run_round()
    fs.await_replication()
    return decisions


def memory_tiers(fs, path):
    return [
        tier
        for loc in fs.client().get_file_block_locations(path)
        for tier in loc.tiers
        if tier == "MEMORY"
    ]


def vector(fs, path):
    return fs.client().get_status(path).rep_vector


def resident(path, heat, last_access, length=8 * MB):
    return FileObservation(
        path, heat, length, memory_replicas=1, policy_memory_replicas=1,
        last_access=last_access,
    )


def candidate(path, heat, last_access, length=8 * MB):
    return FileObservation(
        path, heat, length, memory_replicas=0, policy_memory_replicas=0,
        last_access=last_access,
    )


def decide(evict, *files, budget=16 * MB):
    policy = BudgetedCachePolicy(budget=budget, promote_after=1, evict=evict)
    state = ObservedState(now=10.0, half_life=30.0, files=files)
    return [(a.kind, a.path) for a in policy.decide(state)]


class TestEvictionPolicies:
    def test_lru_victim_is_least_recent(self):
        actions = decide(
            "lru",
            resident("/a", heat=1.0, last_access=3.0),
            resident("/b", heat=9.0, last_access=2.0),
            candidate("/new", heat=1.0, last_access=4.0),
        )
        assert actions == [(DEMOTE, "/b"), (PROMOTE, "/new")]

    def test_lru_ties_broken_by_order(self):
        """Same instant: path order decides, so identical states always
        pick the same victim."""
        actions = decide(
            "lru",
            resident("/b", heat=1.0, last_access=1.0),
            resident("/a", heat=1.0, last_access=1.0),
            candidate("/new", heat=1.0, last_access=4.0),
        )
        assert actions == [(DEMOTE, "/a"), (PROMOTE, "/new")]

    def test_lru_forget(self):
        """Nothing is remembered between rounds: a resident that is no
        longer observed is neither charged nor a victim."""
        actions = decide(
            "lru",
            resident("/b", heat=1.0, last_access=2.0),
            candidate("/new", heat=1.0, last_access=4.0),
        )
        assert actions == [(PROMOTE, "/new")]

    def test_lfu_victim_is_least_frequent(self):
        actions = decide(
            "lfu",
            resident("/hot", heat=3.0, last_access=1.0),
            resident("/cold", heat=1.0, last_access=2.0),
            candidate("/new", heat=2.0, last_access=4.0),
        )
        assert actions == [(DEMOTE, "/cold"), (PROMOTE, "/new")]

    def test_lfu_frequency_ties_broken_by_recency(self):
        actions = decide(
            "lfu",
            resident("/a", heat=1.0, last_access=1.0),
            resident("/b", heat=1.0, last_access=2.0),
            candidate("/new", heat=1.0, last_access=4.0),
        )
        assert actions == [(DEMOTE, "/a"), (PROMOTE, "/new")]

    def test_nothing_is_evicted_for_a_file_that_still_would_not_fit(self):
        actions = decide(
            "lfu",
            resident("/cold", heat=1.0, last_access=1.0),
            resident("/hot", heat=5.0, last_access=2.0),
            candidate("/new", heat=2.0, last_access=4.0, length=12 * MB),
        )
        assert actions == []

    def test_resident_grown_past_the_budget_is_trimmed(self):
        actions = decide(
            "lru",
            resident("/old", heat=1.0, last_access=1.0),
            resident("/grown", heat=1.0, last_access=2.0, length=12 * MB),
        )
        assert actions == [(DEMOTE, "/old")]


class TestCacheManager:
    def test_promotes_hot_file_to_memory(self, fs, client):
        engine = cache(fs, promote_after=2)
        client.write_file("/hot", size=8 * MB, rep_vector=HDD2)
        client.open("/hot").read_size()
        assert step(fs, engine) == []  # one access: not hot yet
        assert memory_tiers(fs, "/hot") == []
        client.open("/hot").read_size()
        step(fs, engine)
        assert len(memory_tiers(fs, "/hot")) == 2  # one per block
        assert engine.stats.promotions == 1

    def test_second_access_promotes_however_close_to_the_first(self, fs, client):
        """Heat is a decayed count: two opens a millisecond apart read
        1.99998, which ``heat > promote_after - 1`` still takes for 2."""
        engine = cache(fs, promote_after=2)
        client.write_file("/burst", size=MB, rep_vector=HDD2)
        burst = fs.master.namespace.get_file("/burst")
        now = fs.engine.now
        engine.heat.record(burst, now)
        assert engine.heat.heat(burst, now) == 1.0
        assert engine.run_round() == []
        engine.heat.record(burst, now + 0.001)
        assert 1.9999 < engine.heat.heat(burst, now + 0.001) < 2.0
        assert [d.outcome for d in engine.run_round()] == ["applied"]

    def test_single_access_files_not_promoted(self, fs, client):
        engine = cache(fs, promote_after=3)
        client.write_file("/once", size=4 * MB)
        client.open("/once").read_size()
        client.open("/once").read_size()
        step(fs, engine)
        assert engine.stats.promotions == 0

    def test_budget_evicts_lru_victim(self, fs, client):
        engine = cache(fs, budget=10 * MB, promote_after=1)
        for name in ("a", "b"):
            client.write_file(f"/{name}", size=8 * MB, rep_vector=HDD2)
        client.open("/a").read_size()
        step(fs, engine)
        assert len(memory_tiers(fs, "/a")) == 2
        client.open("/b").read_size()  # budget forces /a out
        step(fs, engine)
        assert engine.stats.demotions == 1
        assert memory_tiers(fs, "/a") == []
        assert len(memory_tiers(fs, "/b")) == 2

    def test_file_larger_than_budget_rejected(self, fs, client):
        engine = cache(fs, budget=4 * MB, promote_after=1)
        client.write_file("/big", size=16 * MB)
        client.open("/big").read_size()
        assert step(fs, engine) == []

    def test_demotion_keeps_durable_replicas(self, fs, client):
        engine = cache(fs, budget=MB, promote_after=1)
        client.write_file("/keep", data=b"k" * MB, rep_vector=HDD2)
        client.write_file("/next", size=MB, rep_vector=HDD2)
        client.open("/keep").read()
        step(fs, engine)
        assert len(memory_tiers(fs, "/keep")) == 1
        client.open("/next").read_size()
        step(fs, engine)
        assert memory_tiers(fs, "/keep") == []
        assert vector(fs, "/keep") == HDD2
        assert client.read_file("/keep") == b"k" * MB  # data intact

    def test_cached_reads_are_faster(self, fs, client):
        engine = cache(fs, promote_after=1)
        client.write_file("/speed", size=16 * MB, rep_vector=HDD2)
        t0 = fs.engine.now
        client.open("/speed").read_size()
        cold = fs.engine.now - t0
        step(fs, engine)
        t1 = fs.engine.now
        client.open("/speed").read_size()
        warm = fs.engine.now - t1
        assert warm < cold

    def test_application_pinned_files_tracked_not_doubled(self, fs, client):
        """A file the app already pinned in memory is left exactly as it
        is: no second memory replica, no promotion recorded."""
        engine = cache(fs, promote_after=1)
        pinned = ReplicationVector.of(memory=1, hdd=1)
        client.write_file("/pinned", size=4 * MB, rep_vector=pinned)
        client.open("/pinned").read_size()
        assert step(fs, engine) == []
        assert len(memory_tiers(fs, "/pinned")) == 1  # still exactly one

    def test_lfu_policy_keeps_frequent_files(self, fs, client):
        engine = cache(fs, budget=10 * MB, promote_after=1, evict="lfu")
        client.write_file("/freq", size=8 * MB)
        client.write_file("/rare", size=8 * MB)
        for _ in range(5):
            client.open("/freq").read_size()
        step(fs, engine)
        client.open("/rare").read_size()
        # /freq has 5 accesses, /rare 1: LFU refuses to displace /freq
        # (the budget fits only one file).
        assert step(fs, engine) == []
        assert vector(fs, "/freq").count("MEMORY") == 1

    def test_detach_stops_tracking(self, fs, client):
        engine = cache(fs, promote_after=1)
        engine.detach()
        client.write_file("/quiet", size=4 * MB)
        client.open("/quiet").read_size()
        assert len(engine.heat) == 0
        assert step(fs, engine) == []

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            BudgetedCachePolicy(budget=0)
        with pytest.raises(ConfigurationError):
            BudgetedCachePolicy(budget=MB, evict="fifo")

    # -- the three defects the hand-copied manager had drifted into ----
    def test_pin_survives_eviction_and_is_not_charged(self, fs, client):
        engine = cache(fs, budget=10 * MB, promote_after=1)
        pinned = ReplicationVector.of(memory=1, hdd=1)
        client.write_file("/pin", size=8 * MB, rep_vector=pinned)
        client.write_file("/other", size=8 * MB, rep_vector=HDD2)
        client.open("/pin").read_size()
        step(fs, engine)
        client.open("/other").read_size()
        step(fs, engine)
        # 8 MB of pin + 8 MB of /other exceed 10 MB only if the pin is
        # charged; and whatever is evicted, the pin is not the cache's.
        assert vector(fs, "/other").count("MEMORY") == 1
        assert vector(fs, "/pin") == pinned

    def test_deleting_a_promoted_file_frees_its_budget(self, fs, client):
        engine = cache(fs, budget=10 * MB, promote_after=1)
        client.write_file("/a", size=8 * MB, rep_vector=HDD2)
        client.open("/a").read_size()
        step(fs, engine)
        assert vector(fs, "/a").count("MEMORY") == 1
        client.delete("/a")
        client.write_file("/b", size=8 * MB, rep_vector=HDD2)
        client.open("/b").read_size()
        step(fs, engine)
        assert vector(fs, "/b").count("MEMORY") == 1

    def test_renamed_resident_still_counts_against_budget(self, fs, client):
        engine = cache(fs, budget=10 * MB, promote_after=1)
        client.write_file("/a", size=8 * MB, rep_vector=HDD2)
        client.open("/a").read_size()
        step(fs, engine)
        client.rename("/a", "/renamed")
        client.write_file("/b", size=8 * MB, rep_vector=HDD2)
        client.open("/b").read_size()
        decisions = step(fs, engine)
        assert [(d.action.kind, d.action.path) for d in decisions] == [
            (DEMOTE, "/renamed"), (PROMOTE, "/b"),
        ]
        assert vector(fs, "/renamed") == HDD2
        assert memory_tiers(fs, "/renamed") == []
        assert vector(fs, "/b").count("MEMORY") == 1


class TestAccessCountBookkeeping:
    """Tracking is bounded by decay, with no table size to configure."""

    def test_deleted_file_counts_dropped_on_promotion_attempt(self, fs, client):
        engine = cache(fs, promote_after=2)
        client.write_file("/gone", size=4 * MB)
        client.open("/gone").read_size()
        gone = fs.master.namespace.get_file("/gone")
        assert gone in engine.heat
        client.delete("/gone")
        # The access notification can outlive the file (listener queues,
        # in-flight opens); the next round must clean up rather than
        # leave a stale counter forever.
        fs.notify_access(gone)
        assert step(fs, engine) == []
        assert gone not in engine.heat

    def test_never_promoted_paths_bounded(self, fs, client):
        engine = cache(fs, promote_after=math.inf, half_life=1.0)
        for index in range(20):
            client.write_file(f"/one-shot-{index:02d}", size=MB)
            client.open(f"/one-shot-{index:02d}").read_size()
        assert len(engine.heat) == 20
        fs.engine.run(until=fs.engine.now + 25.0)  # > 20 half-lives
        step(fs, engine)
        assert len(engine.heat) == 0

    def test_pruning_prefers_coldest_and_spares_cached(self, fs, client):
        """A promoted file stays observed however cold it gets — it is
        still charged to the budget and still has to be evictable."""
        engine = cache(fs, budget=MB, promote_after=2, half_life=1.0)
        client.write_file("/hot", size=MB, rep_vector=HDD2)
        for _ in range(3):
            client.open("/hot").read_size()
        step(fs, engine)
        assert vector(fs, "/hot").count("MEMORY") == 1
        client.write_file("/cold", size=MB, rep_vector=HDD2)
        client.open("/cold").read_size()
        fs.engine.run(until=fs.engine.now + 25.0)
        step(fs, engine)
        namespace = fs.master.namespace
        assert namespace.get_file("/cold") not in engine.heat
        assert namespace.get_file("/hot") in engine.heat
        client.write_file("/next", size=MB, rep_vector=HDD2)
        for _ in range(2):
            client.open("/next").read_size()
        step(fs, engine)
        assert vector(fs, "/hot") == HDD2
        assert vector(fs, "/next").count("MEMORY") == 1
