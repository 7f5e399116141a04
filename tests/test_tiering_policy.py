"""Unit tests for the adaptive tiering stack: heat, policy, engine.

The differential suite (``test_tiering_differential``) proves the
engine is invisible when idle; this file checks the pieces do the right
thing when *not* idle — the decay math, the hysteresis band of
:class:`DecayHeatPolicy`, and the engine's safety rails (compare-and-
set conflicts, never stripping application replicas, never dropping the
last replica).
"""

import ast
import dataclasses
import math
from pathlib import Path

import pytest

import repro
from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import TierStatistics, small_cluster_spec
from repro.errors import ConfigurationError, StaleVectorError
from repro.fs.backup import BackupMaster
from repro.fs.client import Client
from repro.sim import PeriodicProcess, SimulationEngine
from repro.tier import (
    DEMOTE,
    PROMOTE,
    DecayHeatPolicy,
    FileObservation,
    HeatTracker,
    ObservedState,
    StaticVectorPolicy,
    TieringEngine,
)
from repro.util.units import GB, MB


# ----------------------------------------------------------------------
# HeatTracker
# ----------------------------------------------------------------------
class TestHeatTracker:
    def test_one_access_has_weight_heat(self):
        tracker = HeatTracker(half_life=10.0)
        assert tracker.record("/a", now=0.0) == 1.0
        assert tracker.heat("/a", now=0.0) == 1.0

    def test_heat_halves_every_half_life(self):
        tracker = HeatTracker(half_life=10.0)
        tracker.record("/a", now=0.0)
        assert tracker.heat("/a", now=10.0) == pytest.approx(0.5)
        assert tracker.heat("/a", now=20.0) == pytest.approx(0.25)

    def test_accesses_accumulate_after_decay(self):
        tracker = HeatTracker(half_life=10.0)
        tracker.record("/a", now=0.0)
        assert tracker.record("/a", now=10.0) == pytest.approx(1.5)

    def test_unknown_key_is_cold(self):
        assert HeatTracker(half_life=1.0).heat("/nope", now=5.0) == 0.0

    def test_clock_never_runs_backwards(self):
        """A stale read at an earlier timestamp must not *grow* heat."""
        tracker = HeatTracker(half_life=10.0)
        tracker.record("/a", now=100.0)
        assert tracker.heat("/a", now=50.0) == 1.0

    def test_snapshot_keeps_insertion_order(self):
        """Keys are never sorted (the engine's are inodes): a snapshot
        lists them in order of first access."""
        tracker = HeatTracker(half_life=10.0)
        tracker.record("/b", now=0.0)
        tracker.record("/a", now=0.0)
        tracker.record("/b", now=1.0)
        assert list(tracker.snapshot(1.0)) == ["/b", "/a"]

    def test_forget_and_contains(self):
        tracker = HeatTracker(half_life=1.0)
        tracker.record("/a", now=0.0)
        assert "/a" in tracker and len(tracker) == 1
        tracker.forget("/a")
        assert "/a" not in tracker and len(tracker) == 0

    def test_prune_drops_only_cold_keys(self):
        tracker = HeatTracker(half_life=1.0)
        tracker.record("/old", now=0.0)
        tracker.record("/new", now=30.0)
        # 30 half-lives decay /old to ~1e-9, far below the floor.
        assert tracker.prune(now=30.0) == ["/old"]
        assert "/new" in tracker and "/old" not in tracker

    def test_invalid_half_life_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                HeatTracker(half_life=bad)


# ----------------------------------------------------------------------
# DecayHeatPolicy.decide
# ----------------------------------------------------------------------
def tier_report(name, total_capacity, remaining):
    return TierStatistics(
        tier_name=name,
        media_count=1,
        total_capacity=total_capacity,
        used=total_capacity - remaining,
        remaining=remaining,
        avg_write_throughput=0.0,
        avg_read_throughput=0.0,
        active_connections=0,
    )


def make_state(files, now=100.0, half_life=10.0, memory_remaining=64 * MB):
    tiers = (
        tier_report("MEMORY", 128 * MB, memory_remaining),
        tier_report("HDD", 4 * GB, 4 * GB),
    )
    return ObservedState(
        now=now, half_life=half_life, files=tuple(files), tiers=tiers
    )


def hot_file(path, heat=5.0, **kwargs):
    defaults = dict(
        path=path, heat=heat, length=4 * MB,
        memory_replicas=0, policy_memory_replicas=0,
    )
    defaults.update(kwargs)
    return FileObservation(**defaults)


def cached_file(path, heat=0.1, last_promoted=0.0, **kwargs):
    return hot_file(
        path, heat=heat, memory_replicas=1, policy_memory_replicas=1,
        last_promoted=last_promoted, **kwargs
    )


class TestDecayHeatPolicy:
    def test_hot_uncached_file_promoted(self):
        actions = DecayHeatPolicy().decide(make_state([hot_file("/hot")]))
        assert [(a.kind, a.path) for a in actions] == [(PROMOTE, "/hot")]
        assert actions[0].tier == "MEMORY"

    def test_cool_file_not_promoted(self):
        state = make_state([hot_file("/warm", heat=1.9)])
        assert DecayHeatPolicy(promote_heat=2.0).decide(state) == []

    def test_threshold_is_strict(self):
        state = make_state([hot_file("/edge", heat=2.0)])
        assert DecayHeatPolicy(promote_heat=2.0).decide(state) == []

    def test_cold_cached_file_demoted(self):
        state = make_state([cached_file("/cold", heat=0.1, last_promoted=0.0)])
        actions = DecayHeatPolicy().decide(state)
        assert [(a.kind, a.path) for a in actions] == [(DEMOTE, "/cold")]

    def test_application_pinned_memory_never_demoted(self):
        """memory_replicas > 0 but policy_memory_replicas == 0: the app
        put that replica there; the policy must not touch it."""
        pinned = hot_file(
            "/pinned", heat=0.0, memory_replicas=1, policy_memory_replicas=0
        )
        assert DecayHeatPolicy().decide(make_state([pinned])) == []

    def test_memory_resident_file_not_repromoted(self):
        resident = cached_file("/resident", heat=9.0)
        assert DecayHeatPolicy().decide(make_state([resident])) == []

    def test_under_construction_files_skipped(self):
        uc = hot_file("/open", under_construction=True)
        assert DecayHeatPolicy().decide(make_state([uc])) == []

    def test_min_residency_blocks_early_demotion(self):
        # Promoted at t=95, now=100, half-life 10: only 5s of residency.
        fresh = cached_file("/fresh", heat=0.1, last_promoted=95.0)
        assert DecayHeatPolicy().decide(make_state([fresh])) == []
        # Explicitly shorter residency re-enables the demotion.
        actions = DecayHeatPolicy(min_residency=5.0).decide(make_state([fresh]))
        assert [a.kind for a in actions] == [DEMOTE]

    def test_cooldown_blocks_repromotion(self):
        bouncer = hot_file("/bounce", heat=9.0, last_demoted=95.0)
        assert DecayHeatPolicy().decide(make_state([bouncer])) == []
        actions = DecayHeatPolicy(cooldown=0.0).decide(make_state([bouncer]))
        assert [a.kind for a in actions] == [PROMOTE]

    def test_budget_prefers_cold_demotions_then_hot_promotions(self):
        files = [
            hot_file("/h1", heat=3.0),
            hot_file("/h2", heat=7.0),
            cached_file("/c1", heat=0.2),
            cached_file("/c2", heat=0.1),
        ]
        actions = DecayHeatPolicy(movement_budget=3).decide(make_state(files))
        assert [(a.kind, a.path) for a in actions] == [
            (DEMOTE, "/c2"),   # coldest demotion first
            (DEMOTE, "/c1"),
            (PROMOTE, "/h2"),  # hottest promotion takes the last slot
        ]

    def test_zero_budget_means_no_actions(self):
        files = [hot_file("/h"), cached_file("/c")]
        assert DecayHeatPolicy(movement_budget=0).decide(make_state(files)) == []

    def test_capacity_gate_skips_files_that_do_not_fit(self):
        """With no free memory beyond the headroom reserve, nothing is
        promoted — unless demotions free the bytes first. (Reserve is
        10% of the 128MB tier = 12.8MB, so freeing 32MB leaves ~19MB of
        usable budget: enough for the 16MB file, not before.)"""
        big = hot_file("/big", heat=9.0, length=16 * MB)
        assert DecayHeatPolicy().decide(
            make_state([big], memory_remaining=0)
        ) == []
        freed = cached_file("/freed", heat=0.1, length=32 * MB)
        actions = DecayHeatPolicy().decide(
            make_state([big, freed], memory_remaining=0)
        )
        assert [(a.kind, a.path) for a in actions] == [
            (DEMOTE, "/freed"), (PROMOTE, "/big"),
        ]

    def test_headroom_reserves_capacity(self):
        # 10% of 128MB = 12.8MB reserve; 16MB remaining leaves ~3.2MB.
        small = hot_file("/small", heat=9.0, length=2 * MB)
        large = hot_file("/large", heat=8.0, length=8 * MB)
        actions = DecayHeatPolicy().decide(
            make_state([small, large], memory_remaining=16 * MB)
        )
        assert [(a.kind, a.path) for a in actions] == [(PROMOTE, "/small")]

    def test_missing_memory_tier_promotes_nothing(self):
        state = ObservedState(
            now=0.0, half_life=10.0, files=(hot_file("/h"),), tiers=()
        )
        assert DecayHeatPolicy().decide(state) == []

    def test_infinite_promote_heat_never_acts(self):
        files = [hot_file("/h", heat=1e18), cached_file("/c", heat=0.0)]
        policy = DecayHeatPolicy(promote_heat=math.inf)
        # Promotion is impossible; demotion still allowed (drain mode).
        actions = policy.decide(make_state(files))
        assert all(a.kind == DEMOTE for a in actions)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            DecayHeatPolicy(promote_heat=1.0, demote_heat=2.0)
        with pytest.raises(ConfigurationError):
            DecayHeatPolicy(movement_budget=-1)
        with pytest.raises(ConfigurationError):
            DecayHeatPolicy(min_residency=-0.5)
        with pytest.raises(ConfigurationError):
            DecayHeatPolicy(headroom=1.0)


# ----------------------------------------------------------------------
# PeriodicProcess
# ----------------------------------------------------------------------
class TestPeriodicProcess:
    def test_fires_every_interval_until_stopped(self):
        engine = SimulationEngine()
        fired = []
        periodic = PeriodicProcess(
            engine, lambda: fired.append(engine.now), 2.0
        ).start()
        engine.run(until=7.0)
        periodic.stop()
        engine.run()
        assert fired == [2.0, 4.0, 6.0]
        assert periodic.ticks == 3
        assert not periodic.running

    def test_stop_mid_sleep_cancels_next_firing(self):
        engine = SimulationEngine()
        fired = []
        periodic = PeriodicProcess(engine, lambda: fired.append(1), 5.0).start()
        engine.run(until=2.0)
        periodic.stop()
        engine.run()  # drains the pending timeout without a callback
        assert fired == []

    def test_zero_initial_delay_fires_in_the_starting_step(self):
        engine = SimulationEngine()
        fired = []
        periodic = PeriodicProcess(
            engine, lambda: fired.append(engine.now), 2.0, initial_delay=0
        ).start()
        engine.step()  # the bootstrap step fires, with no zero timeout
        assert fired == [0.0]
        engine.run(until=7.0)
        periodic.stop()
        engine.run()
        assert fired == [0.0, 2.0, 4.0, 6.0]
        with pytest.raises(ConfigurationError):
            PeriodicProcess(engine, lambda: None, 1.0, initial_delay=-1.0)

    def test_double_start_rejected(self):
        periodic = PeriodicProcess(SimulationEngine(), lambda: None, 1.0).start()
        with pytest.raises(ConfigurationError):
            periodic.start()

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            PeriodicProcess(SimulationEngine(), lambda: None, 0.0)


# ----------------------------------------------------------------------
# TieringEngine against a live file system
# ----------------------------------------------------------------------
@pytest.fixture
def fs():
    return OctopusFileSystem(small_cluster_spec())


@pytest.fixture
def client(fs):
    return fs.client(on="worker1")


def memory_count(fs, path):
    return fs.master.get_status(path).rep_vector.count("MEMORY")


def heat_up(fs, client, path, accesses=4):
    for _ in range(accesses):
        client.open(path).read_size()


class TestTieringEngine:
    def test_promote_then_demote_after_cooling(self, fs, client):
        engine = TieringEngine(
            fs,
            policy=DecayHeatPolicy(promote_heat=2.0, demote_heat=0.5),
            half_life=10.0,
        ).attach()
        payload = b"f" * (4 * MB)
        client.write_file("/f", data=payload, rep_vector=ReplicationVector.of(hdd=2))
        heat_up(fs, client, "/f")
        engine.run_round()
        assert engine.stats.promotions == 1
        assert memory_count(fs, "/f") == 1
        fs.await_replication()
        # ~7 half-lives later the heat is < 0.05 and residency expired.
        fs.engine.run(until=fs.engine.now + 70.0)
        engine.run_round()
        assert engine.stats.demotions == 1
        assert memory_count(fs, "/f") == 0
        fs.await_replication()
        assert client.read_file("/f") == payload  # intact on HDD

    def test_cas_conflict_counted_not_applied(self, fs, client, monkeypatch):
        """A vector change that lands between the engine's read and its
        write loses the engine the CAS; the file keeps the application's
        vector.

        Within one synchronous round nothing else runs between the two,
        so the race is staged by letting the application's change land
        first inside the engine's ``set_replication`` call."""
        engine = TieringEngine(
            fs, policy=DecayHeatPolicy(promote_heat=2.0)
        ).attach()
        client.write_file("/raced", size=4 * MB, rep_vector=ReplicationVector.of(hdd=2))
        heat_up(fs, client, "/raced")
        app_vector = ReplicationVector.of(ssd=1, hdd=1)
        set_replication = Client.set_replication

        def raced(self, path, vector, expected=None):
            monkeypatch.undo()
            set_replication(self, path, app_vector)
            return set_replication(self, path, vector, expected=expected)

        monkeypatch.setattr(Client, "set_replication", raced)
        decisions = engine.run_round()
        assert [d.outcome for d in decisions] == ["conflict"]
        assert engine.stats.conflicts == 1
        assert engine.stats.promotions == 0
        monkeypatch.undo()
        assert fs.master.get_status("/raced").rep_vector == app_vector

    def test_stale_expected_raises_for_direct_callers(self, fs, client):
        client.write_file("/direct", size=MB)
        wrong = ReplicationVector.of(memory=3)
        with pytest.raises(StaleVectorError):
            client.set_replication(
                "/direct", ReplicationVector.of(hdd=1), expected=wrong
            )

    def test_under_construction_vector_change_rejected(self, fs, client):
        from repro.errors import LeaseError

        stream = client.create("/uc")
        with pytest.raises(LeaseError):
            client.set_replication("/uc", ReplicationVector.of(memory=1))
        stream.write(b"x" * MB)
        stream.close()
        client.set_replication("/uc", ReplicationVector.of(hdd=1))

    def test_deleted_file_dropped_from_observation(self, fs, client):
        engine = TieringEngine(fs).attach()
        client.write_file("/doomed", size=MB)
        client.open("/doomed").read_size()
        doomed = fs.master.namespace.get_file("/doomed")
        assert doomed in engine.heat
        client.delete("/doomed")
        state = engine.observe()
        assert all(f.path != "/doomed" for f in state.files)
        assert doomed not in engine.heat

    def test_heat_is_keyed_by_the_file_not_its_spelling(self, fs, client):
        """Three opens of one file under three spellings are three
        accesses of one file: one tracker entry, one observation, and
        the promotion three accesses earn."""
        engine = TieringEngine(
            fs, policy=DecayHeatPolicy(promote_heat=1.5), half_life=10.0
        ).attach()
        client.write_file("/d/probe", size=MB, rep_vector=ReplicationVector.of(hdd=2))
        for spelling in ("/d/probe", "/d/probe/", "//d//probe"):
            client.open(spelling).read_size()
        assert list(engine.heat.snapshot(fs.engine.now)) == [
            fs.master.namespace.get_file("/d/probe")
        ]
        assert [f.path for f in engine.observe().files] == ["/d/probe"]
        (decision,) = engine.run_round()
        assert (decision.action.kind, decision.outcome) == (PROMOTE, "applied")
        assert memory_count(fs, "/d/probe") == 1

    def test_round_looks_up_only_files_it_can_act_on(self, fs, client, monkeypatch):
        """N cold tracked files cost a round nothing: it walks up to the
        root from the k hot ones and the p it promoted earlier only."""
        engine = TieringEngine(
            fs,
            policy=DecayHeatPolicy(promote_heat=2.0, demote_heat=0.5),
            half_life=10.0,
        ).attach()
        hdd2 = ReplicationVector.of(hdd=2)
        promoted = ["/p/0", "/p/1"]
        hot = ["/h/0", "/h/1", "/h/2"]
        cold = [f"/c/{index:02d}" for index in range(40)]
        for path in promoted + hot + cold:
            client.write_file(path, size=MB, rep_vector=hdd2)
        for path in promoted:
            heat_up(fs, client, path)
        assert len(engine.run_round()) == len(promoted)
        fs.await_replication()
        for path in cold:
            client.open(path).read_size()
        for path in hot:
            heat_up(fs, client, path)
        assert len(engine.heat) == len(promoted + hot + cold)

        walked = []
        namespace = fs.master.namespace
        path_of = namespace.path_of
        monkeypatch.setattr(
            namespace, "path_of",
            lambda inode: walked.append(inode.path()) or path_of(inode),
        )
        applied = [d for d in engine.run_round() if d.outcome == "applied"]
        assert {d.action.path for d in applied} == set(hot)
        assert sorted(walked) == sorted(hot + promoted)

    def test_vanished_candidate_is_forgotten_cold_tail_is_pruned(self, fs, client):
        """A deleted file leaves the tracker at once if the round had to
        look at it (hot, or promoted), and through ``prune`` within ~20
        half-lives if it was cold; no policy ever sees either."""
        engine = TieringEngine(
            fs, policy=DecayHeatPolicy(promote_heat=2.0), half_life=1.0
        ).attach()
        for path in ("/hot", "/cold"):
            client.write_file(path, size=MB, rep_vector=ReplicationVector.of(hdd=2))
        heat_up(fs, client, "/hot")
        client.open("/cold").read_size()
        hot, cold = (fs.master.namespace.get_file(p) for p in ("/hot", "/cold"))
        client.delete("/hot")
        client.delete("/cold")
        assert engine.observe().files == ()
        assert hot not in engine.heat
        assert cold in engine.heat
        fs.engine.run(until=fs.engine.now + 25.0)
        assert engine.run_round() == []
        assert cold not in engine.heat

    def test_renamed_promotion_is_demoted_under_its_new_name(self, fs, client):
        """A rename keeps a file's heat and its memory replica managed:
        once cold the file is demoted under the name it has now."""
        engine = TieringEngine(
            fs,
            policy=DecayHeatPolicy(promote_heat=2.0, demote_heat=0.5),
            half_life=10.0,
        ).attach()
        client.write_file("/d/hot", size=4 * MB, rep_vector=ReplicationVector.of(hdd=2))
        heat_up(fs, client, "/d/hot")
        engine.run_round()
        fs.await_replication()
        client.rename("/d/hot", "/d/moved")
        assert memory_count(fs, "/d/moved") == 1
        fs.engine.run(until=fs.engine.now + 70.0)
        (decision,) = engine.run_round()
        assert (decision.action.kind, decision.action.path, decision.outcome) == (
            DEMOTE, "/d/moved", "applied",
        )
        fs.await_replication()
        assert memory_count(fs, "/d/moved") == 0
        locations = client.get_file_block_locations("/d/moved")
        assert not any("MEMORY" in loc.tiers for loc in locations)

    def test_recreated_path_starts_cold(self, fs, client):
        """A file re-created under a dead one's name is a new file: it
        inherits neither heat nor cooldown stamp, so its own opens
        promote it at the next round."""
        engine = TieringEngine(
            fs,
            policy=DecayHeatPolicy(promote_heat=2.0, demote_heat=0.5),
            half_life=10.0,
        ).attach()
        hdd2 = ReplicationVector.of(hdd=2)
        client.write_file("/f", size=MB, rep_vector=hdd2)
        heat_up(fs, client, "/f")
        engine.run_round()
        fs.await_replication()
        fs.engine.run(until=fs.engine.now + 70.0)
        (demotion,) = engine.run_round()
        assert (demotion.action.kind, demotion.outcome) == (DEMOTE, "applied")
        client.delete("/f")
        client.write_file("/f", size=MB, rep_vector=hdd2)
        heat_up(fs, client, "/f", accesses=3)
        (observed,) = engine.observe().files
        assert observed.heat <= 3  # three opens, nothing inherited
        assert observed.last_demoted == -math.inf
        (promotion,) = engine.run_round()
        assert (promotion.action.kind, promotion.action.path, promotion.outcome) == (
            PROMOTE, "/f", "applied",
        )

    def test_cooldown_stamps_leave_with_their_heat(self, fs, client):
        """A demoted file's cooldown stamp goes when its heat entry is
        pruned, so files demoted once and never read again do not grow
        ``_last_demoted`` without bound."""
        engine = TieringEngine(
            fs,
            policy=DecayHeatPolicy(
                promote_heat=0.5, demote_heat=0.25, movement_budget=100
            ),
            half_life=10.0,
        ).attach()
        for index in range(20):
            path = f"/one-shot-{index:02d}"
            client.write_file(path, size=MB, rep_vector=ReplicationVector.of(hdd=2))
            client.open(path).read_size()
        engine.run_round()
        assert engine.stats.promotions == 20
        fs.engine.run(until=fs.engine.now + 30.0)
        engine.run_round()
        assert engine.stats.demotions == 20
        assert len(engine._last_demoted) == 20
        fs.engine.run(until=fs.engine.now + 250.0)  # 25 half-lives
        engine.run_round()
        assert engine._last_demoted == {}
        assert len(engine.heat) == 0

    def test_promotion_survives_failover(self, fs, client):
        """A failover swaps in a namespace of new inodes; the engine's
        promotions carry over by path, so a file promoted before it is
        still demoted after it once cold."""
        engine = TieringEngine(
            fs,
            policy=DecayHeatPolicy(promote_heat=2.0, demote_heat=0.5),
            half_life=10.0,
        ).attach()
        standby = BackupMaster(fs.master)
        client.write_file("/p", size=MB, rep_vector=ReplicationVector.of(hdd=2))
        heat_up(fs, client, "/p")
        engine.run_round()
        fs.await_replication()
        standby.promote(fs)
        fs.await_replication()
        assert memory_count(fs, "/p") == 1
        fs.engine.run(until=fs.engine.now + 70.0)
        (decision,) = engine.run_round()
        assert (decision.action.kind, decision.action.path, decision.outcome) == (
            DEMOTE, "/p", "applied",
        )
        fs.await_replication()
        assert memory_count(fs, "/p") == 0

    def test_heat_restarts_cold_after_failover(self, fs, client):
        """Heat is soft state, like block locations: what a file accrued
        before a failover does not follow it onto the new namespace."""
        engine = TieringEngine(
            fs, policy=DecayHeatPolicy(promote_heat=2.0), half_life=10.0
        ).attach()
        standby = BackupMaster(fs.master)
        client.write_file("/warm", size=MB, rep_vector=ReplicationVector.of(hdd=2))
        heat_up(fs, client, "/warm")
        standby.promote(fs)
        assert engine.run_round() == []
        assert fs.master.namespace.get_file("/warm") not in engine.heat
        heat_up(fs, client, "/warm")
        (decision,) = engine.run_round()
        assert (decision.action.path, decision.outcome) == ("/warm", "applied")

    def test_never_demotes_application_pin(self, fs, client):
        engine = TieringEngine(
            fs, policy=DecayHeatPolicy(promote_heat=2.0, demote_heat=0.5)
        ).attach()
        client.write_file(
            "/pin", size=MB, rep_vector=ReplicationVector.of(memory=1, hdd=1)
        )
        client.open("/pin").read_size()  # tracked but stone cold soon
        fs.engine.run(until=fs.engine.now + 500.0)
        engine.run_rounds(3)
        assert engine.stats.demotions == 0
        assert memory_count(fs, "/pin") == 1

    def test_demotion_never_drops_last_replica(self, fs, client):
        engine = TieringEngine(
            fs, policy=DecayHeatPolicy(promote_heat=2.0, demote_heat=0.5),
            half_life=10.0,
        ).attach()
        # U=1 single replica: after promotion the replication manager
        # consolidates to the explicit vector <memory=1, U=1>... the
        # demotion of the memory replica must leave >= 1 replica.
        payload = b"L" * MB
        client.write_file("/lone", data=payload, rep_vector=ReplicationVector.of(u=1))
        heat_up(fs, client, "/lone")
        engine.run_round()
        fs.await_replication()
        assert memory_count(fs, "/lone") == 1
        fs.engine.run(until=fs.engine.now + 100.0)
        engine.run_round()
        fs.await_replication()
        vector = fs.master.get_status("/lone").rep_vector
        assert vector.total_replicas >= 1
        assert client.read_file("/lone") == payload

    def test_start_stop_and_periodic_rounds(self, fs, client):
        engine = TieringEngine(
            fs, policy=DecayHeatPolicy(promote_heat=2.0), interval=1.0
        ).start()
        assert engine.running
        client.write_file("/p", size=4 * MB, rep_vector=ReplicationVector.of(hdd=2))
        heat_up(fs, client, "/p")
        fs.engine.run(until=fs.engine.now + 5.0)
        assert engine.stats.rounds >= 3
        assert memory_count(fs, "/p") == 1
        engine.stop()
        assert not engine.running
        rounds = engine.stats.rounds
        fs.engine.run()  # drains cleanly: stopped process cannot wedge it
        assert engine.stats.rounds == rounds

    def test_double_attach_rejected(self, fs):
        engine = TieringEngine(fs).attach()
        with pytest.raises(ConfigurationError):
            engine.attach()
        engine.detach()
        engine.attach()  # detach makes re-attach legal again

    def test_double_start_rejected(self, fs):
        engine = TieringEngine(fs, interval=1.0).start()
        with pytest.raises(ConfigurationError):
            engine.start()
        engine.stop()

    def test_invalid_configuration_rejected(self, fs):
        with pytest.raises(ConfigurationError):
            TieringEngine(fs, interval=0.0)
        spec = small_cluster_spec()
        no_memory = dataclasses.replace(
            spec,
            tiers=tuple(t for t in spec.tiers if t.name != "MEMORY"),
            nodes=tuple(
                dataclasses.replace(
                    node,
                    media=tuple(m for m in node.media if m.tier != "MEMORY"),
                )
                for node in spec.nodes
            ),
        )
        with pytest.raises(ConfigurationError):
            TieringEngine(OctopusFileSystem(no_memory))

    def test_decision_log_is_bounded(self, fs, client):
        engine = TieringEngine(
            fs, policy=DecayHeatPolicy(promote_heat=2.0),
            decision_log_limit=5,
        ).attach()
        client.write_file("/spam", size=MB, rep_vector=ReplicationVector.of(memory=1))
        heat_up(fs, client, "/spam", accesses=6)
        # Already memory-resident: every round decides a promotion that
        # is skipped, growing the log without moving data.
        for _ in range(12):
            engine.run_round()
        assert len(engine.decision_log) <= 5
        assert engine.stats.skipped == 0  # pinned file is filtered out

    def test_static_policy_round_decides_nothing(self, fs, client):
        engine = TieringEngine(fs, policy=StaticVectorPolicy()).attach()
        client.write_file("/s", size=MB)
        heat_up(fs, client, "/s")
        assert engine.run_round() == []
        assert engine.stats.rounds == 1
        assert engine.stats.actions == 0


#: Policy inputs no policy read, and the knob that let an engine and its
#: policy disagree on which tier is the cache.
REMOVED_NAMES = ("TierObservation", "burn_snapshot", "read_p99", "memory_tier")


def _name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)):
        return node.name
    if isinstance(node, (ast.arg, ast.keyword)):
        return node.arg
    return None


def test_policy_input_carries_only_what_policies_read():
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root).as_posix()}:{getattr(node, 'lineno', '?')}"
        f" {_name_of(node)}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _name_of(node) in REMOVED_NAMES
    ]
    assert not offenders, "\n".join(offenders)
