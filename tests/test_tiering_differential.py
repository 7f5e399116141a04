"""Differential tests: an idle tiering policy changes *nothing*.

The tiering engine's core safety claim (module docstring of
``repro.tier.engine``) is that observation is free: a round that applies
no actions emits no spans or events and mints no metric instruments, so
running the engine with the static baseline policy — or with a
``DecayHeatPolicy`` or ``BudgetedCachePolicy`` whose thresholds can
never trigger — must leave the
trace and metrics exports **byte-identical** to a run without the
engine at all. Same oracle pattern as
``test_flow_solver_equivalence.test_dfsio_exports_byte_identical``:
serialize both exports and compare the strings.

The adaptive control is the sanity check that the oracle has teeth: an
*enabled* policy on the same seeded workload must change the exports.
"""

import math

import pytest

from repro import OctopusFileSystem
from repro.cluster import small_cluster_spec
from repro.obs import Observability, metrics_json, prometheus_text, to_jsonl
from repro.tier import (
    BudgetedCachePolicy,
    DecayHeatPolicy,
    StaticVectorPolicy,
    TieringEngine,
)
from repro.util.units import MB
from repro.workloads.dfsio import Dfsio
from repro.workloads.slive import OctopusNamespaceAdapter, SLive

#: Policies that must never act: the no-op baseline, an infinite-
#: hysteresis decay policy (promotion threshold no heat can cross) and
#: a cache no access count can fill.
IDLE_POLICIES = {
    "static": StaticVectorPolicy,
    "infinite-hysteresis": lambda: DecayHeatPolicy(promote_heat=math.inf),
    "cache-never": lambda: BudgetedCachePolicy(
        budget=64 * MB, promote_after=math.inf
    ),
}


# ----------------------------------------------------------------------
# DFSIO through the full file system
# ----------------------------------------------------------------------
def _dfsio_exports(policy_factory, expect_idle=True):
    """Run the seeded DFSIO workload, optionally under a tiering engine.

    ``policy_factory is None`` is the engineless baseline. The interval
    is far below the phase makespans so the periodic process provably
    interleaves many observe/decide rounds with the workload's events.
    """
    fs = OctopusFileSystem(small_cluster_spec(seed=3))
    fs.obs.enable()
    engine = None
    if policy_factory is not None:
        engine = TieringEngine(
            fs, policy=policy_factory(), interval=0.1, half_life=5.0
        ).start()
    bench = Dfsio(fs, sample_interval=0.5)
    bench.write(24 * MB, parallelism=3)
    bench.read(parallelism=3)
    if engine is not None:
        engine.stop()
        assert engine.stats.rounds > 0, "engine never got a round in"
        if expect_idle:
            assert engine.stats.actions == 0, "idle policy must not act"
        else:
            assert engine.stats.actions > 0, "control policy must act"
    return (
        to_jsonl(fs.obs.tracer.records),
        metrics_json(fs.obs.metrics),
        prometheus_text(fs.obs.metrics),
    )


@pytest.mark.parametrize("policy", sorted(IDLE_POLICIES))
def test_dfsio_exports_byte_identical_with_idle_engine(policy):
    baseline = _dfsio_exports(None)
    with_engine = _dfsio_exports(IDLE_POLICIES[policy])
    assert with_engine[0] == baseline[0]  # trace JSONL
    assert with_engine[1] == baseline[1]  # metrics JSON
    assert with_engine[2] == baseline[2]  # Prometheus text


def test_dfsio_exports_do_change_under_an_active_policy():
    """The oracle must be able to fail: a triggerable policy on the very
    same workload perturbs the exports (new spans, new counters)."""
    baseline = _dfsio_exports(None)
    active = _dfsio_exports(
        lambda: DecayHeatPolicy(promote_heat=0.1, demote_heat=0.05),
        expect_idle=False,
    )
    assert active[0] != baseline[0]
    assert active[1] != baseline[1]
    assert "tier_actions_total" in active[2]
    assert "tier_actions_total" not in baseline[2]


# ----------------------------------------------------------------------
# S-Live over the namespace, engine rounds interleaved
# ----------------------------------------------------------------------
def _slive_exports(policy_factory):
    """Seeded S-Live against an OctopusFS master, plus client traffic.

    Both runs perform identical file-system operations; the variant
    additionally attaches an idle-policy engine, which accumulates heat
    from the client reads and runs explicit rounds mid-workload.
    """
    fs = OctopusFileSystem(small_cluster_spec(seed=5))
    fs.obs.enable()
    engine = None
    if policy_factory is not None:
        engine = TieringEngine(fs, policy=policy_factory(), half_life=4.0)
        engine.attach()
    client = fs.client(on="worker1")
    client.write_file("/slive-heat", size=4 * MB)
    for _ in range(3):
        client.open("/slive-heat").read_size()
    if engine is not None:
        assert len(engine.heat) == 1  # the reads really fed the tracker
        engine.run_rounds(3)
    slive = SLive(ops_per_type=40, dirs=8, seed=7, obs=fs.obs)
    slive.run(OctopusNamespaceAdapter.for_master(fs.master))
    if engine is not None:
        engine.run_rounds(2)
        engine.detach()
        assert engine.stats.rounds == 5
        assert engine.stats.actions == 0
    return (
        to_jsonl(fs.obs.tracer.records),
        metrics_json(fs.obs.metrics),
        prometheus_text(fs.obs.metrics),
    )


@pytest.mark.parametrize("policy", sorted(IDLE_POLICIES))
def test_slive_exports_byte_identical_with_idle_engine(policy):
    baseline = _slive_exports(None)
    with_engine = _slive_exports(IDLE_POLICIES[policy])
    assert with_engine[0] == baseline[0]
    assert with_engine[1] == baseline[1]
    assert with_engine[2] == baseline[2]


# ----------------------------------------------------------------------
# The observation path itself
# ----------------------------------------------------------------------
def test_observe_mints_no_metric_instruments():
    """``observe()`` reads the namespace and the tier reports, never
    the metrics registry: a lookup there could mint an instrument and
    break the byte-identity above in a way only this narrower test
    pinpoints."""
    fs = OctopusFileSystem(small_cluster_spec(seed=1))
    fs.obs.enable()
    client = fs.client(on="worker1")
    client.write_file("/probe", size=MB)
    engine = TieringEngine(fs, policy=StaticVectorPolicy()).attach()
    client.open("/probe").read_size()
    before = metrics_json(fs.obs.metrics)
    state = engine.observe()
    assert state.files and state.tiers
    assert metrics_json(fs.obs.metrics) == before
    engine.detach()


def test_null_observability_run_still_acts():
    """Decisions must not depend on the obs stack being enabled: with
    observability off the engine still promotes (exports just stay
    empty) — guarding against accidentally gating *behaviour* on
    ``obs.enabled`` rather than only emission."""
    fs = OctopusFileSystem(small_cluster_spec(seed=2))
    assert not fs.obs.enabled
    client = fs.client(on="worker1")
    client.write_file("/quiet-hot", size=MB)
    engine = TieringEngine(
        fs, policy=DecayHeatPolicy(promote_heat=1.5, demote_heat=0.2)
    ).attach()
    for _ in range(4):
        client.open("/quiet-hot").read_size()
    engine.run_round()
    assert engine.stats.promotions == 1
    assert isinstance(fs.obs, Observability)
    engine.detach()
