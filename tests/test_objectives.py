"""Unit tests for the MOOP objective functions (paper Eqs. 1-11)."""

import ast
import math
from pathlib import Path

import pytest

import repro
from repro.cluster import Cluster, paper_cluster_spec
from repro.core.objectives import (
    ALL_OBJECTIVES,
    ObjectiveContext,
    data_balancing,
    fault_tolerance,
    global_criterion_score,
    ideal_data_balancing,
    ideal_fault_tolerance,
    ideal_load_balancing,
    ideal_throughput_maximization,
    ideal_vector,
    load_balancing,
    objective_vector,
    throughput_maximization,
)
from repro.errors import PlacementError
from repro.util.units import GB, MB


@pytest.fixture
def cluster():
    return Cluster(paper_cluster_spec())


@pytest.fixture
def ctx(cluster):
    return ObjectiveContext.from_cluster(cluster)


def media_of(cluster, *specs):
    """specs like ('worker1', 'MEMORY'), ('worker2', 'HDD', 1)."""
    out = []
    for spec in specs:
        node, tier, index = (*spec, 0)[:3]
        out.append(cluster.node(node).medium_for_tier(tier)[index])
    return out


class TestContext:
    def test_paper_cluster_totals(self, ctx):
        assert ctx.total_tiers == 3
        assert ctx.total_nodes == 9
        assert ctx.total_racks == 2
        assert ctx.block_size == 128 * MB

    def test_fresh_cluster_maxima(self, ctx):
        assert ctx.max_remaining_fraction == 1.0
        assert ctx.min_connections == 0
        assert ctx.max_write_throughput == pytest.approx(1897.4 * MB)

    def test_empty_cluster_rejected(self, cluster):
        for node in cluster.worker_nodes:
            node.failed = True
        with pytest.raises(PlacementError):
            ObjectiveContext.from_cluster(cluster)


class TestDataBalancing:
    def test_eq1_fresh_media(self, cluster, ctx):
        media = media_of(cluster, ("worker1", "HDD"))
        expected = (media[0].remaining - ctx.block_size) / media[0].capacity
        assert data_balancing(media, ctx) == pytest.approx(expected)

    def test_prefers_emptier_media(self, cluster, ctx):
        full, empty = media_of(
            cluster, ("worker1", "HDD", 0), ("worker2", "HDD", 0)
        )
        full.reserve(100 * GB)
        assert data_balancing([empty], ctx) > data_balancing([full], ctx)

    def test_eq2_ideal(self, ctx):
        assert ideal_data_balancing(3, ctx) == pytest.approx(3 * 1.0)

    def test_normalization_across_capacities(self, cluster, ctx):
        """A half-full small medium scores like a half-full big one."""
        memory, hdd = media_of(
            cluster, ("worker1", "MEMORY"), ("worker2", "HDD")
        )
        memory.reserve(memory.capacity // 2)
        hdd.reserve(hdd.capacity // 2)
        small_ctx = ObjectiveContext.from_cluster(cluster, block_size=0)
        assert data_balancing([memory], small_ctx) == pytest.approx(
            data_balancing([hdd], small_ctx)
        )


class TestLoadBalancing:
    def test_eq3_idle_media(self, cluster, ctx):
        media = media_of(cluster, ("worker1", "SSD"), ("worker2", "SSD"))
        assert load_balancing(media, ctx) == pytest.approx(2.0)

    def test_eq3_loaded_media(self, cluster, ctx):
        medium = media_of(cluster, ("worker1", "SSD"))[0]
        flow_stub = object()
        medium.write_channel.flows.add(flow_stub)  # one active connection
        try:
            assert load_balancing([medium], ctx) == pytest.approx(0.5)
        finally:
            medium.write_channel.flows.discard(flow_stub)

    def test_eq4_ideal(self, ctx):
        assert ideal_load_balancing(2, ctx) == pytest.approx(2.0)


class TestFaultTolerance:
    def test_eq5_perfect_spread(self, cluster, ctx):
        # 3 tiers, 3 nodes, exactly 2 racks -> each term is 1.
        media = media_of(
            cluster,
            ("worker1", "MEMORY"),  # rack0
            ("worker2", "SSD"),  # rack1
            ("worker3", "HDD"),  # rack0
        )
        assert fault_tolerance(media, ctx) == pytest.approx(3.0)

    def test_eq5_all_same_node(self, cluster, ctx):
        media = media_of(
            cluster,
            ("worker1", "MEMORY"),
            ("worker1", "SSD"),
            ("worker1", "HDD", 0),
        )
        # tiers 3/3 = 1; nodes 1/3; racks |1-2|+1 = 2 -> 1/2.
        assert fault_tolerance(media, ctx) == pytest.approx(1 + 1 / 3 + 0.5)

    def test_eq5_three_racks_penalized(self):
        cluster = Cluster(paper_cluster_spec(workers=9, racks=3))
        ctx = ObjectiveContext.from_cluster(cluster)
        spread = media_of(
            cluster,
            ("worker1", "HDD"),  # rack0
            ("worker2", "HDD"),  # rack1
            ("worker3", "HDD"),  # rack2
        )
        two_racks = media_of(
            cluster,
            ("worker1", "HDD"),  # rack0
            ("worker2", "HDD"),  # rack1
            ("worker4", "HDD"),  # rack0
        )
        assert fault_tolerance(two_racks, ctx) > fault_tolerance(spread, ctx)

    def test_eq5_single_rack_cluster_term_is_one(self):
        cluster = Cluster(paper_cluster_spec(workers=4, racks=1))
        ctx = ObjectiveContext.from_cluster(cluster)
        media = media_of(cluster, ("worker1", "MEMORY"), ("worker2", "SSD"))
        # tiers 2/2 + nodes 2/2 + rack term 1 (t == 1).
        assert fault_tolerance(media, ctx) == pytest.approx(3.0)

    def test_eq6_ideal_constant(self, ctx):
        assert ideal_fault_tolerance(1, ctx) == 3.0
        assert ideal_fault_tolerance(7, ctx) == 3.0

    def test_empty_list(self, ctx):
        assert fault_tolerance([], ctx) == 0.0


class TestThroughputMaximization:
    def test_eq7_memory_is_one(self, cluster, ctx):
        media = media_of(cluster, ("worker1", "MEMORY"))
        assert throughput_maximization(media, ctx) == pytest.approx(1.0)

    def test_eq7_log_scaling_orders_tiers(self, cluster, ctx):
        memory = media_of(cluster, ("worker1", "MEMORY"))
        ssd = media_of(cluster, ("worker1", "SSD"))
        hdd = media_of(cluster, ("worker1", "HDD"))
        tm = lambda m: throughput_maximization(m, ctx)  # noqa: E731
        assert tm(memory) > tm(ssd) > tm(hdd)
        # Log scaling keeps HDD well above the raw ratio 126/1897 ~ 0.066.
        assert tm(hdd) > 0.8

    def test_eq8_ideal(self, ctx):
        assert ideal_throughput_maximization(3, ctx) == 3.0


class TestGlobalCriterion:
    def test_eq9_eq10_vector_shapes(self, cluster, ctx):
        media = media_of(cluster, ("worker1", "MEMORY"))
        assert len(objective_vector(media, ctx)) == 4
        assert len(ideal_vector(1, ctx)) == 4

    def test_eq11_score_is_distance(self, cluster, ctx):
        media = media_of(cluster, ("worker1", "MEMORY"))
        f = objective_vector(media, ctx)
        z = ideal_vector(1, ctx)
        expected = math.sqrt(sum((a - b) ** 2 for a, b in zip(f, z)))
        assert global_criterion_score(media, ctx) == pytest.approx(expected)

    def test_better_spread_scores_lower(self, cluster, ctx):
        good = media_of(
            cluster,
            ("worker1", "MEMORY"),
            ("worker2", "SSD"),
            ("worker3", "HDD"),
        )
        bad = media_of(
            cluster,
            ("worker1", "HDD", 0),
            ("worker1", "HDD", 1),
            ("worker1", "HDD", 2),
        )
        assert global_criterion_score(good, ctx) < global_criterion_score(bad, ctx)

    def test_subset_objectives(self, cluster, ctx):
        media = media_of(cluster, ("worker1", "MEMORY"))
        score = global_criterion_score(media, ctx, objectives=("tm",))
        assert score == pytest.approx(0.0)  # memory is the ideal for TM

    def test_all_objective_names_valid(self, cluster, ctx):
        media = media_of(cluster, ("worker1", "SSD"))
        for name in ALL_OBJECTIVES:
            objective_vector(media, ctx, objectives=(name,))


#: The packages whose float sums are left folds from ``0``.
FOLDED = ("core", "cluster", "obs/analyze.py", "workloads", "bench")

#: The builtin ``sum`` calls those packages keep, each over integer
#: counts: (module under ``src/repro``, enclosing function, the call).
INTEGER_SUMS = {
    ("bench/experiments/ablation.py", "_greedy_vs_exhaustive", "sum(options)"),
    ("bench/experiments/ablation.py", "_log_vs_raw_throughput", "sum(counts.values())"),
    ("bench/experiments/ablation.py", "_memory_cap", "sum((m.remaining for m in cluster.tier('MEMORY').live_media))"),
    ("cluster/media.py", "statistics", "sum((m.capacity for m in live))"),
    ("cluster/media.py", "statistics", "sum((m.used for m in live))"),
    ("cluster/media.py", "statistics", "sum((m.remaining for m in live))"),
    ("cluster/media.py", "statistics", "sum((m.nr_connections for m in live))"),
    ("core/moop.py", "_memory_rule", "sum((1 for m in placed if m.tier_name in volatile_tiers))"),
    ("core/moop.py", "_record_decision", "sum((1 for m in chosen if m.tier_name == tier))"),
    ("core/replication.py", "analyze_block", "sum(surplus.values())"),
    ("core/replication_vector.py", "total_replicas", "sum(self._counts.values())"),
    ("obs/analyze.py", "stragglers", "sum((1 for flow in flows if flow.span_id != node.span_id and flow.start < node.end and (flow.end > node.start)))"),
    ("obs/analyze.py", "analyze_trace", "sum((1 for s in trace.spans.values() if s.status != 'ok'))"),
    ("workloads/mapreduce.py", "run_job_proc", "sum((t.block.size for t in tasks))"),
    ("workloads/pegasus.py", "_output_ratio", "sum((self.system.master.get_status(p).length for p in prev_outputs))"),
    ("workloads/shift.py", "post_shift_hit_rate", "sum((phase.reads for phase in self.post_shift))"),
    ("workloads/shift.py", "post_shift_hit_rate", "sum((phase.memory_hits for phase in self.post_shift))"),
    ("workloads/spark.py", "run_job_proc", "sum((split.block.size for split in partitions))"),
}


def sum_calls(tree, owner="<module>"):
    """Every ``sum(...)`` call under ``tree``, with its innermost function."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from sum_calls(child, child.name)
            continue
        if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "sum":
            yield owner, ast.unparse(child)
        yield from sum_calls(child, owner)


def test_core_sums_floats_as_left_folds():
    """From Python 3.12 the builtin ``sum`` of floats is compensated, so
    it rounds differently from 3.11's: every float sum in ``repro.core``,
    ``repro.cluster``, ``repro.obs.analyze``, ``repro.workloads`` and
    ``repro.bench`` is a left fold from ``0`` (3.11's ``sum``, on every
    interpreter), and ``sum`` stays only over the integer counts listed
    here."""
    root = Path(repro.__file__).parent
    paths = [
        path
        for part in FOLDED
        for path in ([root / part] if part.endswith(".py") else (root / part).rglob("*.py"))
    ]
    found = {
        (path.relative_to(root).as_posix(), *call)
        for path in sorted(paths)
        for call in sum_calls(ast.parse(path.read_text()))
    }
    assert found == INTEGER_SUMS
