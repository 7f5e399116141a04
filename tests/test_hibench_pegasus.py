"""Tests for the HiBench suite, the Pegasus driver, and deployments."""

import pytest

from repro.bench import DEPLOYMENTS, build_deployment
from repro.cluster import paper_cluster_spec, small_cluster_spec
from repro.core.placement import MoopPlacementPolicy, OriginalHdfsPolicy
from repro.core.retrieval import (
    HdfsLocalityRetrievalPolicy,
    OctopusRetrievalPolicy,
)
from repro.errors import ConfigurationError
from repro.util.units import GB, MB
from repro.workloads.hibench import (
    MICRO,
    ML,
    OLAP,
    WORKLOADS,
    HiBenchDriver,
    HiBenchWorkload,
    hadoop_duration,
)
from repro.workloads.pegasus import (
    INTERMEDIATE_VECTOR,
    PREFETCH_VECTOR,
    WORKLOADS as PEGASUS_WORKLOADS,
    PegasusDriver,
    PegasusWorkload,
)
from repro.workloads.tasks import list_files


def small_workload(**overrides):
    defaults = dict(
        name="mini",
        category=MICRO,
        input_bytes=32 * MB,
        map_cpu_per_mb=0.001,
        reduce_cpu_per_mb=0.001,
        shuffle_ratio=0.5,
        output_ratio=0.5,
    )
    defaults.update(overrides)
    return HiBenchWorkload(**defaults)


class TestDeployments:
    def test_all_presets_construct(self):
        for name in DEPLOYMENTS:
            fs = build_deployment(name, spec=small_cluster_spec())
            assert fs.workers

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            build_deployment("zfs")

    def test_hdfs_preset_wiring(self):
        fs = build_deployment("hdfs", spec=small_cluster_spec())
        assert isinstance(fs.master.placement_policy, OriginalHdfsPolicy)
        assert isinstance(fs.master.retrieval_policy, HdfsLocalityRetrievalPolicy)
        assert fs.master.placement_policy.allowed_tiers == frozenset({"HDD"})

    def test_octopus_preset_wiring(self):
        fs = build_deployment("octopus", spec=small_cluster_spec())
        assert isinstance(fs.master.placement_policy, MoopPlacementPolicy)
        assert fs.master.placement_policy.memory_enabled
        assert isinstance(fs.master.retrieval_policy, OctopusRetrievalPolicy)

    def test_nomem_preset_disables_memory(self):
        fs = build_deployment("octopus-nomem", spec=small_cluster_spec())
        assert not fs.master.placement_policy.memory_enabled

    def test_mixed_preset_for_fig5(self):
        fs = build_deployment("octopus-hdfs-read", spec=small_cluster_spec())
        assert isinstance(fs.master.placement_policy, MoopPlacementPolicy)
        assert isinstance(fs.master.retrieval_policy, HdfsLocalityRetrievalPolicy)


class TestHiBenchCatalog:
    def test_nine_workloads_three_categories(self):
        assert len(WORKLOADS) == 9
        categories = {w.category for w in WORKLOADS.values()}
        assert categories == {MICRO, OLAP, ML}
        for category in (MICRO, OLAP, ML):
            members = [w for w in WORKLOADS.values() if w.category == category]
            assert len(members) == 3

    def test_iterative_workloads(self):
        assert WORKLOADS["pagerank"].iterations > 1
        assert WORKLOADS["kmeans"].iterations > 1
        assert WORKLOADS["sort"].iterations == 1

    def test_join_has_side_input(self):
        assert WORKLOADS["join"].side_input_bytes > 0


class TestHiBenchDriver:
    @pytest.fixture
    def fs(self):
        return build_deployment("octopus", spec=small_cluster_spec())

    def test_prepare_input_creates_files(self, fs):
        driver = HiBenchDriver(fs)
        dirs = driver.prepare_input(small_workload())
        files = driver.input_files(dirs[0])
        assert len(files) == len(fs.workers)
        total = sum(fs.master.get_status(f).length for f in files)
        assert total == 32 * MB

    def test_run_hadoop_single_pass(self, fs):
        driver = HiBenchDriver(fs)
        results = driver.run_hadoop(small_workload())
        assert len(results) == 1
        assert hadoop_duration(results) > 0

    def test_run_hadoop_iterative_chains(self, fs):
        driver = HiBenchDriver(fs)
        results = driver.run_hadoop(
            small_workload(name="pagerank", iterations=2, output_ratio=0.5)
        )
        assert len(results) == 2
        # Chained: second job's input is the first job's output (up to
        # integer division when the output is split across reducers).
        assert results[1].input_bytes == pytest.approx(
            results[0].output_bytes, abs=results[0].reduce_tasks
        )

    def test_run_spark(self, fs):
        driver = HiBenchDriver(fs)
        result = driver.run_spark(small_workload(iterations=2))
        assert result.duration > 0
        assert result.cached_reads > 0

    def test_octopus_beats_hdfs_on_io_bound_work(self):
        """The Fig. 6 direction on a miniature sort."""
        w = small_workload(name="minisort", input_bytes=64 * MB)
        times = {}
        for dep in ("hdfs", "octopus"):
            fs = build_deployment(dep, spec=small_cluster_spec())
            times[dep] = hadoop_duration(HiBenchDriver(fs).run_hadoop(w))
        assert times["octopus"] < times["hdfs"]


class TestPegasus:
    def test_four_workloads(self):
        assert set(PEGASUS_WORKLOADS) == {"pagerank", "concomp", "hadi", "rwr"}
        assert all(w.iterations <= 4 for w in PEGASUS_WORKLOADS.values())

    def test_hadi_heaviest_intermediate(self):
        ratios = {n: w.intermediate_ratio for n, w in PEGASUS_WORKLOADS.items()}
        assert max(ratios, key=ratios.get) == "hadi"

    def test_vectors_use_memory(self):
        assert PREFETCH_VECTOR.count("MEMORY") == 1
        assert INTERMEDIATE_VECTOR.count("MEMORY") == 1

    @pytest.fixture
    def mini(self):
        return PegasusWorkload("mini", 2, 0.4, 0.001, 0.001, 0.5)

    def test_run_produces_jobs(self, mini):
        fs = build_deployment("octopus-nomem", spec=small_cluster_spec())
        driver = PegasusDriver(fs)
        result = driver.run(mini, graph_bytes=32 * MB)
        assert result.duration > 0
        assert len(result.jobs) == 2

    def test_prefetch_moves_replicas_to_memory(self, mini):
        fs = build_deployment("octopus-nomem", spec=small_cluster_spec())
        driver = PegasusDriver(fs, prefetch=True)
        driver.run(mini, graph_bytes=32 * MB)
        fs.await_replication()
        graph_files = list_files(fs, "/pegasus/graph")
        client = fs.client()
        for path in graph_files:
            tiers = client.get_file_block_locations(path)[0].tiers
            assert "MEMORY" in tiers

    def test_intermediate_vector_applied(self, mini):
        fs = build_deployment("octopus-nomem", spec=small_cluster_spec())
        driver = PegasusDriver(fs, intermediate_in_memory=True)
        result = driver.run(mini, graph_bytes=32 * MB)
        # The surviving (non-final) outputs were deleted; check the jobs
        # at least produced intermediates and that the final result uses
        # the durable default.
        final_dir = f"/pegasus/{mini.name}/iter-{mini.iterations - 1}"
        for status in fs.master.list_status(final_dir):
            assert status.rep_vector.count("MEMORY") == 0

    def test_temps_deleted_between_iterations(self, mini):
        fs = build_deployment("octopus-nomem", spec=small_cluster_spec())
        driver = PegasusDriver(fs)
        driver.run(mini, graph_bytes=32 * MB)
        # iter-0 outputs were consumed by iter-1 and removed.
        assert fs.master.list_status("/pegasus/mini/iter-0") == []

    def test_optimizations_do_not_slow_down(self, mini):
        spec = small_cluster_spec()
        base_fs = build_deployment("octopus-nomem", spec=spec)
        base = PegasusDriver(base_fs).run(mini, graph_bytes=64 * MB).duration
        opt_fs = build_deployment("octopus-nomem", spec=small_cluster_spec())
        opt = PegasusDriver(
            opt_fs, prefetch=True, intermediate_in_memory=True
        ).run(mini, graph_bytes=64 * MB).duration
        assert opt <= base * 1.10  # never meaningfully worse
