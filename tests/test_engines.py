"""Tests for the MapReduce and Spark engine simulations."""

from dataclasses import replace

import pytest

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.workloads.mapreduce import MapReduceEngine, MapReduceJobSpec
from repro.workloads.spark import SparkEngine, SparkJobSpec
from repro.util.units import MB


@pytest.fixture
def fs():
    return OctopusFileSystem(small_cluster_spec())


def write_input(fs, directory="/input", files=4, size=8 * MB):
    names = sorted(fs.workers)
    paths = []
    for index in range(files):
        client = fs.client(on=names[index % len(names)])
        path = f"{directory}/part-{index}"
        client.write_file(path, size=size)
        paths.append(path)
    return paths


def job_spec(paths, **overrides):
    defaults = dict(
        name="job",
        input_paths=paths,
        output_path="/output",
        map_cpu_per_mb=0.001,
        reduce_cpu_per_mb=0.001,
        shuffle_ratio=0.5,
        output_ratio=0.5,
        num_reducers=4,
    )
    defaults.update(overrides)
    return MapReduceJobSpec(**defaults)


class TestMapReduceEngine:
    def test_job_completes_with_accounting(self, fs):
        paths = write_input(fs)
        engine = MapReduceEngine(fs)
        result = engine.run_job(job_spec(paths))
        assert result.duration > 0
        assert result.map_tasks == 8  # 4 files x 8MB / 4MB blocks
        assert result.reduce_tasks == 4
        assert result.input_bytes == 32 * MB
        assert result.shuffle_bytes == 16 * MB
        assert result.output_bytes == 16 * MB

    def test_output_written_to_dfs(self, fs):
        paths = write_input(fs)
        MapReduceEngine(fs).run_job(job_spec(paths))
        parts = fs.master.list_status("/output")
        assert len(parts) == 4
        total = sum(p.length for p in parts)
        assert total == 16 * MB

    def test_output_vector_respected(self, fs):
        paths = write_input(fs)
        spec = job_spec(
            paths, output_vector=ReplicationVector.of(ssd=1), num_reducers=2
        )
        MapReduceEngine(fs).run_job(spec)
        for part in fs.master.list_status("/output"):
            locs = fs.client().get_file_block_locations(part.path)
            assert all(loc.tiers == ("SSD",) for loc in locs)

    def test_locality_mostly_achieved(self, fs):
        """Slot scheduling should produce high map locality (~90% in
        real Hadoop per the paper)."""
        paths = write_input(fs, files=8)
        result = MapReduceEngine(fs).run_job(job_spec(paths))
        assert result.map_locality >= 0.5

    def test_cpu_heavy_job_takes_longer(self, fs):
        paths = write_input(fs)
        fast = MapReduceEngine(fs).run_job(job_spec(paths, name="fast"))
        slow = MapReduceEngine(fs).run_job(
            job_spec(paths, name="slow", output_path="/out2", map_cpu_per_mb=0.5)
        )
        assert slow.duration > fast.duration

    def test_map_only_profile(self, fs):
        paths = write_input(fs)
        spec = job_spec(paths, shuffle_ratio=0.0, output_ratio=0.0)
        result = MapReduceEngine(fs).run_job(spec)
        assert result.shuffle_bytes == 0
        assert result.output_bytes == 0

    def test_chained_jobs(self, fs):
        paths = write_input(fs)
        engine = MapReduceEngine(fs)
        first = engine.run_job(job_spec(paths, output_path="/stage1"))
        stage1 = [s.path for s in fs.master.list_status("/stage1")]
        second = engine.run_job(
            job_spec(stage1, name="second", output_path="/stage2")
        )
        assert second.input_bytes == first.output_bytes

    def test_missing_input_rejected(self, fs):
        from repro.errors import FileNotFoundInNamespaceError

        with pytest.raises(FileNotFoundInNamespaceError):
            MapReduceEngine(fs).run_job(job_spec(["/nope"]))


class TestSparkEngine:
    def spark_spec(self, paths, **overrides):
        defaults = dict(
            name="sjob",
            input_paths=paths,
            output_path="/spark-out",
            cpu_per_mb=0.001,
            shuffle_ratio=0.2,
            output_ratio=0.2,
            iterations=1,
        )
        defaults.update(overrides)
        return SparkJobSpec(**defaults)

    def test_single_pass_job(self, fs):
        paths = write_input(fs)
        result = SparkEngine(fs).run_job(self.spark_spec(paths))
        assert result.duration > 0
        assert result.tasks == 8
        assert result.dfs_reads == 8
        assert result.cached_reads == 0

    def test_iterative_job_hits_cache(self, fs):
        paths = write_input(fs)
        result = SparkEngine(fs).run_job(
            self.spark_spec(paths, iterations=3, cache_input=True)
        )
        assert result.tasks == 24
        assert result.dfs_reads == 8  # only the first pass
        assert result.cached_reads == 16
        assert result.cache_hit_rate == pytest.approx(2 / 3)

    def test_cache_disabled_rereads_dfs(self, fs):
        paths = write_input(fs)
        result = SparkEngine(fs).run_job(
            self.spark_spec(paths, iterations=3, cache_input=False)
        )
        assert result.dfs_reads == 24
        assert result.cached_reads == 0

    def test_cache_capacity_bound(self, fs):
        paths = write_input(fs)
        engine = SparkEngine(fs, cache_per_node=4 * MB)  # 1 block per node
        result = engine.run_job(
            self.spark_spec(paths, iterations=2, cache_input=True)
        )
        # Only 4 nodes x 1 block can be cached; the rest re-read DFS.
        assert result.cached_reads <= 4
        assert result.dfs_reads >= 12

    def test_caching_speeds_iterations(self, fs):
        paths = write_input(fs)
        cached = SparkEngine(fs).run_job(
            self.spark_spec(paths, name="c", iterations=3, cache_input=True)
        )
        fs2 = OctopusFileSystem(small_cluster_spec())
        paths2 = write_input(fs2)
        uncached = SparkEngine(fs2).run_job(
            self.spark_spec(paths2, name="u", iterations=3, cache_input=False)
        )
        assert cached.duration < uncached.duration

    def test_output_written(self, fs):
        paths = write_input(fs)
        SparkEngine(fs).run_job(self.spark_spec(paths, output_ratio=0.5))
        parts = fs.master.list_status("/spark-out")
        assert sum(p.length for p in parts) > 0


class TestSparkRemoteCache:
    def test_remote_cache_hits_counted(self, fs):
        """With one core per fat executor, partitions cached on one node
        are sometimes processed by another -> remote cache pulls."""
        from repro.workloads.spark import SparkEngine, SparkJobSpec

        paths = write_input(fs, files=4, size=8 * MB)
        engine = SparkEngine(fs, cores_per_executor=1)
        spec = SparkJobSpec(
            name="remote",
            input_paths=paths,
            output_path="/ro",
            cpu_per_mb=0.0,
            shuffle_ratio=0.0,
            output_ratio=0.0,
            iterations=3,
            cache_input=True,
        )
        result = engine.run_job(spec)
        assert result.cached_reads + result.dfs_reads == result.tasks
        assert result.cached_reads >= 8  # all later passes are cache hits

    def test_shuffle_stage_consumes_time(self, fs):
        from repro.workloads.spark import SparkEngine, SparkJobSpec

        paths = write_input(fs)

        def run(shuffle):
            fs2 = OctopusFileSystem(small_cluster_spec())
            p2 = write_input(fs2)
            spec = SparkJobSpec(
                name="sh", input_paths=p2, output_path="/so",
                cpu_per_mb=0.0, shuffle_ratio=shuffle, output_ratio=0.0,
            )
            return SparkEngine(fs2).run_job(spec).duration

        assert run(1.0) > run(0.0)


class TestTaskSubstrate:
    def test_spark_core_takes_rack_local_before_queue_head(self, fs, monkeypatch):
        """Spark's locality levels: cached here, node, rack, any. worker1
        (rack0) picks first and holds no partition; it takes the one on
        worker3 (rack0) before the head of the queue, on worker2 (rack1)."""
        from repro.workloads import spark

        paths = write_input(fs, files=2, size=4 * MB)  # one block each
        hosts = iter([{"worker2"}, {"worker3"}])
        plan = spark.plan_splits
        monkeypatch.setattr(
            spark,
            "plan_splits",
            lambda system, input_paths: [
                split._replace(hosts=next(hosts)) for split in plan(system, input_paths)
            ],
        )
        readers = {}
        read = spark.read_split

        def recording_read(split, node, label):
            readers[split.block.block_id] = node.name
            return read(split, node, label)

        monkeypatch.setattr(spark, "read_split", recording_read)
        spec = SparkJobSpec(
            name="rack", input_paths=paths, output_path="/rack",
            cpu_per_mb=0.0, shuffle_ratio=0.0, output_ratio=0.0,
        )
        SparkEngine(fs, cores_per_executor=1).run_job(spec)
        head, rack_local = (
            fs.master.namespace.get_file(path).blocks[0].block_id for path in paths
        )
        assert readers == {rack_local: "worker1", head: "worker2"}

    def test_shuffle_reads_and_writes_the_idle_disk(self):
        """Of a node's two HDDs, one busy reading and one busy writing, a
        shuffle out of the node reads the second and a shuffle into it
        writes the first."""
        from repro.workloads.tasks import shuffle

        spec = small_cluster_spec()
        two_hdds = tuple(
            replace(node, media=node.media[:4]) for node in spec.nodes
        )  # MEMORY, SSD, HDD, HDD
        fs = OctopusFileSystem(replace(spec, nodes=two_hdds))
        busy, other = fs.cluster.node("worker1"), fs.cluster.node("worker2")
        reading, writing = busy.medium_for_tier("HDD")
        flows = fs.cluster.flows
        flows.transfer(64 * MB, [reading.read_channel], label="busy-read")
        flows.transfer(64 * MB, [writing.write_channel], label="busy-write")
        started = []
        transfer = flows.transfer

        def recording_transfer(size, resources, label=""):
            started.append(resources)
            return transfer(size, resources, label=label)

        flows.transfer = recording_transfer
        moves = [(busy, other, MB), (other, busy, MB), (busy, other, 0)]
        fs.run_to_completion(shuffle(fs, moves, label="shuffle:test"))
        assert len(started) == 2  # no flow for an empty move
        out_of_busy, into_busy = started
        assert out_of_busy[0] is writing.read_channel
        assert into_busy[-1] is reading.write_channel
