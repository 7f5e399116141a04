"""Scripted fault-injection scenarios (repro.sim.faults).

Covers the declarative :class:`FaultSchedule` path end to end: faults
striking mid-write and mid-read, restart/reconcile after a crash, the
silence-vs-death distinction, performance faults (degraded media, slow
nodes), and the headline reproducibility guarantee — a fixed scenario
yields an identical fault trace and an identical final block layout
across independent runs.
"""

import ast
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import Cluster, small_cluster_spec
from repro.errors import FaultInjectionError
from repro.fs.invariants import block_map_fingerprint, check_system_invariants
from repro.obs import FlightRecorder, ProvenanceLedger
from repro.sim.faults import FAULT_KINDS, FaultEvent, FaultSchedule
from repro.util.units import MB


@pytest.fixture
def fs():
    return OctopusFileSystem(small_cluster_spec())


@pytest.fixture
def client(fs):
    return fs.client(on="worker1")


class TestFaultEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent(1.0, "meteor", "worker1")

    def test_negative_time_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent(-1.0, "crash", "worker1")

    def test_negative_block_index_rejected(self):
        with pytest.raises(FaultInjectionError, match="block_index"):
            FaultEvent(1.0, "corrupt", "/f", block_index=-1)

    def test_degrade_requires_factor(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent(1.0, "degrade_medium", "worker1:hdd2")
        with pytest.raises(FaultInjectionError):
            FaultEvent(1.0, "slow_node", "worker1", factor=1.5)

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("crash", {"factor": 0.5}),
            ("corrupt", {"factor": 0.5}),
            ("fail_medium", {"block_index": 1}),
            ("slow_node", {"factor": 0.5, "medium_id": "worker1:hdd2"}),
        ],
    )
    def test_arguments_the_kind_ignores_rejected(self, kind, extra):
        with pytest.raises(FaultInjectionError, match="takes no"):
            FaultEvent(1.0, kind, "worker1", **extra)

    def test_schedule_orders_by_time_stably(self):
        schedule = (
            FaultSchedule()
            .restart(at=9.0, node="worker2")
            .crash(at=4.0, node="worker2")
            .silence(at=4.0, node="worker3")
        )
        ordered = schedule.ordered()
        assert [e.at for e in ordered] == [4.0, 4.0, 9.0]
        # The two t=4 events keep insertion order.
        assert [e.kind for e in ordered] == ["crash", "silence", "restart"]
        assert len(schedule) == 3

    def test_chaos_rejects_unknown_kinds(self, fs):
        with pytest.raises(FaultInjectionError):
            fs.faults.start_chaos(seed=1, kinds=("crash", "asteroid"))


class TestScheduledFaults:
    def test_schedule_fires_at_scripted_times(self):
        schedule = (
            FaultSchedule()
            .crash(at=2.0, node="worker2")
            .restart(at=10.0, node="worker2")
        )
        fs = OctopusFileSystem(small_cluster_spec(), faults=schedule)
        fs.engine.run(until=30.0)
        assert fs.faults.trace_lines() == [
            "t=2.000000 crash worker2",
            "t=10.000000 restart worker2",
        ]
        assert not fs.cluster.node("worker2").failed

    def test_corrupt_event_triggers_repair(self, fs, client):
        payload = b"checksum me" * 100_000
        client.write_file("/c", data=payload, rep_vector=2)
        fs.faults.corrupt_block("/c")
        assert fs.master.pending_replication > 0
        fs.await_replication()
        check_system_invariants(fs)
        assert fs.client(on="worker2").read_file("/c") == payload
        (record,) = fs.faults.trace
        assert record.kind == "corrupt" and record.target == "/c#0"

    def test_corrupting_missing_block_rejected(self, fs, client):
        client.write_file("/short", size=MB, rep_vector=1)
        with pytest.raises(FaultInjectionError):
            fs.faults.corrupt_block("/short", block_index=5)
        # Not the last block counted from the end: no block at all.
        client.write_file("/two", size=2 * MB, rep_vector=1, block_size=MB)
        with pytest.raises(FaultInjectionError, match="no block index -1"):
            fs.faults.corrupt_block("/two", block_index=-1)
        assert fs.faults.trace == []
        with pytest.raises(FaultInjectionError):
            fs.faults.corrupt_replica(424242, "worker1:hdd2")

    def test_corrupting_a_medium_without_the_block_rejected(self, fs, client):
        """A corruption naming a medium that holds no live replica would
        corrupt nothing; it is refused, not recorded."""
        client.write_file("/f", size=MB, rep_vector=ReplicationVector.of(hdd=2))
        (loc,) = fs.client().get_file_block_locations("/f")
        elsewhere = next(m for m in sorted(fs.cluster.media) if m not in loc.media)
        with pytest.raises(FaultInjectionError, match="no live replica"):
            fs.faults.corrupt_block("/f", 0, medium_id=elsewhere)
        with pytest.raises(FaultInjectionError, match="no live replica"):
            fs.faults.corrupt_replica(loc.block_id, elsewhere)
        with pytest.raises(FaultInjectionError, match="no live replica"):
            fs.faults.apply(FaultEvent(0.0, "corrupt", "/f", medium_id=elsewhere))
        assert fs.faults.trace == []
        assert fs.master.pending_replication == 0
        meta = fs.master.block_map[loc.block_id]
        assert not any(r.corrupt for r in meta.replicas)


class TestMidFlightFaults:
    def test_write_completes_when_pipeline_node_crashes(self, fs, client):
        """Kill a pipeline node mid-write: the stream retries the block
        on surviving targets and the write still completes."""
        stream = client.create("/io", rep_vector=ReplicationVector.of(hdd=2))

        def writer():
            yield from stream.write_size_proc(8 * MB)
            yield from stream.close_proc()

        proc = fs.engine.process(writer())

        def killer():
            yield fs.engine.timeout(0.01)
            for medium in fs.cluster.live_media():
                # Crash a *remote* pipeline node so the client survives.
                if (
                    medium.write_channel.active_count
                    and medium.node.name != "worker1"
                ):
                    fs.faults.crash(medium.node.name)
                    return

        fs.engine.process(killer())
        fs.engine.run(proc)
        assert len(fs.faults.trace) == 1
        crashed = fs.faults.trace[0].target
        assert fs.master.namespace.get_file("/io").length == 8 * MB
        for loc in fs.client().get_file_block_locations("/io"):
            assert len(loc.hosts) == 2
            assert crashed not in loc.hosts

    def test_read_falls_back_when_fastest_replica_node_crashes(self, fs, client):
        """Kill the node serving the fastest (memory) replica mid-read:
        the client falls back down the Eq. 12 ordering and still gets
        the bytes."""
        payload = b"tiered read" * 300_000
        client.write_file(
            "/r", data=payload,
            rep_vector=ReplicationVector.of(memory=1, hdd=1),
        )
        loc = fs.client().get_file_block_locations("/r")[0]
        mem_host = next(
            host
            for host, medium in zip(loc.hosts, loc.media)
            if "memory" in medium
        )
        reader_name = next(n for n in sorted(fs.workers) if n != mem_host)
        reader_node = fs.cluster.node(reader_name)
        # Eq. 12 puts the memory replica first for this reader.
        ordered = fs.master.get_block_replicas("/r", reader_node)[0]
        assert ordered[0].tier_name == "MEMORY"
        assert ordered[0].node.name == mem_host

        stream = fs.client(on=reader_name).open("/r")
        proc = fs.engine.process(stream.read_proc())

        def killer():
            yield fs.engine.timeout(0.0005)
            fs.faults.crash(mem_host)

        fs.engine.process(killer())
        data = fs.engine.run(proc)
        assert data == payload
        assert stream.bytes_read == len(payload)


class TestRestartReconcile:
    def test_restart_reconciles_without_duplicate_replicas(self, fs, client):
        payload = b"reconcile" * 400_000
        client.write_file(
            "/rc", data=payload, rep_vector=ReplicationVector.of(hdd=2)
        )
        loc = fs.client().get_file_block_locations("/rc")[0]
        victim = loc.hosts[0]
        fs.faults.crash(victim)
        fs.await_replication()  # repaired on the survivors
        fs.faults.restart(victim)
        # The node returns with its old HDD replica; a full rebuild from
        # block reports must reconcile, not double-count it.
        fs.master.rebuild_from_block_reports(fs.workers.values())
        for meta in fs.master.block_map.values():
            media = [r.medium.medium_id for r in meta.replicas]
            assert len(media) == len(set(media))
        fs.await_replication()  # trims the surplus back to hdd=2
        check_system_invariants(fs)
        assert fs.client(on=victim).read_file("/rc") == payload

    def test_restart_drops_volatile_replicas(self, fs, client):
        client.write_file(
            "/mem", size=4 * MB,
            rep_vector=ReplicationVector.of(memory=1, hdd=1),
        )
        loc = fs.client().get_file_block_locations("/mem")[0]
        mem_host = next(
            host
            for host, medium in zip(loc.hosts, loc.media)
            if "memory" in medium
        )
        fs.faults.crash(mem_host)
        fs.faults.restart(mem_host)
        # Memory did not survive the reboot.
        survivors = {
            r.medium.medium_id
            for r in fs.workers[mem_host].block_report()
        }
        assert all("memory" not in m for m in survivors)
        fs.await_replication()  # re-creates the memory replica somewhere
        check_system_invariants(fs)


class TestSilenceFaults:
    def test_silence_preserves_volatile_replicas(self, fs, client):
        """A partitioned node keeps its memory replicas; a crashed one
        loses them — the injector distinguishes the two."""
        client.write_file(
            "/part", size=4 * MB,
            rep_vector=ReplicationVector.of(memory=1, hdd=1),
        )
        loc = fs.client().get_file_block_locations("/part")[0]
        mem_host = next(
            host
            for host, medium in zip(loc.hosts, loc.media)
            if "memory" in medium
        )
        fs.faults.silence(mem_host)
        record = fs.master.workers[mem_host]
        fs.master.heartbeat_expiry = 5.0
        record.last_heartbeat = -10.0  # silence has lasted past expiry
        fs.master.check_worker_liveness()
        assert record.silent and not record.dead
        # The outage re-replicates the memory copy elsewhere...
        fs.await_replication()
        check_system_invariants(fs)
        # ...then the partition heals and the surplus is trimmed away.
        fs.faults.unsilence(mem_host)
        assert record.reachable
        fs.await_replication()
        check_system_invariants(fs)
        assert [r.kind for r in fs.faults.trace] == ["silence", "unsilence"]

    def test_silence_cuts_inflight_transfers(self, fs, client):
        stream = client.create("/cut", rep_vector=ReplicationVector.of(hdd=2))

        def writer():
            yield from stream.write_size_proc(8 * MB)
            yield from stream.close_proc()

        proc = fs.engine.process(writer())

        def partitioner():
            yield fs.engine.timeout(0.01)
            for medium in fs.cluster.live_media():
                if (
                    medium.write_channel.active_count
                    and medium.node.name != "worker1"
                ):
                    fs.faults.silence(medium.node.name)
                    return

        fs.engine.process(partitioner())
        fs.engine.run(proc)
        assert fs.master.namespace.get_file("/cut").length == 8 * MB


class TestPerformanceFaults:
    def _timed_read(self, fs, path: str) -> float:
        start = fs.engine.now
        fs.client(on="worker2").open(path).read_size()
        return fs.engine.now - start

    def test_degraded_medium_slows_reads(self, fs, client):
        client.write_file(
            "/slow", size=4 * MB, rep_vector=ReplicationVector.of(hdd=1)
        )
        loc = fs.client().get_file_block_locations("/slow")[0]
        baseline = self._timed_read(fs, "/slow")
        fs.faults.degrade_medium(loc.media[0], 0.05)
        degraded = self._timed_read(fs, "/slow")
        assert degraded > baseline * 2
        fs.faults.repair_medium(loc.media[0])
        assert self._timed_read(fs, "/slow") == pytest.approx(baseline)

    def test_slow_node_caps_transfer_rate(self, fs, client):
        client.write_file(
            "/nic", size=4 * MB, rep_vector=ReplicationVector.of(memory=1)
        )
        loc = fs.client().get_file_block_locations("/nic")[0]
        reader = next(n for n in sorted(fs.workers) if n != loc.hosts[0])
        start = fs.engine.now
        fs.client(on=reader).open("/nic").read_size()
        baseline = fs.engine.now - start
        fs.faults.slow_node(loc.hosts[0], 0.1)
        start = fs.engine.now
        fs.client(on=reader).open("/nic").read_size()
        slowed = fs.engine.now - start
        assert slowed > baseline * 5
        fs.faults.restore_node(loc.hosts[0])
        start = fs.engine.now
        fs.client(on=reader).open("/nic").read_size()
        assert fs.engine.now - start == pytest.approx(baseline)


def _run_scripted_scenario(seed: int):
    """One full crash → corrupt → degrade → restart → silence → heal
    scenario under the background services; returns (trace, layout)."""
    schedule = (
        FaultSchedule()
        .crash(at=2.0, node="worker2")
        .corrupt(at=4.0, path="/det/a")
        .degrade_medium(at=5.0, medium="worker1:hdd2", factor=0.5)
        .restart(at=12.0, node="worker2")
        .silence(at=15.0, node="worker3")
        .unsilence(at=24.0, node="worker3")
        .degrade_medium(at=26.0, medium="worker1:hdd2", factor=1.0)
    )
    fs = OctopusFileSystem(small_cluster_spec(seed=seed), faults=schedule)
    client = fs.client(on="worker1")
    vectors = [
        ReplicationVector.of(hdd=2),
        ReplicationVector.of(ssd=1, hdd=1),
        ReplicationVector.of(memory=1, hdd=2),
    ]
    for name, vector in zip("abc", vectors):
        client.write_file(f"/det/{name}", size=4 * MB, rep_vector=vector)
    fs.master.heartbeat_expiry = 6.0
    fs.start_services(heartbeat_interval=2.0, replication_interval=3.0)
    fs.engine.run(until=40.0)
    fs.stop_services()
    fs.await_replication()
    check_system_invariants(fs)
    return fs.faults.trace_lines(), block_map_fingerprint(fs)


class TestDeterminism:
    def test_scenario_reproduces_trace_and_block_map(self):
        """Acceptance: a fixed scenario is bit-for-bit reproducible —
        identical fault trace AND identical final replica layout across
        two independent systems."""
        trace1, layout1 = _run_scripted_scenario(seed=7)
        trace2, layout2 = _run_scripted_scenario(seed=7)
        assert trace1 == trace2
        assert layout1 == layout2
        kinds = [line.split()[1] for line in trace1]
        assert kinds == [
            "crash",
            "corrupt",
            "degrade_medium",
            "restart",
            "silence",
            "unsilence",
            "degrade_medium",
        ]


#: One applicable fault of every kind: a schedule event (``at`` counted
#: from the start of the run) and the same fault through its primitive.
ONE_OF_EACH = {
    "crash": (
        FaultEvent(1.0, "crash", "worker2"),
        lambda f: f.crash("worker2"),
    ),
    "restart": (
        FaultEvent(1.0, "restart", "worker2"),
        lambda f: f.restart("worker2"),
    ),
    "silence": (
        FaultEvent(1.0, "silence", "worker2"),
        lambda f: f.silence("worker2"),
    ),
    "unsilence": (
        FaultEvent(1.0, "unsilence", "worker2"),
        lambda f: f.unsilence("worker2"),
    ),
    "fail_medium": (
        FaultEvent(1.0, "fail_medium", "worker1:hdd2"),
        lambda f: f.fail_medium("worker1:hdd2"),
    ),
    "repair_medium": (
        FaultEvent(1.0, "repair_medium", "worker1:hdd2"),
        lambda f: f.repair_medium("worker1:hdd2"),
    ),
    "degrade_medium": (
        FaultEvent(1.0, "degrade_medium", "worker1:hdd2", factor=0.5),
        lambda f: f.degrade_medium("worker1:hdd2", 0.5),
    ),
    "slow_node": (
        FaultEvent(1.0, "slow_node", "worker2", factor=0.5),
        lambda f: f.slow_node("worker2", 0.5),
    ),
    "restore_node": (
        FaultEvent(1.0, "restore_node", "worker2"),
        lambda f: f.restore_node("worker2"),
    ),
    "corrupt": (
        FaultEvent(1.0, "corrupt", "/f"),
        lambda f: f.corrupt_block("/f"),
    ),
}


class TestOneFaultPath:
    """Every fault goes through the injector's primitives, whichever
    entry point drives it, and every applied fault is observed."""

    @staticmethod
    def _observed_run(kind: str, scheduled: bool):
        fs = OctopusFileSystem(small_cluster_spec())
        fs.client(on="worker1").write_file(
            "/f", size=4 * MB, rep_vector=ReplicationVector.of(hdd=2)
        )
        fs.obs.enable()
        recorder = FlightRecorder(fs).attach()
        ledger = ProvenanceLedger(fs.obs).attach()
        start = fs.engine.now
        event, primitive = ONE_OF_EACH[kind]
        if scheduled:
            shifted = replace(event, at=start + event.at)
            fs.faults.run_schedule(FaultSchedule([shifted]))
            fs.engine.run(until=start + 2.0)
        else:
            fs.engine.run(until=start + event.at)
            primitive(fs.faults)
        return fs, recorder, ledger

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_schedule_and_primitive_apply_the_same_fault(self, kind):
        traces = []
        for scheduled in (True, False):
            fs, recorder, ledger = self._observed_run(kind, scheduled)
            traces.append(fs.faults.trace_lines())
            (line,) = traces[-1]
            assert line.split()[1] == kind
            events = [
                r for r in fs.obs.tracer.records
                if r["kind"] == "event" and r["name"] == f"fault.{kind}"
            ]
            assert len(events) == 1
            counter = fs.obs.metrics.counter("faults_injected_total", kind=kind)
            assert counter.value == 1
            assert [f["kind"] for f in recorder.faults] == [kind]
            assert f"fault.{kind}" in [c["kind"] for c in ledger.recent_context()]
        assert traces[0] == traces[1]


#: What the system and cluster layers used to define besides the injector.
MOVED_INTO_THE_INJECTOR = (
    "fail_worker", "recover_worker", "silence_worker", "unsilence_worker",
    "fail_medium", "repair_medium", "degrade_medium", "slow_worker",
    "restore_worker_speed", "_cancel_flows_on",
    "fail_node", "recover_node", "silence_node", "unsilence_node",
    "cap_node_rate",
)


def test_faults_are_applied_only_by_the_injector():
    for owner in (OctopusFileSystem, Cluster):
        assert not [n for n in MOVED_INTO_THE_INJECTOR if hasattr(owner, n)]
    package = Path(repro.__file__).parent
    defined = []
    for source in sorted(package.rglob("*.py")):
        if source == package / "sim" / "faults.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name in MOVED_INTO_THE_INJECTOR
            ):
                defined.append(f"{source.relative_to(package)}:{node.name}")
    assert defined == []
