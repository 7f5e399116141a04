"""The metric catalog (``repro.obs.catalog``): a trace record carries its
metrics.

Pinned here:

* **one copy** — no module outside ``repro.obs`` mints a metric the
  catalog derives, and the metrics that stay at a feed site are the
  ones no record describes (``ast`` over ``src/repro``);
* **today's instruments** — an entry mints an instrument only where the
  feed site used to: a zero-byte flow counts its completion but no
  bytes, an allocation refusal is a failed allocation and no failed
  block write, a read's failovers come from its ``attempts``;
* **the observers' feeds** — a ``fault.<kind>`` event reaches the flight
  recorder and the ledger, a ``worker.dead`` event the ledger.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.errors import InsufficientStorageError, RetrievalError
from repro.obs import FlightRecorder, ProvenanceLedger, Tracer, catalog
from repro.util.units import MB

SRC = Path(repro.__file__).parent

#: The registry factories: a call of one mints an instrument.
FACTORIES = ("counter", "gauge", "histogram", "timeseries")

#: What stays at a feed site outside ``repro.obs``: no span or event
#: records these facts.
KEPT = {
    "heartbeats_total",
    "workers_reachable",
    "replication_passes_total",
    "repairs_scheduled_total",
    "replication_pending",
    "flows_started_total",
    "flows_active",
    "resource_utilization",
    "placement_replicas_total",
    "replication_bytes_total",
    "tier_policy_cached_files",
}


def minted(tree) -> set[str]:
    """The metric names ``tree`` hands a registry factory."""
    return {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in FACTORIES
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def derived_metrics() -> dict[str, set[str]]:
    """Every metric the catalog derives, with the records it comes from
    (a family as ``fault.<kind>``)."""
    tree = ast.parse(Path(catalog.__file__).read_text())
    entries = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    derived: dict[str, set[str]] = {}
    for table in (catalog.SPANS, catalog.EVENTS):
        for key, entry in table.items():
            name = key[0] if isinstance(key, tuple) else key
            source = name + "<kind>" if name.endswith(".") else name
            # A top-level entry names its metrics; one a factory made
            # (``_count``, ``_liveness``) holds its metric in a closure.
            metrics = (
                minted(entries[entry.__name__])
                if entry.__name__ in entries
                else {c.cell_contents for c in entry.__closure__}
            )
            for metric in metrics:
                derived.setdefault(metric, set()).add(source)
    return derived


def outside_obs():
    for path in sorted(SRC.rglob("*.py")):
        if path.parent.name != "obs":
            yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


class TestOneCopy:
    def test_catalog_derives_the_record_metrics(self):
        derived = derived_metrics()
        assert derived["blocks_read_total"] == {"client.read_block"}
        assert derived["faults_injected_total"] == {"fault.<kind>"}
        assert derived["alerts_total"] == {"slo.alert", "health.alert"}
        assert not derived.keys() & KEPT
        assert len(derived) == 30

    def test_no_module_outside_obs_mints_a_derived_metric(self):
        derived = derived_metrics().keys()
        offenders = [
            f"{module}: {name}"
            for module, tree in outside_obs()
            for name in sorted(minted(tree) & derived)
        ]
        assert not offenders, "\n".join(offenders)

    def test_what_stays_at_a_feed_site_is_what_no_record_describes(self):
        kept = {name for _, tree in outside_obs() for name in minted(tree)}
        assert kept == KEPT

    def test_no_observer_feed_outside_obs(self):
        calls = [
            module
            for module, tree in outside_obs()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("on_fault", "on_liveness")
        ]
        assert calls == []


@pytest.fixture
def fs():
    system = OctopusFileSystem(small_cluster_spec(seed=3))
    system.obs.enable()
    return system


def value(obs, kind, name):
    instrument = obs.metrics.find(kind, name)
    return None if instrument is None else instrument.value


class TestTodaysInstruments:
    def test_zero_byte_flow_counts_completion_but_no_bytes(self, fs):
        fs.cluster.flows.start_flow(0, [], label="empty")
        assert value(fs.obs, "counter", "flows_completed_total") == 1
        assert value(fs.obs, "counter", "flow_bytes_total") is None

    def test_allocation_refusal_is_no_failed_block_write(
        self, fs, monkeypatch
    ):
        def refuse(cluster, request):
            raise InsufficientStorageError("no room")

        monkeypatch.setattr(
            fs.master.placement_policy, "choose_targets", refuse
        )
        with pytest.raises(InsufficientStorageError):
            fs.client(on="worker1").write_file("/refused", size=MB)
        (write,) = [
            r for r in fs.obs.tracer.records
            if r["name"] == "client.write_block"
        ]
        assert write["status"] == "error" and "block" not in write["attrs"]
        assert value(fs.obs, "counter", "allocations_failed_total") == 1
        assert value(fs.obs, "counter", "block_writes_failed_total") is None

    def test_read_failovers_come_from_attempts(self, fs):
        client = fs.client(on="worker1")
        vector = ReplicationVector.from_replication_factor(3)
        master = fs.master

        def corrupt(path, spare):
            """Silent corruption a reader finds: every replica of
            ``path`` in the client's read order but the last ``spare``."""
            client.write_file(path, size=MB, rep_vector=vector)
            inode = master.namespace.get_file(path)
            (block,) = inode.blocks
            (ordered,) = master.order_block_replicas(inode, path, client.node)
            for replica in ordered[: len(ordered) - spare]:
                master.workers[replica.node.name].worker.corrupt_replica(
                    block.block_id, replica.medium.medium_id
                )

        corrupt("/served", spare=1)
        client.open("/served").read_size()
        assert value(fs.obs, "counter", "read_failovers_total") == 2
        assert value(fs.obs, "counter", "blocks_read_total") == 1
        corrupt("/lost", spare=0)
        with pytest.raises(RetrievalError):
            client.open("/lost").read_size()
        assert value(fs.obs, "counter", "read_failovers_total") == 5
        assert value(fs.obs, "counter", "block_reads_failed_total") == 1


class TestObserverFeeds:
    def test_fault_event_feeds_recorder_and_ledger(self, fs):
        recorder = FlightRecorder(fs).attach()
        ledger = ProvenanceLedger(fs.obs).attach()
        fs.faults.crash("worker2")
        assert recorder.open_incident["triggers"][0]["detail"] == (
            "crash worker2"
        )
        # The crash declares its node dead before it records the fault.
        assert [(c["kind"], c["target"]) for c in ledger.recent_context()] == [
            ("worker.dead", "worker2"), ("fault.crash", "worker2"),
        ]
        assert value(fs.obs, "counter", "workers_declared_dead_total") == 1

    def test_bare_tracer_derives_into_its_own_registry(self):
        tracer = Tracer()
        tracer.event("fault.crash", target="w1", detail="")
        tracer.event("worker.dead", worker="w1")
        assert len(tracer.metrics) == 2
        assert tracer.metrics.counter(
            "faults_injected_total", kind="crash"
        ).value == 1
        assert tracer.metrics.counter("workers_declared_dead_total").value == 1
