"""Applying edit records: what a standby, a replay and checkpoint + tail
rebuild, and what applying one record costs.

The oracle is differential: Hypothesis scripts run against a real file
system — failing calls and a non-superuser included — and the standby
image, a full replay and checkpoint + tail must each checkpoint exactly
like the live namespace (mtimes included) and, once a master rebuilds
block locations over them, carry the same usage counters at every
directory. The error table pins the type and message of every failure
the one-walk resolution routes through, as they were when each op
walked the tree two to four times. The work counts pin what a record
costs.
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.errors import (
    FileAlreadyExistsError,
    FileNotFoundInNamespaceError,
    IsADirectoryInNamespaceError,
    NotADirectoryInNamespaceError,
    OctopusError,
    PathError,
    PermissionDeniedError,
    QuotaExceededError,
)
from repro.fs import checkpoint as ckpt
from repro.fs import paths
from repro.fs.backup import BackupMaster
from repro.fs.client import Client
from repro.fs.editlog import EditLog, replay
from repro.fs.master import Master
from repro.fs.namespace import Namespace, UserContext
from repro.util.units import MB

ROOT = Path(__file__).resolve().parents[1]
ALICE = UserContext("alice", frozenset({"staff"}))
RV = ReplicationVector.of(u=1)
VECTORS = (RV, ReplicationVector.of(u=2), ReplicationVector.of(hdd=1),
           ReplicationVector.of(ssd=1, hdd=1))


# ----------------------------------------------------------------------
# The differential oracle
# ----------------------------------------------------------------------
#: op -> how a client makes the call (4 MB blocks: 6 MB ends in a partial one).
CALLS = {
    "mkdir": Client.mkdir,
    "write": lambda c, path, size, overwrite: c.write_file(path, size=size, overwrite=overwrite),
    "create": lambda c, path, overwrite: c.create(path, overwrite=overwrite),
    "complete": lambda c, path: c.system.master.complete_file(path, c.user),
    "rename": Client.rename,
    "delete": Client.delete,
    "set_replication": Client.set_replication,
    "set_permission": Client.set_permission,
    "set_owner": lambda c, path, owner: c.set_owner(path, owner=owner),
    "set_quota": Client.set_quota,
}

# Eight paths, so calls often meet what earlier calls made; ``/b/c``
# does not exist until a call makes it.
path_st = st.builds(
    "{}/{}".format,
    st.sampled_from(("", "/home", "/a", "/b/c")),
    st.sampled_from(("f", "g")),
)
node_st = st.one_of(path_st, st.sampled_from(("/", "/home", "/a", "/b/c")))
size_st = st.sampled_from((0, MB, 6 * MB))
step_st = st.tuples(st.sampled_from(("root", "alice")), st.one_of(
    st.tuples(st.just("mkdir"), path_st),
    st.tuples(st.just("write"), path_st, size_st, st.booleans()),
    st.tuples(st.just("create"), path_st, st.booleans()),
    st.tuples(st.just("complete"), path_st),
    st.tuples(st.just("rename"), node_st, path_st),
    st.tuples(st.just("delete"), node_st, st.booleans()),
    st.tuples(st.just("set_replication"), path_st, st.sampled_from(VECTORS)),
    st.tuples(st.just("set_permission"), node_st, st.sampled_from((0o755, 0o700, 0o555))),
    st.tuples(st.just("set_owner"), node_st, st.sampled_from(("alice", "bob"))),
    st.tuples(st.just("set_quota"), node_st, st.sampled_from((None, 2, 4)),
              st.sampled_from(({}, {"SSD": 4 * MB}))),
))


def _usage(namespace):
    """``(subtree_inodes, subtree_tier_bytes)`` of every directory, after
    checking each against a recount of the subtree under it."""
    usage = {}

    def visit(directory, path):
        inodes, tier_bytes = 1, Counter()
        for name, child in directory.children.items():
            if child.is_directory:
                child_inodes, child_bytes = visit(child, f"{path}/{name}")
            else:
                child_inodes, child_bytes = 1, Counter(child.tier_bytes)
            inodes += child_inodes
            tier_bytes += child_bytes
        usage[path or "/"] = (directory.subtree_inodes, directory.subtree_tier_bytes)
        assert usage[path or "/"] == (inodes, dict(tier_bytes)), path or "/"
        return inodes, tier_bytes

    visit(namespace.root, "")
    return usage


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Moves up and down the tree with bytes charged, a rename refused by its
# target out of a directory over its lowered quota, and a checkpoint
# and a standby taken of that directory after truncation.
@example(
    script=[
        ("root", ("write", "/f", MB, False)),
        ("root", ("rename", "/f", "/home/g")),
        ("root", ("mkdir", "/b/c")),
        ("root", ("rename", "/home/g", "/b/c/f")),
        ("root", ("set_quota", "/a", 2, {})),
        ("root", ("set_quota", "/b/c", 2, {})),
        ("root", ("rename", "/a/f", "/b/c/g")),
        ("root", ("rename", "/b/c/f", "/a/f")),
    ],
    attach_at=6,
    checkpoint_at=5,
)
@given(
    script=st.lists(step_st, min_size=8, max_size=24),
    attach_at=st.integers(0, 24),
    checkpoint_at=st.integers(0, 24),
)
def test_every_recovery_rebuilds_the_live_namespace(script, attach_at, checkpoint_at):
    fs = OctopusFileSystem(small_cluster_spec())
    clients = {
        "root": fs.client(on="worker1"),
        "alice": fs.client(on="worker2", user=ALICE),
    }
    # Something for the script to meet: alice's home, full and partial
    # blocks, files of both users.
    clients["root"].mkdir("/home")
    clients["root"].set_owner("/home", owner="alice")
    clients["alice"].write_file("/home/f", size=MB)
    clients["root"].write_file("/a/f", size=4 * MB)
    clients["root"].write_file("/a/g", size=6 * MB)
    log = fs.master.edit_log
    backup = snapshot = None
    for index in range(len(script) + 1):
        if index == min(checkpoint_at, len(script)):
            # Checkpoint, then truncate the covered log, as a standby's
            # checkpoint invites; the full replay keeps the covered part.
            snapshot = ckpt.write_checkpoint(fs.master.namespace, log.last_txid)
            covered = log.records
            log.truncate_through(log.last_txid)
        if index == min(attach_at, len(script)):
            backup = BackupMaster(fs.master)
        if index < len(script):
            user, (op, *args) = script[index]
            try:
                CALLS[op](clients[user], *args)
            except OctopusError:
                pass
            fs.engine.run(until=fs.engine.now + 1.0)
    live_namespace = fs.master.namespace
    live = ckpt.write_checkpoint(live_namespace)
    live_usage = _usage(live_namespace)
    replayed = Namespace(tier_order=live_namespace.tier_order)
    replay(covered + log.records, replayed)
    restored, _txid = ckpt.load_checkpoint(snapshot)
    replay(log.records, restored)
    for label, namespace in (
        ("standby image", backup.image),
        ("full replay", replayed),
        ("checkpoint + tail", restored),
    ):
        assert ckpt.write_checkpoint(namespace) == live, label
        master = Master(fs.cluster, name=label)
        master.adopt_namespace(namespace)
        master.rebuild_from_block_reports(fs.workers.values())
        assert _usage(namespace) == live_usage, label


# ----------------------------------------------------------------------
# Errors the one walk routes through, unchanged from the several walks
# ----------------------------------------------------------------------
def _tree():
    ns = Namespace()
    ns.mkdir("/d")
    ns.create_file("/f", RV, MB)
    ns.mkdir("/private", mode=0o700)
    ns.mkdir("/home")
    ns.set_owner("/home", owner="alice")
    ns.create_file("/home/h", RV, MB)
    ns.mkdir("/q")
    ns.set_quota("/q", namespace_quota=1)
    ns.mkdir("/c")
    ns.set_quota("/c", tier_space_quota={"MEMORY": 4 * MB})
    for path in ("/c/full", "/hot"):
        ns.charge_tier_space(ns.create_file(path, RV, MB)[0], "MEMORY", 4 * MB)
    return ns


X_PRIVATE = "user 'alice' lacks 'x'-class permission 1 on '/private' (mode 0o700)"
W_ROOT = "user 'alice' lacks 'w'-class permission 2 on '/' (mode 0o755)"
W_D = "user 'alice' lacks 'w'-class permission 2 on '/d' (mode 0o755)"
QUOTA_Q = "namespace quota of '/q' exceeded: quota=1, would use 2"

#: (op, args, kwargs, as alice?, error type, message).
ERRORS = [
    ("mkdir", ("/f/x",), {}, False, NotADirectoryInNamespaceError, "'/f' is not a directory"),
    ("mkdir", ("/f/x/y",), {}, False, NotADirectoryInNamespaceError, "'/f' is not a directory"),
    ("mkdir", ("/f",), {}, False, FileAlreadyExistsError, "file exists at '/f'"),
    ("mkdir", ("/m/x",), {"create_parents": False}, False, FileNotFoundInNamespaceError, "parent does not exist: '/m'"),
    ("mkdir", ("/m/x/y",), {"create_parents": False}, False, FileNotFoundInNamespaceError, "parent does not exist: '/m/x'"),
    ("mkdir", ("/private/x",), {}, True, PermissionDeniedError, X_PRIVATE),
    ("mkdir", ("/d/x",), {}, True, PermissionDeniedError, W_D),
    ("mkdir", ("/home/a/b",), {"mode": 0o555}, True, PermissionDeniedError,
     "user 'alice' lacks 'w'-class permission 2 on '/home/a' (mode 0o555)"),
    ("mkdir", ("/q/x",), {}, False, QuotaExceededError, QUOTA_Q),
    ("create_file", ("/f/x", RV, MB), {}, False, NotADirectoryInNamespaceError, "'/f' is not a directory"),
    ("create_file", ("/d", RV, MB), {}, False, FileAlreadyExistsError, "directory exists at '/d'"),
    ("create_file", ("/f", RV, MB), {}, False, FileAlreadyExistsError, "file exists at '/f'"),
    ("create_file", ("/", RV, MB), {}, False, FileAlreadyExistsError, "directory exists at '/'"),
    ("create_file", ("/d/x", RV, MB), {}, True, PermissionDeniedError, W_D),
    ("create_file", ("/private/x", RV, MB), {}, True, PermissionDeniedError, X_PRIVATE),
    ("create_file", ("/d/x", ReplicationVector(), MB), {}, False, PathError,
     "file '/d/x' needs at least one replica, got <0,0,0,0,0>"),
    ("create_file", ("/q/x", RV, MB), {}, False, QuotaExceededError, QUOTA_Q),
    ("create_file", ("/f", RV, MB), {"overwrite": True}, True, PermissionDeniedError, W_ROOT),
    ("complete_file", ("/nope",), {}, False, FileNotFoundInNamespaceError, "no such path: '/nope'"),
    ("complete_file", ("/m/x",), {}, False, FileNotFoundInNamespaceError, "no such path: '/m'"),
    ("complete_file", ("/d",), {}, False, IsADirectoryInNamespaceError, "'/d' is a directory"),
    ("complete_file", ("/private/x",), {}, True, PermissionDeniedError, X_PRIVATE),
    ("rename", ("/f", "/d"), {}, False, FileAlreadyExistsError, "rename target exists: '/d'"),
    ("rename", ("/f", "/m/x"), {}, False, FileNotFoundInNamespaceError, "rename target parent missing: '/m'"),
    ("rename", ("/f", "/f/x"), {}, False, PathError, "cannot rename '/f' under itself ('/f/x')"),
    ("rename", ("/d", "/f/x"), {}, False, NotADirectoryInNamespaceError, "'/f' is not a directory"),
    ("rename", ("/nope", "/x"), {}, False, FileNotFoundInNamespaceError, "no such path: '/nope'"),
    ("rename", ("/", "/x"), {}, False, PathError, "cannot rename the root"),
    ("rename", ("/f", "/"), {}, False, FileAlreadyExistsError, "rename target exists: '/'"),
    ("rename", ("/f", "/private/x"), {}, True, PermissionDeniedError, X_PRIVATE),
    ("rename", ("/f", "/home/x"), {}, True, PermissionDeniedError, W_ROOT),
    ("rename", ("/home/h", "/d/x"), {}, True, PermissionDeniedError, W_D),
    ("rename", ("/home/h", "/home/m/x"), {}, True, FileNotFoundInNamespaceError,
     "rename target parent missing: '/home/m'"),
    ("rename", ("/d", "/q/x"), {}, False, QuotaExceededError, QUOTA_Q),
    ("delete", ("/m/x",), {}, False, FileNotFoundInNamespaceError, "no such path: '/m'"),
    ("delete", ("/f/x",), {}, False, NotADirectoryInNamespaceError, "'/f' is not a directory"),
    ("rename", ("/hot", "/c/hot"), {}, False, QuotaExceededError,
     "MEMORY space quota of '/c' exceeded: quota=4194304, used=4194304, requested=4194304"),
]


@pytest.mark.parametrize("op, args, kwargs, as_alice, error, message", ERRORS)
def test_error_type_and_message(op, args, kwargs, as_alice, error, message):
    ns = _tree()
    before = ckpt.write_checkpoint(ns)
    if as_alice:
        kwargs = {**kwargs, "user": ALICE}
    with pytest.raises(error) as raised:
        getattr(ns, op)(*args, **kwargs)
    assert type(raised.value) is error and str(raised.value) == message
    if op != "mkdir":  # mkdir -p keeps the parents it made before failing
        assert ckpt.write_checkpoint(ns) == before


# ----------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------
#: Path walks a replayed record may make.
WALKS = {"mkdir": 1, "create_file": 1, "complete_file": 1, "delete": 1, "rename": 2}


def _journal():
    log = EditLog()
    ns = Namespace()
    ns.add_listener(log.append)
    ns.mkdir("/a/b")
    for i in range(3):
        ns.create_file(f"/a/b/f{i}", RV, MB)
        ns.complete_file(f"/a/b/f{i}")
    ns.rename("/a/b/f0", "/a/g0")
    ns.rename("/a/b", "/c")
    ns.create_file("/c/f1", RV, MB, overwrite=True)
    ns.delete("/a/g0")
    ns.mkdir("/c/d")
    ns.delete("/c", recursive=True)
    return log.records


def test_a_replayed_record_walks_its_path_once_and_a_rename_twice(monkeypatch):
    records = _journal()
    assert set(WALKS) == {r["op"] for r in records}
    replay(records, Namespace())  # warms the path caches, as the live ops did
    split = paths.split
    walks = []
    monkeypatch.setattr(paths, "split", lambda path: walks.append(path) or split(path))
    namespace = Namespace()
    for record in records:
        before = len(walks)
        replay([record], namespace)
        assert len(walks) - before <= WALKS[record["op"]], record


def test_a_namespace_nobody_listens_to_encodes_no_vector(monkeypatch):
    encoded = []
    encode = ReplicationVector.encode
    monkeypatch.setattr(
        ReplicationVector, "encode",
        lambda self, *order: encoded.append(self) or encode(self, *order),
    )
    ns = Namespace()
    ns.create_file("/f", RV, MB)
    ns.set_replication_vector("/f", VECTORS[3])
    assert encoded == []
    records = []
    ns.add_listener(records.append)
    ns.create_file("/g", RV, MB)
    ns.set_replication_vector("/g", VECTORS[3])
    assert encoded == [RV, VECTORS[3]]
    assert [r["rep_vector"] for r in records] == [1, (1 << 24) | (1 << 16)]


def test_decoding_shares_one_vector_per_encoding_and_order():
    order = ("MEMORY", "SSD", "HDD", "REMOTE")
    encoded = ReplicationVector.of(memory=1, hdd=2).encode(order)
    vector = ReplicationVector.decode(encoded, order)
    assert vector is ReplicationVector.decode(encoded, order)
    assert vector is ReplicationVector.decode(encoded, list(order))
    assert vector == ReplicationVector.of(memory=1, hdd=2)
    assert ReplicationVector.decode(encoded, order[::-1]) == ReplicationVector.of(ssd=2, remote=1)


def test_meta_churn_journals_the_records_it_always_did():
    """The primary's records for ``meta_churn`` at the tiny preset, seed
    0, hashed — building records only where someone listens changed none."""
    script = (
        "import hashlib, json, sys\n"
        "sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1] + '/benchmarks/e2e']\n"
        "from workloads import WORKLOADS\n"
        "workload = WORKLOADS['meta_churn'](0, 'tiny')\n"
        "workload.setup()\n"
        "workload.run()\n"
        "records = workload.fs.master.edit_log.records\n"
        "print(len(records), hashlib.sha256(json.dumps(records).encode()).hexdigest())\n"
        "workload.close()\n"
    )
    # A subprocess: benchmarks/e2e's modules stay off this process's path.
    done = subprocess.run(
        [sys.executable, "-c", script, str(ROOT)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "2424", "e922afd5bc52a29fc6fc8aadd51e15ed62c2b807ae578c0d60ac4f142139b1bd",
    ]
