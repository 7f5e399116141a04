"""Whole-system invariants under randomized workloads.

Hypothesis generates random operation sequences (writes with varied
vectors, deletes, vector changes, worker failures/recoveries) against a
live file system and then checks global invariants that must hold no
matter the sequence: space accounting consistency, replica uniqueness,
vector satisfaction after convergence, and read integrity. The checks
themselves live in :mod:`repro.fs.invariants`, shared with the scripted
fault scenarios and the chaos convergence suite.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import OctopusFileSystem, ReplicationVector
from repro.cluster import small_cluster_spec
from repro.errors import OctopusError
from repro.fs.invariants import check_system_invariants
from repro.util.units import MB

VECTORS = (
    ReplicationVector.of(u=1),
    ReplicationVector.of(u=3),
    ReplicationVector.of(hdd=2),
    ReplicationVector.of(memory=1, hdd=1),
    ReplicationVector.of(ssd=1, u=1),
)

op_st = st.one_of(
    st.tuples(
        st.just("write"),
        st.integers(min_value=0, max_value=5),  # file id
        st.integers(min_value=1, max_value=10),  # size in MB
        st.integers(min_value=0, max_value=len(VECTORS) - 1),
    ),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=5)),
    st.tuples(
        st.just("setrep"),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=len(VECTORS) - 1),
    ),
    st.tuples(st.just("fail"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("recover"), st.integers(min_value=1, max_value=4)),
)


def apply_ops(fs, client, ops):
    failed: set[str] = set()
    for op in ops:
        try:
            if op[0] == "write":
                _kind, fid, size_mb, vec = op
                client.write_file(
                    f"/inv/f{fid}",
                    size=size_mb * MB,
                    rep_vector=VECTORS[vec],
                    overwrite=True,
                )
            elif op[0] == "delete":
                client.delete(f"/inv/f{op[1]}")
            elif op[0] == "setrep":
                client.set_replication(f"/inv/f{op[1]}", VECTORS[op[2]])
            elif op[0] == "fail":
                name = f"worker{op[1]}"
                if name not in failed and len(failed) < 2:
                    fs.faults.crash(name)
                    failed.add(name)
            elif op[0] == "recover":
                name = f"worker{op[1]}"
                if name in failed:
                    fs.faults.restart(name)
                    failed.discard(name)
        except OctopusError:
            pass  # illegal op for current state; invariants still hold
    return failed


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(op_st, min_size=1, max_size=15))
def test_invariants_hold_after_any_sequence(ops):
    fs = OctopusFileSystem(small_cluster_spec())
    client = fs.client(on="worker1")
    failed = apply_ops(fs, client, ops)
    # Bring everything back and let replication converge.
    for name in list(failed):
        fs.faults.restart(name)
    fs.await_replication()

    # Accounting, uniqueness, per-tier vector satisfaction (balanced,
    # which is stronger than the old >= check), and full readability.
    check_system_invariants(fs, via="worker2")


@settings(max_examples=15, deadline=None)
@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=12), min_size=1, max_size=6
    )
)
def test_delete_everything_returns_cluster_to_empty(sizes):
    fs = OctopusFileSystem(small_cluster_spec())
    client = fs.client(on="worker1")
    for index, size_mb in enumerate(sizes):
        client.write_file(f"/tmp/f{index}", size=size_mb * MB)
    client.delete("/tmp", recursive=True)
    assert fs.master.block_map == {}
    assert all(m.used == 0 and m.reserved == 0 for m in fs.cluster.live_media())
    for worker in fs.workers.values():
        assert worker.block_report() == []
