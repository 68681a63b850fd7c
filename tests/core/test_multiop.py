"""Tests for multi-operation transactions (§8.2 extension)."""

import pytest

from repro.core import (DatastoreError, SpinnakerCluster, SpinnakerConfig,
                        Transaction, VersionMismatch)
from repro.sim.disk import DiskProfile
from repro.sim.process import run_process, spawn


@pytest.fixture
def cluster():
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    cl = SpinnakerCluster(n_nodes=5, config=cfg, seed=13)
    cl.start()
    yield cl
    assert cl.all_failures() == []


def test_multi_row_transaction_commits_atomically(cluster):
    client = cluster.client()
    k1, k2 = cluster.partitioner.keys_in_cohort(0, 2, b"tx-")

    def scenario():
        txn = Transaction(client)
        txn.put(k1, b"balance", b"90")
        txn.put(k2, b"balance", b"110")
        yield from txn.commit()
        a = yield from client.get(k1, b"balance", consistent=True)
        b = yield from client.get(k2, b"balance", consistent=True)
        return a, b

    a, b = run_process(cluster.sim, scenario(), 60.0)
    assert a.value == b"90" and b.value == b"110"


def test_transaction_conditional_abort_leaves_no_effects(cluster):
    client = cluster.client()
    k1, k2 = cluster.partitioner.keys_in_cohort(1, 2, b"tx-")

    def scenario():
        yield from client.put(k1, b"c", b"old")   # version 1
        txn = Transaction(client)
        txn.put(k2, b"c", b"side-effect")
        txn.conditional_put(k1, b"c", b"new", version=99)  # stale
        try:
            yield from txn.commit()
        except VersionMismatch:
            pass
        else:
            raise AssertionError("stale conditional committed")
        untouched = yield from client.get(k2, b"c", consistent=True)
        original = yield from client.get(k1, b"c", consistent=True)
        return untouched, original

    untouched, original = run_process(cluster.sim, scenario(), 60.0)
    assert not untouched.found          # nothing leaked
    assert original.value == b"old"


def test_cross_cohort_transaction_rejected_client_side(cluster):
    client = cluster.client()
    k_a = cluster.partitioner.keys_in_cohort(0, 1, b"tx-")[0]
    k_b = cluster.partitioner.keys_in_cohort(2, 1, b"tx-")[0]
    txn = Transaction(client)
    txn.put(k_a, b"c", b"x")
    with pytest.raises(DatastoreError):
        txn.put(k_b, b"c", b"y")


def test_empty_and_double_commit_rejected(cluster):
    client = cluster.client()
    k = cluster.partitioner.keys_in_cohort(0, 1, b"tx-")[0]
    empty = Transaction(client)
    with pytest.raises(DatastoreError):
        # Generators raise on first resume; drive it.
        list(empty.commit())

    def scenario():
        txn = Transaction(client)
        txn.put(k, b"c", b"v")
        yield from txn.commit()
        return txn

    txn = run_process(cluster.sim, scenario(), 60.0)
    with pytest.raises(DatastoreError):
        txn.put(k, b"c", b"again")


def test_transaction_versions_advance_per_column(cluster):
    client = cluster.client()
    k = cluster.partitioner.keys_in_cohort(0, 1, b"tx-")[0]

    def scenario():
        txn = Transaction(client)
        txn.put(k, b"c", b"v1")
        txn.put(k, b"c", b"v2")   # same column twice: versions 1 then 2
        yield from txn.commit()
        return (yield from client.get(k, b"c", consistent=True))

    got = run_process(cluster.sim, scenario(), 60.0)
    assert got.value == b"v2"
    assert got.version == 2


def test_transaction_survives_leader_failover(cluster):
    client = cluster.client()
    keys = cluster.partitioner.keys_in_cohort(0, 4, b"tx-")

    def write_txn():
        txn = Transaction(client)
        for i, key in enumerate(keys):
            txn.put(key, b"c", b"t%d" % i)
        yield from txn.commit()

    run_process(cluster.sim, write_txn(), 60.0)
    cluster.kill_leader(0)
    cluster.run_until(lambda: cluster.leader_of(0) is not None,
                      limit=30.0, what="re-election")

    def read_all():
        out = []
        for key in keys:
            out.append((yield from client.get(key, b"c",
                                              consistent=True)))
        return out

    results = run_process(cluster.sim, read_all(), 60.0)
    # All or nothing: the committed transaction is fully visible.
    assert all(r.found for r in results)


def test_atomic_force_no_partial_batch_after_crash(cluster):
    """Crash every node right after the transaction is proposed; on
    recovery either the whole batch is present or none of it."""
    client = cluster.client()
    keys = cluster.partitioner.keys_in_cohort(0, 3, b"tx-")

    def write_txn():
        txn = Transaction(client)
        for i, key in enumerate(keys):
            txn.put(key, b"c", b"t%d" % i)
        yield from txn.commit()

    proc = spawn(cluster.sim, write_txn())
    cluster.run(0.0015)  # propose in flight, forces likely incomplete
    for name in list(cluster.nodes):
        cluster.crash_node(name)
    cluster.run(3.0)
    for name in list(cluster.nodes):
        cluster.restart_node(name)
    cluster.run_until(cluster.is_ready, limit=60.0, what="recovered")

    def read_all():
        out = []
        for key in keys:
            out.append((yield from client.get(key, b"c",
                                              consistent=True)))
        return out

    results = run_process(cluster.sim, read_all(), 60.0)
    presence = {r.found for r in results}
    assert len(presence) == 1, "partial transaction visible after crash"
