"""Tests for the eventually consistent baseline store."""

import pytest

from repro.baseline import (QUORUM, WEAK, CassandraCluster,
                            CassandraConfig)
from repro.sim.disk import DiskProfile
from repro.sim.process import run_process


def fast_config(**overrides):
    cfg = CassandraConfig(log_profile=DiskProfile.ssd_log())
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def make_cluster(n=5, **overrides):
    return CassandraCluster(n_nodes=n, config=fast_config(**overrides),
                            seed=11)


def test_quorum_write_then_quorum_read():
    cluster = make_cluster()
    client = cluster.client()

    def scenario():
        yield from client.write(b"k", b"c", b"v", consistency=QUORUM)
        return (yield from client.read(b"k", b"c", consistency=QUORUM))

    got = run_process(cluster.sim, scenario(), 60.0)
    assert got.found and got.value == b"v"
    assert cluster.all_failures() == []


def test_weak_write_then_weak_read_usually_converges():
    cluster = make_cluster()
    client = cluster.client()

    def scenario():
        yield from client.write(b"k", b"c", b"v", consistency=WEAK)
        # All replicas still receive the write; give them a moment.
        return True

    run_process(cluster.sim, scenario(), 60.0)
    cluster.run(1.0)
    members = cluster.partitioner.cohort_for_key(
        __import__("repro.core.partition", fromlist=["key_of"]
                   ).key_of(b"k")).members
    gid = cluster.partitioner.cohort_for_key(
        __import__("repro.core.partition", fromlist=["key_of"]
                   ).key_of(b"k")).cohort_id
    for member in members:
        cell = cluster.nodes[member].engines[gid].get(b"k", b"c")
        assert cell is not None and cell.value == b"v"


def test_last_write_wins_on_conflict():
    cluster = make_cluster()
    client = cluster.client()

    def scenario():
        yield from client.write(b"k", b"c", b"old", consistency=QUORUM)
        yield from client.write(b"k", b"c", b"new", consistency=QUORUM)
        return (yield from client.read(b"k", b"c", consistency=QUORUM))

    got = run_process(cluster.sim, scenario(), 60.0)
    assert got.value == b"new"


def test_delete_with_tombstone():
    cluster = make_cluster()
    client = cluster.client()

    def scenario():
        yield from client.write(b"k", b"c", b"v", consistency=QUORUM)
        yield from client.delete(b"k", b"c", consistency=QUORUM)
        return (yield from client.read(b"k", b"c", consistency=QUORUM))

    got = run_process(cluster.sim, scenario(), 60.0)
    assert not got.found


def test_quorum_ops_survive_one_node_down():
    cluster = make_cluster()
    client = cluster.client()
    from repro.core.partition import key_of
    cohort = cluster.partitioner.cohort_for_key(key_of(b"k"))
    cluster.crash_node(cohort.members[0])

    def scenario():
        yield from client.write(b"k", b"c", b"v", consistency=QUORUM)
        return (yield from client.read(b"k", b"c", consistency=QUORUM))

    got = run_process(cluster.sim, scenario(), 60.0)
    assert got.found and got.value == b"v"


def test_replica_stays_stale_until_anti_entropy():
    """The consistency gap the paper describes (§9): a replica that was
    down during a quorum write stays stale after restart — there is no
    quorum-based recovery — until hinted handoff replays the write."""
    cluster = make_cluster()
    client = cluster.client()
    from repro.core.partition import key_of
    cohort = cluster.partitioner.cohort_for_key(key_of(b"k"))
    gid = cohort.cohort_id
    lagger = cohort.members[2]
    cluster.crash_node(lagger)

    def write_it():
        yield from client.write(b"k", b"c", b"v", consistency=QUORUM)

    run_process(cluster.sim, write_it(), 60.0)
    cluster.restart_node(lagger)
    # Stale right after restart: local log replay knows nothing of b"k".
    assert cluster.nodes[lagger].engines[gid].get(b"k", b"c") is None
    # Hinted handoff eventually converges it.
    cluster.run(15.0)
    cell = cluster.nodes[lagger].engines[gid].get(b"k", b"c")
    assert cell is not None and cell.value == b"v"


def test_read_repair_fixes_stale_replica():
    cluster = make_cluster()
    client = cluster.client()
    from repro.core.partition import key_of
    cohort = cluster.partitioner.cohort_for_key(key_of(b"rr"))
    gid = cohort.cohort_id
    lagger = cohort.members[2]
    for member in cohort.members[:2]:
        cluster.network.block(lagger, member)

    def write_it():
        yield from client.write(b"rr", b"c", b"v", consistency=QUORUM)

    run_process(cluster.sim, write_it(), 60.0)
    cluster.network.heal()
    # Quorum reads from the two up-to-date replicas never touch the
    # laggard; force many quorum reads from random coordinators until a
    # stale response triggers repair, or hinted handoff replays.
    def read_lots():
        for _ in range(30):
            yield from client.read(b"rr", b"c", consistency=QUORUM)

    run_process(cluster.sim, read_lots(), 60.0)
    cluster.run(15.0)  # hint replay interval
    cell = cluster.nodes[lagger].engines[gid].get(b"rr", b"c")
    assert cell is not None and cell.value == b"v"


def test_restarted_node_replays_its_local_log():
    cluster = make_cluster()
    client = cluster.client()
    from repro.core.partition import key_of
    cohort = cluster.partitioner.cohort_for_key(key_of(b"k"))
    gid = cohort.cohort_id

    def write_it():
        yield from client.write(b"k", b"c", b"v", consistency=QUORUM)

    run_process(cluster.sim, write_it(), 60.0)
    cluster.run(0.5)
    victim = cohort.members[0]
    cluster.crash_node(victim)
    cluster.run(0.5)
    cluster.restart_node(victim)
    cell = cluster.nodes[victim].engines[gid].get(b"k", b"c")
    # It replays whatever was durably logged locally before the crash.
    assert cell is not None and cell.value == b"v"


def test_unavailable_when_quorum_unreachable():
    cluster = make_cluster(client_op_timeout=3.0)
    client = cluster.client()
    from repro.core.datamodel import RequestTimeout
    from repro.core.partition import key_of
    cohort = cluster.partitioner.cohort_for_key(key_of(b"k"))
    for member in cohort.members[1:]:
        cluster.crash_node(member)

    def scenario():
        try:
            yield from client.write(b"k", b"c", b"v", consistency=QUORUM)
            return "ok"
        except RequestTimeout:
            return "timeout"

    assert run_process(cluster.sim, scenario(), 30.0) == "timeout"

    def weak_still_works():
        yield from client.write(b"k2", b"c", b"v", consistency=WEAK)
        return "ok"

    # Weak writes need only 1 ack: still available with 1 replica up.
    assert run_process(cluster.sim, weak_still_works(), 30.0) == "ok"
