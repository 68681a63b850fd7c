"""Tests for client routing, retries, and error mapping (repro.core.api)."""

import pytest

from repro.core import (RequestTimeout, SpinnakerCluster, SpinnakerConfig,
                        VersionMismatch)
from repro.core.partition import key_of
from repro.sim.disk import DiskProfile
from repro.sim.process import run_process


def make_cluster(**overrides):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cluster = SpinnakerCluster(n_nodes=5, config=cfg, seed=31)
    cluster.start()
    return cluster


def test_leader_cache_learns_from_redirects():
    cluster = make_cluster()
    client = cluster.client()
    key = b"route-me"
    cohort = cluster.partitioner.cohort_for_key(key_of(key))
    # Poison the cache with a follower.
    leader = cluster.leader_of(cohort.cohort_id)
    wrong = next(m for m in cohort.members if m != leader)
    client._leader_cache[cohort.cohort_id] = wrong

    def scenario():
        yield from client.put(key, b"c", b"v")

    run_process(cluster.sim, scenario(), 60.0)
    assert client._leader_cache[cohort.cohort_id] == leader
    assert client.retries >= 1


def test_strong_read_follows_hint_not_blind_cycling():
    cluster = make_cluster()
    client = cluster.client()
    key = b"hint-key"
    cohort = cluster.partitioner.cohort_for_key(key_of(key))
    leader = cluster.leader_of(cohort.cohort_id)
    followers = [m for m in cohort.members if m != leader]
    client._leader_cache[cohort.cohort_id] = followers[0]

    def scenario():
        yield from client.put(key, b"c", b"v")
        return (yield from client.get(key, b"c", consistent=True))

    got = run_process(cluster.sim, scenario(), 60.0)
    assert got.value == b"v"


def test_timeline_reads_are_spread_across_replicas():
    cluster = make_cluster()
    client = cluster.client()
    key = b"spread"
    cohort = cluster.partitioner.cohort_for_key(key_of(key))

    def scenario():
        yield from client.put(key, b"c", b"v")
        # Let commit messages reach followers.
        return True

    run_process(cluster.sim, scenario(), 60.0)
    cluster.run(1.0)
    served_before = {m: sum(r.reads_served for r in
                            cluster.nodes[m].replicas.values())
                     for m in cohort.members}

    def read_many():
        for _ in range(60):
            yield from client.get(key, b"c", consistent=False)

    run_process(cluster.sim, read_many(), 60.0)
    served = {m: sum(r.reads_served for r in
                     cluster.nodes[m].replicas.values())
              - served_before[m] for m in cohort.members}
    assert all(count > 0 for count in served.values()), served


def test_request_timeout_when_whole_cohort_down():
    cluster = make_cluster(client_op_timeout=2.0)
    client = cluster.client()
    key = b"doomed"
    cohort = cluster.partitioner.cohort_for_key(key_of(key))
    for member in cohort.members:
        cluster.crash_node(member)

    def scenario():
        try:
            yield from client.put(key, b"c", b"v")
            return "ok"
        except RequestTimeout:
            return "timeout"

    assert run_process(cluster.sim, scenario(), 30.0) == "timeout"


def test_version_mismatch_not_retried():
    cluster = make_cluster()
    client = cluster.client()

    def scenario():
        yield from client.put(b"vm", b"c", b"v1")
        retries_before = client.retries
        try:
            yield from client.conditional_put(b"vm", b"c", b"v2", 42)
        except VersionMismatch:
            pass
        return client.retries - retries_before

    # a logical error, not transient
    assert run_process(cluster.sim, scenario(), 60.0) == 0


def test_multi_column_conditional_put_all_or_nothing():
    cluster = make_cluster()
    client = cluster.client()

    def scenario():
        yield from client.put_columns(b"row", {b"a": b"1", b"b": b"2"})
        try:
            yield from client.conditional_put_columns(
                b"row", {b"a": b"10", b"b": b"20"},
                {b"a": 1, b"b": 99})      # second guard is stale
        except VersionMismatch:
            pass
        return (yield from client.get_row(b"row", [b"a", b"b"],
                                          consistent=True))

    row = run_process(cluster.sim, scenario(), 60.0)
    assert row[b"a"].value == b"1" and row[b"b"].value == b"2"


def test_not_leader_without_hint_rotates_members():
    """A not-leader reply with no hint (the follower itself does not know
    the leader yet) must rotate to the next member instead of re-asking
    the same node until the deadline burns out."""
    cluster = make_cluster()
    client = cluster.client()
    key = b"hintless"
    cohort = cluster.partitioner.cohort_for_key(key_of(key))
    leader = cluster.leader_of(cohort.cohort_id)
    follower = next(m for m in cohort.members if m != leader)
    # The follower forgets who leads: its redirects carry hint=None.
    cluster.nodes[follower].replicas[cohort.cohort_id].leader = None
    client._leader_cache[cohort.cohort_id] = follower

    def scenario():
        yield from client.put(key, b"c", b"v")
        return (yield from client.get(key, b"c", consistent=True))

    got = run_process(cluster.sim, scenario(), 60.0)
    assert got.value == b"v"
    assert client.retries >= 1
    assert client._leader_cache[cohort.cohort_id] == leader


def test_timeline_target_excludes_timed_out_replicas():
    """Satellite fix: retry target selection must not re-pick members
    that just timed out (while still falling back to the full list if
    everything is excluded)."""
    cluster = make_cluster()
    client = cluster.client()
    cohort = cluster.partitioner.cohort(0)
    dead = set(cohort.members[:2])
    for _ in range(50):
        assert client._timeline_target(cohort, exclude=dead) \
            == cohort.members[2]
    # A single name (the just-timed-out target) works too.
    for _ in range(50):
        assert client._timeline_target(
            cohort, exclude=cohort.members[0]) != cohort.members[0]
    # Excluding everybody falls back to the full member list.
    assert client._timeline_target(
        cohort, exclude=set(cohort.members)) in cohort.members


def test_timeline_read_avoids_crashed_replica_on_retry():
    """Integration: with one member down, a timeline read that first
    times out on the corpse must finish well inside the op deadline."""
    cluster = make_cluster(client_op_timeout=6.0)
    client = cluster.client()
    key = b"corpse-dodge"
    cohort = cluster.partitioner.cohort_for_key(key_of(key))

    run_process(cluster.sim, client.put(key, b"c", b"v"), 60.0)
    cluster.run(1.0)    # let commit info reach followers
    cluster.crash_node(cohort.members[0])

    def read_many():
        out = []
        for _ in range(20):
            got = yield from client.get(key, b"c", consistent=False)
            out.append(got.value)
        return out

    values = run_process(cluster.sim, read_many(), 120.0)
    assert values == [b"v"] * 20


def test_cold_cache_strong_read_seeds_from_map_leader_hint():
    """Satellite fix: a fresh client's first strong request goes to the
    cohort map's recorded leader, not blindly to members[0]."""
    cluster = make_cluster()
    cluster.run(1.0)
    client = cluster.client("fresh-client")
    for cohort in cluster.partitioner.cohorts:
        leader = cluster.leader_of(cohort.cohort_id)
        assert client._strong_target(cohort) == leader

    key = b"cold-start"
    retries_before = client.retries

    def scenario():
        yield from client.put(key, b"c", b"v")
        return (yield from client.get(key, b"c", consistent=True))

    got = run_process(cluster.sim, scenario(), 60.0)
    assert got.value == b"v"
    assert client.retries == retries_before   # straight to the leader


def test_ops_counted():
    cluster = make_cluster()
    client = cluster.client()

    def scenario():
        yield from client.put(b"n", b"c", b"v")
        yield from client.get(b"n", b"c", consistent=True)
        yield from client.delete(b"n", b"c")

    run_process(cluster.sim, scenario(), 60.0)
    assert client.ops_completed == 3
