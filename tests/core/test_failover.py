"""Failure and recovery tests: leader failover, follower catch-up,
availability guarantees (§6, §7, §8.1)."""

import pytest

from repro.core import (RequestTimeout, Role, SpinnakerCluster,
                        SpinnakerConfig)
from repro.sim.disk import DiskProfile
from repro.sim.process import run_process


def fast_config(**overrides):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def make_cluster(n=5, **overrides):
    cluster = SpinnakerCluster(n_nodes=n, config=fast_config(**overrides),
                               seed=7)
    cluster.start()
    return cluster


def test_leader_failover_preserves_committed_writes():
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 0
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 15, b"k-")

    def write_all():
        for i, key in enumerate(keys):
            yield from client.put(key, b"c", b"v%d" % i)

    run_process(cluster.sim, write_all(), 60.0)
    old_leader = cluster.kill_leader(cohort_id)
    assert old_leader is not None
    cluster.run_until(
        lambda: cluster.leader_of(cohort_id) not in (None, old_leader),
        limit=30.0, what="new leader")
    new_leader = cluster.leader_of(cohort_id)
    assert new_leader != old_leader

    def read_all():
        out = []
        for key in keys:
            out.append((yield from client.get(key, b"c", consistent=True)))
        return out

    results = run_process(cluster.sim, read_all(), 60.0)
    assert all(r.found for r in results)
    assert [r.value for r in results] == [b"v%d" % i
                                          for i in range(len(keys))]
    assert cluster.all_failures() == []


def test_writes_resume_after_failover():
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 1
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 10, b"k-")

    def before():
        for key in keys[:5]:
            yield from client.put(key, b"c", b"before")

    run_process(cluster.sim, before(), 60.0)
    cluster.kill_leader(cohort_id)
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=30.0, what="new leader")

    def after():
        for key in keys[5:]:
            yield from client.put(key, b"c", b"after")
        return (yield from client.get(keys[7], b"c", consistent=True))

    got = run_process(cluster.sim, after(), 60.0)
    assert got.value == b"after"
    assert cluster.all_failures() == []


def test_failover_with_detection_timeout():
    """Without skipping detection, the session timeout (2 s) is paid."""
    cluster = make_cluster()
    cohort_id = 0
    t0 = cluster.sim.now
    cluster.kill_leader(cohort_id, skip_detection=False)
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=40.0, what="new leader")
    elapsed = cluster.sim.now - t0
    assert elapsed >= 1.0  # dominated by the 2s session timeout
    assert cluster.all_failures() == []


@pytest.mark.parametrize("lose_disk", [False, True])
@pytest.mark.parametrize("skip_detection", [False, True])
def test_crash_node_skip_detection_expires_the_session(skip_detection,
                                                       lose_disk):
    """Regression: fast detection used to look the session up after the
    crash had already dropped it, so nothing was ever expired."""
    cluster = make_cluster()
    session = cluster.nodes["node1"].zk.session
    assert cluster.coord.session_is_alive(session)
    cluster.crash_node("node1", skip_detection=skip_detection,
                       lose_disk=lose_disk)
    assert cluster.coord.session_is_alive(session) is not skip_detection


def test_new_leader_has_max_lst():
    """§7.2: the candidate with the max n.lst must win."""
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 0
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 8, b"k-")

    def write_all():
        for key in keys:
            yield from client.put(key, b"c", b"v")

    run_process(cluster.sim, write_all(), 60.0)
    old_leader = cluster.kill_leader(cohort_id)
    members = cluster.partitioner.cohort(cohort_id).members
    survivors = [m for m in members if m != old_leader]
    lsts = {m: cluster.nodes[m].n_lst(cohort_id) for m in survivors}
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=30.0, what="new leader")
    winner = cluster.leader_of(cohort_id)
    assert lsts[winner] == max(lsts.values())


def test_follower_restart_catches_up():
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 2
    members = cluster.partitioner.cohort(cohort_id).members
    leader = cluster.leader_of(cohort_id)
    follower = next(m for m in members if m != leader)
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 12, b"k-")

    def phase(lo, hi):
        def _go():
            for key in keys[lo:hi]:
                yield from client.put(key, b"c", b"v")
        return _go()

    run_process(cluster.sim, phase(0, 4), 60.0)
    cluster.crash_node(follower)
    run_process(cluster.sim, phase(4, 10), 60.0)  # quorum of 2 still commits
    cluster.restart_node(follower)
    replica = cluster.replica(follower, cohort_id)
    cluster.run_until(lambda: replica.role == Role.FOLLOWER, limit=30.0,
                      what="follower recovered")
    # After a commit period, the follower's engine holds everything.
    cluster.run(2.0)
    for key in keys[:10]:
        cell = replica.engine.get(key, b"c")
        assert cell is not None and cell.value == b"v", key
    assert cluster.all_failures() == []


def test_two_nodes_down_blocks_writes_then_recovers():
    """§8.1: writes need a majority; 1-of-3 up means unavailable."""
    cluster = make_cluster(**{"client_op_timeout": 3.0})
    client = cluster.client()
    cohort_id = 0
    members = cluster.partitioner.cohort(cohort_id).members
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 4, b"k-")

    run_process(cluster.sim, client.put(keys[0], b"c", b"pre"), 60.0)
    # Crash two members, leaving one up.
    leader = cluster.leader_of(cohort_id)
    downs = [m for m in members if m != leader][:1] + [leader]
    for name in downs:
        cluster.crash_node(name, skip_detection=True)

    def blocked_write():
        try:
            yield from client.put(keys[1], b"c", b"during")
            return "committed"
        except RequestTimeout:
            return "timeout"

    assert run_process(cluster.sim, blocked_write(), 30.0) == "timeout"
    # Restart one: majority restored, writes flow again.
    cluster.restart_node(downs[0])
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=30.0, what="quorum back")

    def unblocked_write():
        yield from client.put(keys[2], b"c", b"post")
        return (yield from client.get(keys[2], b"c", consistent=True))

    got = run_process(cluster.sim, unblocked_write(), 60.0)
    assert got.value == b"post"


def test_timeline_reads_available_with_one_node_up():
    """§8.1: timeline reads survive with a single live replica."""
    cluster = make_cluster(**{"client_op_timeout": 5.0})
    client = cluster.client()
    cohort_id = 0
    members = cluster.partitioner.cohort(cohort_id).members
    key = cluster.partitioner.keys_in_cohort(cohort_id, 1, b"k-")[0]

    run_process(cluster.sim, client.put(key, b"c", b"v"), 60.0)
    cluster.run(1.0)  # let commit messages propagate
    survivor = members[2]
    for name in members[:2]:
        cluster.crash_node(name)

    def timeline_read():
        # May need retries until it lands on the survivor.
        return (yield from client.get(key, b"c", consistent=False))

    got = run_process(cluster.sim, timeline_read(), 30.0)
    assert got.found and got.value == b"v"
    assert cluster.nodes[survivor].alive


def test_full_cluster_restart_preserves_data():
    cluster = make_cluster()
    client = cluster.client()
    keys = [b"fk-%d" % i for i in range(20)]

    def write_all():
        for key in keys:
            yield from client.put(key, b"c", b"durable")

    run_process(cluster.sim, write_all(), 60.0)
    cluster.run(1.0)  # commit messages + markers ride down with forces
    for node in cluster.nodes.values():
        cluster.crash_node(node.name)
    cluster.run(3.0)  # sessions expire
    for node in cluster.nodes.values():
        cluster.restart_node(node.name)
    cluster.run_until(cluster.is_ready, limit=60.0, what="cluster ready")

    def read_all():
        out = []
        for key in keys:
            out.append((yield from client.get(key, b"c", consistent=True)))
        return out

    results = run_process(cluster.sim, read_all(), 60.0)
    assert all(r.found and r.value == b"durable" for r in results)
    assert cluster.all_failures() == []


def test_disk_loss_recovers_via_catchup():
    """§6.1: a follower that lost all data goes straight to catch-up."""
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 0
    members = cluster.partitioner.cohort(cohort_id).members
    leader = cluster.leader_of(cohort_id)
    victim = next(m for m in members if m != leader)
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 8, b"k-")

    def write_all():
        for key in keys:
            yield from client.put(key, b"c", b"v")

    run_process(cluster.sim, write_all(), 60.0)
    cluster.run(1.0)
    cluster.nodes[victim].lose_disk()
    replica = cluster.replica(victim, cohort_id)
    cluster.run_until(lambda: replica.role == Role.FOLLOWER, limit=30.0,
                      what="victim recovered")
    cluster.run(1.0)
    for key in keys:
        cell = replica.engine.get(key, b"c")
        assert cell is not None and cell.value == b"v"


def test_partitioned_leader_blocks_writes_until_heal():
    """CAP: Spinnaker is CA — a partitioned cohort stalls writes rather
    than diverging (§1.2, §8.3)."""
    cluster = make_cluster(**{"client_op_timeout": 3.0})
    client = cluster.client()
    cohort_id = 0
    members = cluster.partitioner.cohort(cohort_id).members
    leader = cluster.leader_of(cohort_id)
    followers = [m for m in members if m != leader]
    key = cluster.partitioner.keys_in_cohort(cohort_id, 1, b"k-")[0]

    for f in followers:
        cluster.network.block(leader, f)

    def stalled():
        try:
            yield from client.put(key, b"c", b"x")
            return "committed"
        except RequestTimeout:
            return "timeout"

    assert run_process(cluster.sim, stalled(), 30.0) == "timeout"
    cluster.network.heal()

    def resumed():
        yield from client.put(key, b"c", b"y")
        return (yield from client.get(key, b"c", consistent=True))

    got = run_process(cluster.sim, resumed(), 30.0)
    assert got.value == b"y"
