"""Election edge cases: safety of the max-n.lst rule, concurrent rounds,
epoch monotonicity, repeated failovers."""

import pytest

from repro.core import Role, SpinnakerCluster, SpinnakerConfig
from repro.sim.disk import DiskProfile
from repro.sim.process import run_process
from repro.storage.lsn import LSN


def make_cluster(n=3, seed=51, **overrides):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cluster = SpinnakerCluster(n_nodes=n, config=cfg, seed=seed)
    cluster.start()
    return cluster


def test_epoch_strictly_increases_across_failovers():
    cluster = make_cluster(n=5)
    cohort_id = 0
    epochs = []
    for _round in range(3):
        leader = cluster.leader_of(cohort_id)
        epochs.append(cluster.replica(leader, cohort_id).epoch)
        victim = leader
        cluster.kill_leader(cohort_id)
        cluster.run_until(
            lambda: cluster.leader_of(cohort_id) not in (None, victim),
            limit=30.0, what="failover")
        cluster.restart_node(victim)
        replica_v = cluster.replica(victim, cohort_id)
        cluster.run_until(
            lambda: replica_v.role in (Role.FOLLOWER, Role.LEADER),
            limit=30.0, what="victim back")
    leader = cluster.leader_of(cohort_id)
    epochs.append(cluster.replica(leader, cohort_id).epoch)
    assert epochs == sorted(set(epochs)), epochs
    assert cluster.all_failures() == []


def test_lsns_never_reused_across_epochs():
    """After each failover, new writes get LSNs above everything the
    cohort ever used (App. B's guarantee)."""
    cluster = make_cluster(n=5)
    cohort_id = 0
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 12, b"el-")
    client = cluster.client()
    seen_lsns = set()

    def write_some(lo, hi):
        def _go():
            for key in keys[lo:hi]:
                yield from client.put(key, b"c", b"v")
        run_process(cluster.sim, _go(), 60.0)

    for round_idx in range(3):
        write_some(round_idx * 4, round_idx * 4 + 4)
        leader = cluster.leader_of(cohort_id)
        wal = cluster.nodes[leader].wal
        lsns = {r.lsn for r in wal.write_records(cohort_id)}
        new = {lsn for lsn in lsns if lsn not in seen_lsns}
        assert new, "round produced no new LSNs"
        if seen_lsns:
            assert all(lsn > max(seen_lsns) for lsn in new)
        seen_lsns |= lsns
        if round_idx < 2:
            victim = leader
            cluster.kill_leader(cohort_id)
            cluster.run_until(
                lambda: cluster.leader_of(cohort_id) not in (None, victim),
                limit=30.0, what="failover")
            cluster.restart_node(victim)
            replica_v = cluster.replica(victim, cohort_id)
            cluster.run_until(
                lambda: replica_v.role in (Role.FOLLOWER, Role.LEADER),
                limit=30.0, what="victim back")


def test_simultaneous_double_failover_on_disjoint_cohorts():
    """Two leaders of disjoint cohorts die at once; both cohorts still
    have majorities and recover independently."""
    cluster = make_cluster(n=6)
    # With 6 nodes, cohorts 0 = {n0,n1,n2} and 3 = {n3,n4,n5} are
    # disjoint; each keeps 2 of 3 members after losing its leader.
    l0 = cluster.leader_of(0)
    l3 = cluster.leader_of(3)
    assert not (set(cluster.partitioner.cohort(0).members)
                & set(cluster.partitioner.cohort(3).members))
    cluster.kill_leader(0)
    cluster.kill_leader(3)
    cluster.run_until(
        lambda: cluster.leader_of(0) is not None
        and cluster.leader_of(3) is not None,
        limit=40.0, what="double failover")
    assert cluster.leader_of(0) != l0
    assert cluster.leader_of(3) != l3
    assert cluster.all_failures() == []


def test_winner_must_hold_every_committed_write():
    """Safety (§7.2): after any single-failure failover, the new leader's
    log contains every write the old leader acknowledged."""
    cluster = make_cluster(n=5)
    cohort_id = 0
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 10, b"el-")
    client = cluster.client()
    acked = []

    def write_all():
        for i, key in enumerate(keys):
            yield from client.put(key, b"c", b"v%d" % i)
            acked.append(key)

    run_process(cluster.sim, write_all(), 60.0)
    old = cluster.kill_leader(cohort_id)
    cluster.run_until(
        lambda: cluster.leader_of(cohort_id) not in (None, old),
        limit=30.0, what="failover")
    new_leader = cluster.leader_of(cohort_id)
    wal = cluster.nodes[new_leader].wal
    engine = cluster.replica(new_leader, cohort_id).engine
    for key in acked:
        assert engine.get(key, b"c") is not None, key


def test_cluster_of_four_uses_majority_two_of_three():
    """Cohorts are always 3-node groups regardless of cluster size, so
    majorities stay 2 and a single failure never blocks a cohort."""
    cluster = make_cluster(n=4)
    for cohort in cluster.partitioner.cohorts:
        assert len(cohort.members) == 3
    cohort_id = 0
    cluster.kill_leader(cohort_id)
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=30.0, what="failover")
    assert cluster.leader_of(cohort_id) is not None


def test_follower_restart_does_not_trigger_election():
    cluster = make_cluster(n=5)
    cohort_id = 0
    leader = cluster.leader_of(cohort_id)
    epoch_before = cluster.replica(leader, cohort_id).epoch
    follower = next(m for m in
                    cluster.partitioner.cohort(cohort_id).members
                    if m != leader)
    cluster.crash_node(follower)
    cluster.run(4.0)  # session expires; leader stays up
    cluster.restart_node(follower)
    replica_f = cluster.replica(follower, cohort_id)
    cluster.run_until(lambda: replica_f.role == Role.FOLLOWER,
                      limit=30.0, what="rejoin")
    assert cluster.leader_of(cohort_id) == leader
    assert cluster.replica(leader, cohort_id).epoch == epoch_before
