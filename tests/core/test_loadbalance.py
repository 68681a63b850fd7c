"""Tests for graceful leadership transfer and rebalancing planning."""

import pytest

from repro.core import (DatastoreError, Role, SpinnakerCluster,
                        SpinnakerConfig)
from repro.core.loadbalance import plan_rebalance, transfer_leadership
from repro.core.partition import RangePartitioner
from repro.sim.disk import DiskProfile
from repro.sim.process import run_process, spawn


def make_cluster(n=5, seed=41):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    cluster = SpinnakerCluster(n_nodes=n, config=cfg, seed=seed)
    cluster.start()
    cluster.run(2.0)
    return cluster


def test_transfer_moves_leadership_without_data_loss():
    cluster = make_cluster()
    client = cluster.client()
    cohort_id = 0
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 8, b"lb-")

    def before():
        for key in keys[:4]:
            yield from client.put(key, b"c", b"pre")

    run_process(cluster.sim, before(), 60.0)
    old_leader = cluster.leader_of(cohort_id)
    replica = cluster.replica(old_leader, cohort_id)
    successor = replica.peers()[0]
    ok = run_process(cluster.sim, transfer_leadership(replica, successor),
                     60.0)
    assert ok is True
    cluster.run_until(lambda: cluster.leader_of(cohort_id) == successor,
                      limit=30.0, what="handoff")
    assert cluster.replica(successor, cohort_id).open_for_writes
    assert replica.role == Role.FOLLOWER

    def after():
        out = []
        for key in keys[:4]:
            out.append((yield from client.get(key, b"c",
                                              consistent=True)))
        for key in keys[4:]:
            yield from client.put(key, b"c", b"post")
        return out

    results = run_process(cluster.sim, after(), 60.0)
    assert all(r.found and r.value == b"pre" for r in results)
    assert cluster.all_failures() == []
    # Old leader never died: it serves as a follower now.
    assert cluster.nodes[old_leader].alive


def test_transfer_bumps_epoch():
    cluster = make_cluster()
    cohort_id = 1
    old_leader = cluster.leader_of(cohort_id)
    replica = cluster.replica(old_leader, cohort_id)
    epoch_before = replica.epoch
    successor = replica.peers()[0]
    assert run_process(cluster.sim, transfer_leadership(replica, successor),
                       60.0)
    cluster.run_until(lambda: cluster.leader_of(cohort_id) == successor,
                      limit=30.0, what="handoff")
    assert cluster.replica(successor, cohort_id).epoch > epoch_before


def test_transfer_refused_from_non_leader():
    cluster = make_cluster()
    cohort_id = 0
    leader = cluster.leader_of(cohort_id)
    follower = next(m for m in
                    cluster.partitioner.cohort(cohort_id).members
                    if m != leader)
    replica = cluster.replica(follower, cohort_id)
    assert run_process(cluster.sim, transfer_leadership(replica, leader),
                       60.0) is False


def test_transfer_refused_to_non_member():
    cluster = make_cluster()
    cohort_id = 0
    leader = cluster.leader_of(cohort_id)
    replica = cluster.replica(leader, cohort_id)
    outsider = next(n for n in cluster.nodes
                    if n not in replica.cohort.members)
    assert run_process(cluster.sim, transfer_leadership(replica, outsider),
                       60.0) is False
    assert cluster.leader_of(cohort_id) == leader


def test_transfer_to_dead_successor_fails_cleanly():
    cluster = make_cluster()
    cohort_id = 2
    leader = cluster.leader_of(cohort_id)
    replica = cluster.replica(leader, cohort_id)
    victim = replica.peers()[0]
    cluster.crash_node(victim)
    assert run_process(cluster.sim, transfer_leadership(replica, victim),
                       60.0) is False
    assert cluster.leader_of(cohort_id) == leader
    assert replica.open_for_writes


def test_leader_crash_mid_drain_degrades_to_election():
    """The old leader dies while draining its queue: the handoff aborts,
    its session expiry triggers a normal election, and every write that
    was acked to a client survives."""
    cluster = make_cluster(seed=43)
    client = cluster.client()
    cohort_id = 0
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 10, b"lb-")

    def committed():
        for key in keys[:6]:
            yield from client.put(key, b"c", b"durable")

    run_process(cluster.sim, committed(), 60.0)
    leader_name = cluster.leader_of(cohort_id)
    replica = cluster.replica(leader_name, cohort_id)
    successor = replica.peers()[0]
    # Cut the follower->leader ack paths so in-flight writes stay
    # pending: the transfer's drain loop genuinely engages instead of
    # completing trivially between scheduler steps.
    for peer in replica.peers():
        cluster.network.block(peer, leader_name, symmetric=False)
    writers = [spawn(cluster.sim, client.put(key, b"c", b"inflight"))
               for key in keys[6:]]
    cluster.run_until(lambda: len(replica.queue) > 0, limit=5.0,
                      step=0.001, what="writes pending")
    handoff = spawn(cluster.sim, transfer_leadership(replica, successor))
    cluster.run(0.05)
    assert not handoff.triggered            # still draining
    cluster.kill_leader(cohort_id)
    cluster.network.heal()
    assert run_process(cluster.sim, handoff, 30.0) is False
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=30.0, what="re-election")
    assert cluster.leader_of(cohort_id) != leader_name
    # Every acked write — committed before or retried across the crash —
    # must be readable; unacked in-flight writes may go either way.
    acked = list(keys[:6])
    cluster.run_until(lambda: all(w.triggered for w in writers),
                      limit=60.0, what="in-flight writes resolve")
    for key, writer in zip(keys[6:], writers):
        try:
            writer.result()
        except DatastoreError:
            continue
        acked.append(key)
    reader = cluster.client("client1")
    for key in acked:
        got = run_process(cluster.sim, reader.get(key, b"c", consistent=True),
                          60.0)
        assert got.found, key
    assert cluster.all_failures() == []


def test_successor_crash_after_naming_degrades_to_election():
    """The successor dies after being named in the leader znode but
    before re-owning it.  The znode still belongs to the old leader's
    session, so nothing expires on its own — the handoff watchdog must
    force an election, and no committed write may be lost."""
    cluster = make_cluster(seed=47)
    client = cluster.client()
    cohort_id = 1
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 4, b"lb-")

    def before():
        for key in keys:
            yield from client.put(key, b"c", b"durable")

    run_process(cluster.sim, before(), 60.0)
    leader_name = cluster.leader_of(cohort_id)
    replica = cluster.replica(leader_name, cohort_id)
    successor = replica.peers()[0]
    # Crash the successor at the exact sim instant the transfer
    # completes: the watch notification is still in flight, so the
    # successor never re-owns the znode.  (Advancing the clock even a
    # millisecond first would let its monitor run assume_leadership,
    # turning this into an ordinary leader crash.)
    state = {}

    def _crash_successor(_ev):
        node = cluster.nodes[successor]
        state["session"] = node.zk.session if node.zk else None
        node.crash()

    handoff = spawn(cluster.sim, transfer_leadership(replica, successor))
    handoff.add_callback(_crash_successor)
    assert run_process(cluster.sim, handoff, 30.0) is True
    if state.get("session") is not None:
        cluster.coord.expire_session_now(state["session"])
    # The leader znode still belongs to the old leader's live session,
    # so the successor's death expired nothing that names a leader.
    assert cluster.leader_of(cohort_id) is None
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=30.0, what="watchdog + re-election")
    new_leader = cluster.leader_of(cohort_id)
    assert new_leader != successor
    assert cluster.replica(new_leader, cohort_id).open_for_writes
    reader = cluster.client("client1")
    for key in keys:
        got = run_process(cluster.sim, reader.get(key, b"c", consistent=True),
                          60.0)
        assert got.found and got.value == b"durable"
    assert cluster.all_failures() == []


def test_plan_rebalance_restores_one_leader_per_node():
    part = RangePartitioner(["A", "B", "C", "D", "E"])
    # After a failure of A, B picked up A's cohort: B leads 0 and 1.
    leaders = {0: "B", 1: "B", 2: "C", 3: "D", 4: "E"}
    moves = plan_rebalance(part, leaders)
    assert len(moves) == 1
    cohort_id, src, dst = moves[0]
    assert src == "B"
    assert dst in part.cohort(cohort_id).members
    # Apply: everyone leads exactly one cohort.
    leaders[cohort_id] = dst
    counts = {}
    for leader in leaders.values():
        counts[leader] = counts.get(leader, 0) + 1
    assert all(count == 1 for count in counts.values())


def test_plan_rebalance_noop_when_balanced():
    part = RangePartitioner(["A", "B", "C", "D", "E"])
    leaders = {0: "A", 1: "B", 2: "C", 3: "D", 4: "E"}
    assert plan_rebalance(part, leaders) == []


def test_plan_rebalance_skips_leaderless_cohorts():
    part = RangePartitioner(["A", "B", "C", "D", "E"])
    leaders = {0: "B", 1: "B", 2: None, 3: "D", 4: "E"}
    moves = plan_rebalance(part, leaders)
    assert all(cid != 2 for cid, _s, _d in moves)


def test_end_to_end_rebalance_after_failover():
    """Kill a leader, let another node absorb its cohort, then rebalance
    back to one leader per live node."""
    cluster = make_cluster()
    cohort_id = 0
    victim = cluster.leader_of(cohort_id)
    cluster.kill_leader(cohort_id)
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=30.0, what="failover")
    cluster.restart_node(victim)
    replica_v = cluster.replica(victim, cohort_id)
    cluster.run_until(lambda: replica_v.role == Role.FOLLOWER,
                      limit=30.0, what="victim rejoined")
    cluster.run(1.0)
    leaders = {c.cohort_id: cluster.leader_of(c.cohort_id)
               for c in cluster.partitioner.cohorts}
    counts = {}
    for leader in leaders.values():
        counts[leader] = counts.get(leader, 0) + 1
    assert max(counts.values()) == 2  # somebody leads two cohorts
    moves = plan_rebalance(cluster.partitioner, leaders)
    assert moves
    for moved_cohort, src, dst in moves:
        replica = cluster.replica(src, moved_cohort)
        assert run_process(cluster.sim, transfer_leadership(replica, dst),
                           60.0) is True
        cluster.run_until(
            lambda: cluster.leader_of(moved_cohort) == dst,
            limit=30.0, what="rebalance handoff")
    leaders = {c.cohort_id: cluster.leader_of(c.cohort_id)
               for c in cluster.partitioner.cohorts}
    counts = {}
    for leader in leaders.values():
        counts[leader] = counts.get(leader, 0) + 1
    assert max(counts.values()) == 1
    assert cluster.all_failures() == []
