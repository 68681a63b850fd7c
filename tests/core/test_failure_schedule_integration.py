"""FailureSchedule driving a real cluster: scripted outage timelines."""

import pytest

from repro.core import Role, SpinnakerCluster, SpinnakerConfig
from repro.sim.disk import DiskProfile
from repro.sim.failure import FailureSchedule
from repro.sim.process import run_process, spawn, timeout


def make_cluster(seed=67):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2, client_op_timeout=8.0)
    cluster = SpinnakerCluster(n_nodes=5, config=cfg, seed=seed)
    cluster.start()
    return cluster


def test_scheduled_rolling_outage_with_continuous_writes():
    cluster = make_cluster()
    sim = cluster.sim
    sched = FailureSchedule(sim)
    cohort_id = 0
    members = cluster.partitioner.cohort(cohort_id).members
    # Roll each member down for 2 s, staggered 4 s apart.
    for i, member in enumerate(members):
        at = sim.now + 1.0 + 4.0 * i
        sched.crash_for(at, duration=2.0, target=cluster.nodes[member])

    client = cluster.client()
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 60, b"fs-")
    acked = []
    state = {"done": False}

    def writer():
        from repro.core.datamodel import DatastoreError
        for key in keys:
            try:
                yield from client.put(key, b"c", b"v")
                acked.append(key)
            except DatastoreError:
                pass
            yield timeout(sim, 0.2)
        state["done"] = True

    spawn(sim, writer())
    cluster.run_until(lambda: state["done"], limit=240.0, what="writer")
    cluster.run(3.0)
    # The schedule ran as written.
    assert len(sched.log) == 6
    assert {label.split()[0] for _t, label in sched.log} == {
        "crash", "restart"}
    # Single-node outages never block the cohort for long: the vast
    # majority of paced writes were acknowledged...
    assert len(acked) >= len(keys) - 10
    # ...and every acknowledged write is durable.

    def read_back():
        out = []
        for key in acked:
            out.append((yield from client.get(key, b"c",
                                              consistent=True)))
        return out

    assert all(r.found for r in run_process(sim, read_back(), 120.0))
    assert cluster.all_failures() == []


def test_scheduled_partition_heals_cleanly():
    cluster = make_cluster(seed=68)
    sim = cluster.sim
    sched = FailureSchedule(sim)
    cohort_id = 1
    leader = cluster.leader_of(cohort_id)
    followers = [m for m in cluster.partitioner.cohort(cohort_id).members
                 if m != leader]
    for f in followers:
        sched.partition_at(sim.now + 0.5, cluster.network, leader, f)
    sched.heal_at(sim.now + 2.5, cluster.network)

    client = cluster.client()
    key = cluster.partitioner.keys_in_cohort(cohort_id, 1, b"fp-")[0]
    outcome = {}

    def scenario():
        from repro.core.datamodel import RequestTimeout
        yield timeout(sim, 1.0)  # inside the partition window
        start = sim.now
        yield from client.put(key, b"c", b"v")  # must wait for the heal
        outcome["write_done_at"] = sim.now
        outcome["blocked_for"] = sim.now - start

    run_process(sim, scenario(), 60.0)
    # The write could not commit before the heal at t=2.5.
    assert outcome["write_done_at"] >= 2.5
    assert cluster.all_failures() == []


def test_scheduled_disk_loss_rejoins_via_catchup():
    """lose_disk_at wipes a follower's log and SSTables; the node must
    come back through catch-up with all committed data intact."""
    cluster = make_cluster(seed=69)
    sim = cluster.sim
    client = cluster.client()
    cohort_id = 0
    leader = cluster.leader_of(cohort_id)
    victim = next(m for m in cluster.partitioner.cohort(cohort_id).members
                  if m != leader)
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 30, b"dl-")
    state = {"done": False}

    def writer():
        for key in keys:
            yield from client.put(key, b"c", b"v-" + key)
            yield timeout(sim, 0.1)
        state["done"] = True

    sched = FailureSchedule(sim)
    sched.lose_disk_at(1.3, cluster.nodes[victim])
    spawn(sim, writer())
    cluster.run_until(lambda: state["done"], limit=120.0, what="writer")
    cluster.run(8.0)  # let catch-up finish

    assert [label for _t, label in sched.log] == [f"lose-disk {victim}"]
    node = cluster.nodes[victim]
    assert node.alive
    replica = node.replicas[cohort_id]
    assert replica.role in (Role.FOLLOWER, Role.LEADER)
    # The wiped node holds every committed write again — either as
    # caught-up log records or shipped SSTables below its catch-up floor.
    for key in keys:
        cell = replica.engine.get(key, b"c")
        assert cell is not None and cell.value == b"v-" + key
    assert cluster.all_failures() == []


def test_leader_cut_off_from_coord_steps_down():
    """A leader partitioned from the coordination service loses its
    session lease and must step down before a rival wins the election —
    strong reads never go stale (§7.2)."""
    cluster = make_cluster(seed=70)
    sim = cluster.sim
    cohort_id = 0
    old_leader = cluster.leader_of(cohort_id)
    assert old_leader is not None
    cluster.network.block(old_leader, "coord")
    cluster.run_until(
        lambda: (cluster.leader_of(cohort_id) not in (None, old_leader)),
        limit=60.0, what="new leader")
    node = cluster.nodes[old_leader]
    assert node.session_losses >= 1
    replica = node.replicas[cohort_id]
    assert replica.role != Role.LEADER
    assert not replica.open_for_writes

    # Heal; the deposed node rejoins as a follower and writes flow.
    cluster.network.heal()
    client = cluster.client()
    key = cluster.partitioner.keys_in_cohort(cohort_id, 1, b"sl-")[0]
    run_process(sim, client.put(key, b"c", b"v"), 60.0)
    cluster.run(10.0)  # rejoin + catch-up settle
    assert cluster.nodes[old_leader].zk.session is not None
    assert cluster.all_failures() == []
