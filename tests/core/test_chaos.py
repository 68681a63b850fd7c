"""Randomized failure injection: the §8.1 guarantees, adversarially.

A writer streams acknowledged writes into one cohort while a chaos
process crashes and restarts cohort members (including leaders, with and
without fast failure detection).  Invariants checked after the storm:

* **durability** — every write the client saw acknowledged is readable
  with its final value (a crash-restart storm must never lose committed
  data while no media is lost);
* **availability** — the cohort is writable again once a majority is up;
* **integrity** — no handler process died of an unexpected exception.

Three storms run with different seeds; the schedule keeps a majority
alive most of the time but deliberately includes windows with two nodes
down (writes stall, nothing may be lost).
"""

import pytest

from repro.core import (DatastoreError, Role, SpinnakerCluster,
                        SpinnakerConfig)
from repro.sim.disk import DiskProfile
from repro.sim.process import run_process, spawn, timeout


def make_cluster(seed):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.3, client_op_timeout=6.0)
    cluster = SpinnakerCluster(n_nodes=5, config=cfg, seed=seed)
    cluster.start()
    return cluster


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_no_acknowledged_write_lost_in_failure_storm(seed):
    cluster = make_cluster(seed)
    sim = cluster.sim
    rng = cluster.rng.stream("chaos")
    cohort_id = 0
    members = list(cluster.partitioner.cohort(cohort_id).members)
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 400, b"chaos-")
    client = cluster.client()
    acknowledged = {}
    state = {"writer_done": False}

    def writer():
        for i, key in enumerate(keys):
            if sim.now > 36.0:
                break
            value = b"v%d" % i
            try:
                yield from client.put(key, b"c", value)
            except DatastoreError:
                continue  # timed out: no durability promise was made
            acknowledged[key] = value
        state["writer_done"] = True

    def chaos():
        down = []
        while sim.now < 30.0:
            yield timeout(sim, 0.8 + rng.random() * 1.5)
            action = rng.random()
            if down and (action < 0.45 or len(down) >= 2):
                name = down.pop(rng.randrange(len(down)))
                cluster.restart_node(name)
                continue
            victims = [m for m in members if m not in down]
            if not victims:
                continue
            name = rng.choice(victims)
            node = cluster.nodes[name]
            session = node.zk.session if node.zk else None
            # Usually skip detection (fast elections); sometimes pay the
            # full session timeout.
            cluster.crash_node(name, skip_detection=(
                session is not None and rng.random() < 0.7))
            down.append(name)
        for name in down:
            cluster.restart_node(name)

    spawn(sim, writer(), name="chaos-writer")
    spawn(sim, chaos(), name="chaos-injector")
    cluster.run_until(lambda: state["writer_done"] or sim.now > 40.0,
                      limit=120.0, what="writer finished")
    # Heal everything and let recovery settle.
    for name in members:
        if not cluster.nodes[name].alive:
            cluster.restart_node(name)
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=60.0, what="post-storm leader")
    cluster.run(2.0)

    assert len(acknowledged) > 50, "storm starved the writer entirely"

    def read_back():
        results = {}
        for key, value in acknowledged.items():
            got = yield from client.get(key, b"c", consistent=True)
            results[key] = (got.found, got.value, value)
        return results

    results = run_process(sim, read_back(), 300.0, what="post-storm reads")
    lost = {k: r for k, r in results.items()
            if not r[0] or r[1] != r[2]}
    assert not lost, f"acknowledged writes lost: {sorted(lost)[:5]}"
    assert cluster.all_failures() == []


def test_writes_resume_after_every_member_cycled():
    """Roll through the whole cohort, one crash at a time."""
    cluster = make_cluster(seed=77)
    cohort_id = 1
    members = list(cluster.partitioner.cohort(cohort_id).members)
    keys = cluster.partitioner.keys_in_cohort(cohort_id, len(members) + 1,
                                              b"chaos-")
    client = cluster.client()

    def put_one(key):
        def _go():
            yield from client.put(key, b"c", b"alive")
        run_process(cluster.sim, _go(), 60.0)

    put_one(keys[0])
    for i, name in enumerate(members):
        cluster.crash_node(name, skip_detection=True)
        cluster.run_until(
            lambda: cluster.leader_of(cohort_id) is not None
            and cluster.leader_of(cohort_id) != name,
            limit=60.0, what="leader without victim")
        put_one(keys[i + 1])
        cluster.restart_node(name)
        replica = cluster.replica(name, cohort_id)
        cluster.run_until(
            lambda: replica.role in (Role.FOLLOWER, Role.LEADER),
            limit=60.0, what="victim rejoined")
    assert cluster.all_failures() == []
