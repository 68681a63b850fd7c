"""Grand integration soak: every feature on one cluster, with failures.

An order-preserving cluster serves puts, conditional puts, multi-op
transactions, strong/timeline reads and range scans while a leader is
killed, a follower restarts, and leadership is rebalanced — then the
final state must be exactly what the acknowledged operations imply.
"""

import pytest

from repro.core import (DatastoreError, Role, SpinnakerCluster,
                        SpinnakerConfig, Transaction)
from repro.core.loadbalance import plan_rebalance, transfer_leadership
from repro.sim.disk import DiskProfile
from repro.sim.process import run_process, spawn, timeout


def test_everything_at_once():
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.3, order_preserving_keys=True,
                          client_op_timeout=8.0)
    cluster = SpinnakerCluster(n_nodes=5, config=cfg, seed=2027)
    cluster.start()
    sim = cluster.sim
    client = cluster.client()
    expected = {}          # key -> value we expect to read back
    state = {"phase": "running", "ops": 0}

    def workload():
        # Phase 1: plain puts across the keyspace (ordered prefixes).
        for b in range(0, 240, 12):
            key = bytes([b]) + b"-row"
            yield from client.put(key, b"c", b"base-%d" % b)
            expected[key] = b"base-%d" % b
            state["ops"] += 1
        # Phase 2: conditional replace on a few of them.
        for b in range(0, 240, 48):
            key = bytes([b]) + b"-row"
            current = yield from client.get(key, b"c", consistent=True)
            yield from client.conditional_put(key, b"c", b"cas",
                                              current.version)
            expected[key] = b"cas"
            state["ops"] += 1
        # Phase 3: a multi-op transaction inside one cohort.
        base = bytes([4])
        txn = Transaction(client)
        txn.put(base + b"-t1", b"c", b"txn")
        txn.put(base + b"-t2", b"c", b"txn")
        yield from txn.commit()
        expected[base + b"-t1"] = b"txn"
        expected[base + b"-t2"] = b"txn"
        state["ops"] += 1
        state["phase"] = "done"

    def chaos():
        yield timeout(sim, 0.4)
        victim = cluster.kill_leader(0)
        yield timeout(sim, 2.0)
        if victim is not None:
            cluster.restart_node(victim)

    work = spawn(sim, workload(), name="soak-workload")
    spawn(sim, chaos(), name="soak-chaos")
    run_process(sim, work, 240.0, what="workload")
    cluster.run(3.0)   # let recovery + commit messages settle

    # Rebalance leadership back to one per live node.
    leaders = {c.cohort_id: cluster.leader_of(c.cohort_id)
               for c in cluster.partitioner.cohorts}
    for cohort_id, src, dst in plan_rebalance(cluster.partitioner,
                                              leaders):
        replica = cluster.replica(src, cohort_id)
        run_process(sim, transfer_leadership(replica, dst), 30.0)
        cluster.run_until(lambda: cluster.leader_of(cohort_id) == dst,
                          limit=30.0, what="handoff")

    # Verify every expected value via strong gets...
    def verify_gets():
        out = {}
        for key, value in expected.items():
            got = yield from client.get(key, b"c", consistent=True)
            out[key] = (got.found, got.value, value)
        return out

    bad = {k: v for k, v in run_process(sim, verify_gets(), 120.0).items()
           if not v[0] or v[1] != v[2]}
    assert not bad, f"divergent keys: {sorted(bad)[:5]}"

    # ...and via one full-keyspace ordered scan.
    def scan_all():
        return (yield from client.scan(b"\x00", None, limit=500))

    rows = run_process(sim, scan_all(), 60.0)
    scanned = {key: columns[b"c"].value for key, columns in rows}
    assert scanned == expected
    assert [k for k, _ in rows] == sorted(expected)

    # Leadership is balanced, no handler ever crashed, stats consistent.
    leaders = [cluster.leader_of(c.cohort_id)
               for c in cluster.partitioner.cohorts]
    assert None not in leaders
    counts = {}
    for leader in leaders:
        counts[leader] = counts.get(leader, 0) + 1
    assert max(counts.values()) == 1
    assert cluster.all_failures() == []
    stats = cluster.stats()
    assert sum(n["writes_served"]
               for n in stats["nodes"].values()) >= state["ops"]
