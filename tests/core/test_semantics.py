"""Consistency-semantics tests: the guarantees §1.3/§3 promise.

* strong reads are linearizable per key: they always return the latest
  committed version, and never observe version regress;
* timeline reads at one replica never go backwards (that is the
  "timeline" in timeline consistency [11]);
* whole-cluster determinism: identical seeds produce identical traces.
"""

import pytest

from repro.core import SpinnakerCluster, SpinnakerConfig
from repro.core.partition import key_of
from repro.sim.disk import DiskProfile
from repro.sim.process import run_process, spawn, timeout


def make_cluster(seed=71, **overrides):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.4)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=seed)
    cluster.start()
    return cluster


def test_strong_reads_see_latest_version_always():
    cluster = make_cluster()
    client = cluster.client()
    key = b"linear"
    observations = []
    done = {"writer": False}

    def writer():
        for i in range(30):
            yield from client.put(key, b"c", b"v%d" % i)
        done["writer"] = True

    def reader():
        last_version = 0
        while not done["writer"]:
            got = yield from client.get(key, b"c", consistent=True)
            observations.append(got.version)
            assert got.version >= last_version, "strong read regressed"
            last_version = got.version
            yield timeout(cluster.sim, 0.003)

    spawn(cluster.sim, writer())
    spawn(cluster.sim, reader())
    cluster.run_until(lambda: done["writer"], limit=120.0, what="writer")
    cluster.run(0.5)
    assert observations == sorted(observations)
    assert observations[-1] >= 25  # reader kept up with the writer


def test_timeline_reads_never_go_backwards_per_replica():
    cluster = make_cluster()
    client = cluster.client()
    key = b"timeline"
    cohort = cluster.partitioner.cohort_for_key(key_of(key))
    done = {"writer": False}
    per_replica = {m: [] for m in cohort.members}

    def writer():
        for i in range(25):
            yield from client.put(key, b"c", b"v%d" % i)
            yield timeout(cluster.sim, 0.02)
        done["writer"] = True

    def sampler():
        while not done["writer"]:
            for member in cohort.members:
                node = cluster.nodes[member]
                replica = node.replicas[cohort.cohort_id]
                cell = replica.engine.get(key, b"c")
                per_replica[member].append(
                    cell.version if cell is not None else 0)
            yield timeout(cluster.sim, 0.01)

    spawn(cluster.sim, writer())
    spawn(cluster.sim, sampler())
    cluster.run_until(lambda: done["writer"], limit=120.0, what="writer")
    for member, versions in per_replica.items():
        assert versions == sorted(versions), (
            f"{member} observed version regress: not a timeline")
    # Followers do lag (that's the trade-off)...
    leader = cluster.leader_of(cohort.cohort_id)
    follower = next(m for m in cohort.members if m != leader)
    assert max(per_replica[leader]) >= max(per_replica[follower])


def test_followers_lag_by_at_most_one_commit_period():
    cluster = make_cluster(commit_period=0.3)
    client = cluster.client()
    key = b"lagged"
    cohort = cluster.partitioner.cohort_for_key(key_of(key))

    def write_one():
        yield from client.put(key, b"c", b"fresh")

    run_process(cluster.sim, write_one(), 30.0)
    t_commit = cluster.sim.now
    followers = [m for m in cohort.members
                 if m != cluster.leader_of(cohort.cohort_id)]
    seen_at = {}
    while len(seen_at) < len(followers):
        assert cluster.sim.now - t_commit < 1.0, "staleness exceeded bound"
        for member in followers:
            if member in seen_at:
                continue
            cell = cluster.nodes[member].replicas[
                cohort.cohort_id].engine.get(key, b"c")
            if cell is not None:
                seen_at[member] = cluster.sim.now - t_commit
        cluster.run(0.01)
    assert all(lag <= 0.35 + 0.05 for lag in seen_at.values()), seen_at


def run_scripted_cluster(seed):
    """A fixed scenario; returns a trace fingerprint."""
    cluster = make_cluster(seed=seed)
    client = cluster.client()
    log = []

    def script():
        for i in range(10):
            result = yield from client.put(b"det-%d" % i, b"c",
                                           b"v%d" % i)
            log.append((round(cluster.sim.now, 9), result.version))
        got = yield from client.get(b"det-3", b"c", consistent=True)
        log.append((round(cluster.sim.now, 9), got.value))

    run_process(cluster.sim, script(), 60.0)
    cluster.kill_leader(0)
    cluster.run_until(lambda: cluster.leader_of(0) is not None,
                      limit=30.0, what="failover")
    log.append(("leader", cluster.leader_of(0),
                round(cluster.sim.now, 9)))
    return log


def test_same_seed_same_trace():
    assert run_scripted_cluster(99) == run_scripted_cluster(99)


def test_different_seed_different_timing():
    a = run_scripted_cluster(99)
    b = run_scripted_cluster(100)
    # Same logical results, different timings.
    assert [x[1] for x in a[:10]] == [x[1] for x in b[:10]]
    assert a != b
