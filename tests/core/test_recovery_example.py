"""The Appendix B recovery example (Fig. 10), reproduced end to end.

A 3-node cluster is seeded by hand into state S0/S1:

* writes 1.1–1.20 are committed everywhere (cmt: A=1.20, B=C=1.10 — the
  followers have not yet seen a commit message past 1.10);
* 1.21 was proposed and logged by B and C but not yet by A (proposes run
  in parallel with the leader's own force, so followers can be ahead);
* 1.22 was logged only by C.

Then: all nodes go down (S1); A and B come back (S2) — B must win the
election with lst=1.21, re-propose and commit 1.11–1.21, discard nothing
it knows of, and start epoch 2; new writes land as 2.22–2.30 (S3);
finally C returns (S4) — catch-up must logically truncate 1.22 into C's
skipped-LSN list and deliver epochs 1 and 2 up to 2.30.
"""

import pytest

from repro.core import Role, SpinnakerCluster, SpinnakerConfig
from repro.sim.disk import DiskProfile
from repro.sim.process import run_process
from repro.storage.lsn import LSN
from repro.storage.records import CommitMarker, WriteRecord

COHORT = 0


def seed_key(i):
    return b"seed-%02d" % i


@pytest.fixture
def world():
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    cluster = SpinnakerCluster(n_nodes=3, config=cfg, seed=3)
    # Do NOT start the cluster: seed logs by hand first.
    a, b, c = cluster.partitioner.cohort(COHORT).members
    seed = {
        a: (20, LSN(1, 20)),   # lst=1.20, cmt=1.20
        b: (21, LSN(1, 10)),   # lst=1.21, cmt=1.10
        c: (22, LSN(1, 10)),   # lst=1.22, cmt=1.10
    }
    for name, (last_seq, cmt) in seed.items():
        node = cluster.nodes[name]
        for seq in range(1, last_seq + 1):
            node.wal.append(WriteRecord(
                lsn=LSN(1, seq), cohort_id=COHORT, key=seed_key(seq),
                colname=b"c", value=b"v%d" % seq, version=1), force=True)
        node.wal.append(CommitMarker(lsn=cmt, cohort_id=COHORT,
                                     committed_lsn=cmt), force=False)
    cluster.run(1.0)  # let all forces land on the simulated disks
    # S1: all nodes down.  (They were never booted; take endpoints and
    # devices offline so the cluster behaves as fully crashed.)
    for name in (a, b, c):
        cluster.network.get(name).crash()
        cluster.nodes[name].device.crash()
        cluster.nodes[name].wal.crash()
    return cluster, a, b, c


def boot(cluster, *names):
    for name in names:
        cluster.nodes[name].boot()


def test_s2_b_wins_with_max_lst_and_discards_1_22(world):
    cluster, a, b, c = world
    boot(cluster, a, b)
    cluster.run_until(lambda: cluster.leader_of(COHORT) is not None,
                      limit=30.0, what="S2 leader")
    assert cluster.leader_of(COHORT) == b          # lst 1.21 > 1.20
    replica_b = cluster.replica(b, COHORT)
    replica_a = cluster.replica(a, COHORT)
    # Takeover re-proposed and committed 1.11..1.21 everywhere.
    cluster.run(1.0)
    assert replica_b.committed_lsn == LSN(1, 21)
    assert replica_a.committed_lsn == LSN(1, 21)
    assert cluster.nodes[a].wal.contains(COHORT, LSN(1, 21))
    # 1.22 is nowhere in the surviving majority.
    assert not cluster.nodes[a].wal.contains(COHORT, LSN(1, 22))
    assert not cluster.nodes[b].wal.contains(COHORT, LSN(1, 22))
    # Epoch was bumped before accepting new writes.
    assert replica_b.epoch == 2
    # Committed data is all readable.
    for seq in range(1, 22):
        cell = replica_b.engine.get(seed_key(seq), b"c")
        assert cell is not None and cell.value == b"v%d" % seq
    assert cluster.all_failures() == []


def new_writes(cluster, client, count):
    """Write ``count`` fresh values routed to cohort COHORT."""
    keys = cluster.partitioner.keys_in_cohort(COHORT, count, b"new-")

    def _go():
        for key in keys:
            yield from client.put(key, b"c", b"fresh")
        return keys

    return run_process(cluster.sim, _go(), 60.0)


def test_s3_new_writes_use_epoch_2(world):
    cluster, a, b, c = world
    boot(cluster, a, b)
    cluster.run_until(lambda: cluster.leader_of(COHORT) == b,
                      limit=30.0, what="S2 leader")
    keys = new_writes(cluster, cluster.client(), 9)
    wal_b = cluster.nodes[b].wal
    # Epoch-2 LSNs continue the sequence: 2.22 .. 2.30 (Appendix B).
    for seq in range(22, 31):
        assert wal_b.contains(COHORT, LSN(2, seq))
    assert wal_b.last_lsn(COHORT) == LSN(2, 30)
    assert len(keys) == 9


def test_s4_c_rejoins_and_logically_truncates(world):
    cluster, a, b, c = world
    boot(cluster, a, b)
    cluster.run_until(lambda: cluster.leader_of(COHORT) == b,
                      limit=30.0, what="S2 leader")
    new_writes(cluster, cluster.client(), 9)   # S3: 2.22..2.30
    boot(cluster, c)
    replica_c = cluster.replica(c, COHORT)
    cluster.run_until(lambda: replica_c.role == Role.FOLLOWER,
                      limit=30.0, what="C recovered")
    wal_c = cluster.nodes[c].wal
    # 1.22 was logically truncated, not physically removed.
    assert wal_c.is_skipped(COHORT, LSN(1, 22))
    assert wal_c.contains(COHORT, LSN(1, 22))
    assert wal_c.last_lsn(COHORT) == LSN(2, 30)
    assert replica_c.committed_lsn == LSN(2, 30)
    # C's engine now reflects every committed write and not 1.22.
    for seq in range(1, 22):
        cell = replica_c.engine.get(seed_key(seq), b"c")
        assert cell is not None and cell.value == b"v%d" % seq
    orphan = replica_c.engine.get(seed_key(22), b"c")
    assert orphan is None
    assert cluster.all_failures() == []


def test_s4_c_survives_another_restart_without_reapplying_1_22(world):
    """Local recovery must honour the skipped-LSN list (§6.1.1)."""
    cluster, a, b, c = world
    boot(cluster, a, b)
    cluster.run_until(lambda: cluster.leader_of(COHORT) == b,
                      limit=30.0, what="S2 leader")
    new_writes(cluster, cluster.client(), 9)
    boot(cluster, c)
    replica_c = cluster.replica(c, COHORT)
    cluster.run_until(lambda: replica_c.role == Role.FOLLOWER,
                      limit=30.0, what="C recovered")
    cluster.run(1.0)
    # Crash and restart C once more: replay must skip 1.22.
    cluster.crash_node(c)
    cluster.run(3.0)
    cluster.restart_node(c)
    cluster.run_until(lambda: replica_c.role == Role.FOLLOWER,
                      limit=30.0, what="C re-recovered")
    assert replica_c.engine.get(seed_key(22), b"c") is None
    assert wal_skips(cluster, c)
    assert cluster.all_failures() == []


def wal_skips(cluster, c):
    return cluster.nodes[c].wal.is_skipped(COHORT, LSN(1, 22))
