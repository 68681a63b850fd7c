"""Regression tests for cross-yield races found by the atomicity lint.

Each test pins one interleaving the static pass flagged and the fix
closed: state snapshotted before a scheduling point must be
re-validated before it drives an externally visible decision.
"""

import pytest

from repro.core import Role, SpinnakerCluster, SpinnakerConfig
from repro.core.loadbalance import transfer_leadership
from repro.core.messages import CatchupChunk, CatchupRequest
from repro.sim.disk import DiskProfile
from repro.sim.process import run_process
from repro.storage.lsn import LSN


def make_cluster(n=5, seed=47):
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.2)
    cluster = SpinnakerCluster(n_nodes=n, config=cfg, seed=seed)
    cluster.start()
    cluster.run(2.0)
    return cluster


def drive(gen):
    """Exhaust a generator whose delegates never yield real events."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


# ---------------------------------------------------------------------------
# transfer_leadership: deposed during the catch-up push
# ---------------------------------------------------------------------------

def test_transfer_aborts_when_deposed_during_catchup(monkeypatch):
    """A leader deposed while pushing catch-up state to its successor
    must NOT name that successor on the leader znode afterwards — the
    znode now backs someone else's claim."""
    import repro.core.loadbalance as lb

    cluster = make_cluster()
    cohort_id = 0
    old_leader = cluster.leader_of(cohort_id)
    replica = cluster.replica(old_leader, cohort_id)
    successor = replica.peers()[0]

    def deposing_push(rep, peer):
        rep.step_down()            # a rival won mid-push
        return peer
        yield                      # pragma: no cover - generator marker

    monkeypatch.setattr(lb, "push_catchup", deposing_push)
    znode_writes = []
    orig_set_data = replica.node.zk.set_data

    def recording_set_data(path, data, version=None):
        znode_writes.append(path)
        return orig_set_data(path, data, version=version)

    monkeypatch.setattr(replica.node.zk, "set_data", recording_set_data)

    ok = run_process(cluster.sim, transfer_leadership(replica, successor),
                     60.0)
    assert ok is False
    assert not [p for p in znode_writes if p.endswith("/leader")]
    assert not replica.is_leader
    # Writes are unblocked again (the finally ran) so a re-election can
    # restore service.
    assert not replica.write_block


# ---------------------------------------------------------------------------
# _catchup_rounds: role/leader adoption re-validates after the rounds
# ---------------------------------------------------------------------------

class _FakeTracer:
    def start(self, *a, **k):
        return object()

    def finish(self, *a, **k):
        pass


class _FakeConfig:
    catchup_chunk_timeout = 1.0
    catchup_chunk_retries = 0
    catchup_rpc_timeout = 1.0


class _FakeNode:
    name = "n1"
    config = _FakeConfig()
    request_tracer = _FakeTracer()

    def trace(self, *a, **k):
        pass


class _FakeReplica:
    def __init__(self):
        self.node = _FakeNode()
        self.cohort_id = 0
        self.committed_lsn = LSN.zero()
        self.catchup_floor = LSN.zero()
        self.snapshot_seen = LSN.zero()
        self.catchup_source = None
        self.epoch = 3
        self.role = Role.FOLLOWER
        self.leader = None
        self.set_leader_calls = []

    def set_leader(self, leader):
        self.set_leader_calls.append(leader)
        self.leader = leader


def _chunk(more=False):
    return CatchupChunk(
        cohort_id=0, epoch=3, committed_lsn=LSN.zero(),
        leader_lst=LSN.zero(), source=("n2", 1), sstables=(),
        snapshot_seen=LSN.zero(), floor=LSN.zero(), records=(),
        valid_lsns=(), valid_after=LSN.zero(), valid_upto=LSN.zero(),
        more=more)


def _patch_catchup_plumbing(monkeypatch, on_fetch):
    import repro.core.recovery as rec

    def fake_request(replica, leader, payload, size, ctx,
                     rpc_timeout=None):
        if isinstance(payload, CatchupRequest):
            on_fetch(replica)
            return _chunk(more=False)
        return {"reply": _chunk(), "pending": []}
        yield                      # pragma: no cover - generator marker

    def fake_ingest(replica, chunk):
        return None
        yield                      # pragma: no cover - generator marker

    monkeypatch.setattr(rec, "_request_with_retries", fake_request)
    monkeypatch.setattr(rec, "ingest_catchup", fake_ingest)
    return rec


def test_catchup_adoption_discarded_after_promotion(monkeypatch):
    """If an election promotes this replica while it was fetching
    chunks, the stale FOLLOWER/leader adoption at the end of the rounds
    must be discarded, not clobber the fresh leadership."""
    def promote(replica):
        replica.role = Role.LEADER   # we won an election mid-fetch

    rec = _patch_catchup_plumbing(monkeypatch, promote)
    replica = _FakeReplica()
    ok = drive(rec._catchup_rounds(replica, "n2", None))
    assert ok is False
    assert replica.role == Role.LEADER
    assert replica.set_leader_calls == []


def test_catchup_adoption_discarded_after_new_leader(monkeypatch):
    """If the replica learned a *different* leader during the rounds,
    adopting the one we started catching up from would fork its view."""
    def relearn(replica):
        replica.leader = "n3"        # a fresh election named n3

    rec = _patch_catchup_plumbing(monkeypatch, relearn)
    replica = _FakeReplica()
    ok = drive(rec._catchup_rounds(replica, "n2", None))
    assert ok is False
    assert replica.leader == "n3"
    assert replica.set_leader_calls == []


def test_catchup_adoption_still_runs_when_state_is_fresh(monkeypatch):
    rec = _patch_catchup_plumbing(monkeypatch, lambda replica: None)
    replica = _FakeReplica()
    ok = drive(rec._catchup_rounds(replica, "n2", None))
    assert ok is True
    assert replica.role == Role.FOLLOWER
    assert replica.set_leader_calls == ["n2"]
