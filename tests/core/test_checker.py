"""Tests for the history checker, plus a live cluster verification."""

import pytest

from repro.core import SpinnakerCluster, SpinnakerConfig
from repro.core.checker import (HistoryRecorder, Violation,
                                check_strong_history)
from repro.core.datamodel import DatastoreError
from repro.sim.disk import DiskProfile
from repro.sim.process import spawn, timeout


# -- unit: the checker itself catches bad histories --------------------------

def test_clean_history_passes():
    h = HistoryRecorder()
    h.record_write(b"k", 0.0, 1.0, version=1)
    h.record_read(b"k", 2.0, 3.0, version=1)
    h.record_write(b"k", 3.0, 4.0, version=2)
    h.record_read(b"k", 5.0, 6.0, version=2)
    assert check_strong_history(h) == []


def test_stale_read_detected():
    h = HistoryRecorder()
    h.record_write(b"k", 0.0, 1.0, version=1)
    h.record_write(b"k", 1.0, 2.0, version=2)
    h.record_read(b"k", 3.0, 4.0, version=1)   # stale!
    violations = check_strong_history(h)
    assert any(v.rule == "recency" for v in violations)


def test_future_read_detected():
    h = HistoryRecorder()
    h.record_write(b"k", 0.0, 1.0, version=1)
    h.record_read(b"k", 2.0, 3.0, version=5)   # from the future
    violations = check_strong_history(h)
    assert any(v.rule == "time-travel" for v in violations)


def test_non_monotonic_reads_detected():
    h = HistoryRecorder()
    h.record_write(b"k", 0.0, 1.0, version=1)
    h.record_write(b"k", 1.0, 2.0, version=2)
    h.record_read(b"k", 2.5, 3.0, version=2)
    h.record_read(b"k", 3.5, 4.0, version=1)   # went backwards
    violations = check_strong_history(h)
    assert any(v.rule == "monotonicity" for v in violations)


def test_overlapping_reads_may_disagree():
    """Concurrent reads straddling a write may see either version."""
    h = HistoryRecorder()
    h.record_write(b"k", 0.0, 5.0, version=1)
    h.record_read(b"k", 1.0, 2.0, version=1)   # write in flight: OK
    h.record_read(b"k", 1.5, 2.5, version=0)   # also OK (not acked yet)
    assert check_strong_history(h) == []


def test_failed_ops_are_ignored():
    h = HistoryRecorder()
    h.record_write(b"k", 0.0, 1.0, version=1, ok=False)  # timed out
    h.record_read(b"k", 2.0, 3.0, version=0)
    assert check_strong_history(h) == []


def test_violation_str():
    v = Violation(b"k", "recency", "details here")
    assert "recency" in str(v) and "details here" in str(v)


# -- integration: a real cluster history under failover ----------------------

def test_cluster_history_is_strongly_consistent_through_failover():
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.3, client_op_timeout=6.0)
    cluster = SpinnakerCluster(n_nodes=5, config=cfg, seed=83)
    cluster.start()
    sim = cluster.sim
    history = HistoryRecorder()
    cohort_id = 0
    key = cluster.partitioner.keys_in_cohort(cohort_id, 1, b"hk-")[0]
    done = {"writer": False}

    def writer():
        client = cluster.client("h-writer")
        for i in range(40):
            start = sim.now
            try:
                result = yield from client.put(key, b"c", b"v%d" % i)
            except DatastoreError:
                history.record_write(key, start, sim.now, 0, ok=False)
                continue
            history.record_write(key, start, sim.now, result.version)
        done["writer"] = True

    def reader(name):
        client = cluster.client(name)
        while not done["writer"]:
            start = sim.now
            try:
                got = yield from client.get(key, b"c", consistent=True)
            except DatastoreError:
                yield timeout(sim, 0.01)
                continue
            history.record_read(key, start, sim.now, got.version)
            yield timeout(sim, 0.004)

    spawn(sim, writer())
    spawn(sim, reader("h-reader1"))
    spawn(sim, reader("h-reader2"))

    def chaos():
        yield timeout(sim, 0.15)
        cluster.kill_leader(cohort_id)
        yield timeout(sim, 3.0)

    spawn(sim, chaos())
    cluster.run_until(lambda: done["writer"], limit=240.0, what="writer")
    cluster.run(0.5)
    assert len(history) > 40
    violations = check_strong_history(history)
    assert violations == [], "\n".join(map(str, violations))


def test_stale_read_separated_by_overlapping_read_detected():
    """Regression: the old adjacent-pair monotonicity check missed a
    stale read when an *overlapping* read sat between it and the fresh
    one in start order."""
    h = HistoryRecorder()
    h.record_write(b"k", 0.0, 0.1, version=1)
    h.record_write(b"k", 0.5, 5.0, version=2)
    h.record_read(b"k", 1.0, 1.2, version=2)   # fresh, ends early
    h.record_read(b"k", 1.1, 4.0, version=1)   # overlaps both reads: OK
    h.record_read(b"k", 4.5, 4.8, version=1)   # after the v2 read: stale
    violations = check_strong_history(h)
    assert any(v.rule == "monotonicity" for v in violations)
    # ...and only the non-overlapping pair is flagged.
    assert all("4.5" in v.detail for v in violations
               if v.rule == "monotonicity")


def test_monotonicity_ignores_overlapping_pairs():
    h = HistoryRecorder()
    h.record_write(b"k", 0.0, 0.1, version=1)
    h.record_write(b"k", 0.5, 5.0, version=2)
    h.record_read(b"k", 1.0, 3.0, version=2)
    h.record_read(b"k", 2.0, 4.0, version=1)   # overlaps: either order
    assert check_strong_history(h) == []


def test_indeterminate_write_lifts_time_travel_ceiling():
    """A timed-out write may have committed (and its client-level
    retries may commit several versions): reads overlapping-or-after it
    can legally return versions above the acked ceiling."""
    h = HistoryRecorder()
    h.record_write(b"k", 0.0, 1.0, version=1)
    h.record_write(b"k", 2.0, 8.0, version=0, ok=False)  # timed out
    h.record_read(b"k", 3.0, 3.5, version=3)   # retry committed twice: OK
    assert check_strong_history(h) == []


def test_time_travel_still_checked_before_indeterminate_write():
    h = HistoryRecorder()
    h.record_write(b"k", 0.0, 1.0, version=1)
    h.record_read(b"k", 1.5, 2.0, version=3)   # nothing indeterminate yet
    h.record_write(b"k", 3.0, 9.0, version=0, ok=False)
    violations = check_strong_history(h)
    assert any(v.rule == "time-travel" for v in violations)
