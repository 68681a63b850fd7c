"""Correctness checks run after every repetition.

A repetition passes only if all of these hold:

* every acknowledged write reads back, with a strong ``get``, at a
  version at least as new as the newest acknowledged one;
* ``core.checker.check_strong_history`` finds no violation in the
  strong reads and writes (preloaded rows count as version-1 writes at
  t = 0, the read-back reads are included);
* ``chaos.invariants.InvariantAuditor.final_audit`` flags nothing;
* ``cluster.all_failures()`` is empty.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.chaos.invariants import InvariantAuditor
from repro.core import HistoryRecorder, check_strong_history
from repro.core.datamodel import DatastoreError
from repro.sim.events import SimulationError
from repro.sim.process import spawn

#: simulated seconds allowed for the cluster to settle before auditing
SETTLE_LIMIT_S = 60.0


class CheckFailed(Exception):
    """A repetition broke a check; the run yields no numbers."""


def check_rep(rep) -> List[str]:
    """Violations found in repetition ``rep`` (empty = correct).  Fills
    ``rep.readback`` with the read-back reads it issued."""
    cluster = rep.target.cluster
    log = rep.target.log
    try:
        cluster.run_until(cluster.is_ready, limit=SETTLE_LIMIT_S,
                          what="cohorts ready before the audit")
    except SimulationError as err:
        return [f"liveness: {err}"]
    cluster.run(2.0)  # let commit propagation and catch-up finish

    acked: Dict[bytes, int] = {}
    for kind, key, _s, _e, version, ok, _m in log.ops:
        if kind == "write" and ok and version > acked.get(key, 0):
            acked[key] = version
    problems = _read_back(cluster, acked, rep.readback)

    by_key = defaultdict(HistoryRecorder)
    touched = {op[1] for op in log.ops}
    for key in log.preloaded:
        if key in touched:
            by_key[key].record_write(key, 0.0, 0.0, 1)
    for kind, key, start, end, version, ok, _m in (log.ops
                                                   + rep.readback):
        record = (by_key[key].record_write if kind == "write"
                  else by_key[key].record_read)
        record(key, start, end, version, ok=ok)
    for key in sorted(by_key):
        problems.extend(f"history: {v}"
                        for v in check_strong_history(by_key[key]))

    auditor = InvariantAuditor(cluster)
    auditor.final_audit()
    problems.extend(f"audit: {v}" for v in auditor.violations)
    problems.extend(f"failure: {f!r}" for f in cluster.all_failures())
    return problems


def _read_back(cluster, acked: Dict[bytes, int], out: List[tuple]
               ) -> List[str]:
    """Strong-read every acknowledged key one at a time; log each read
    into ``out`` as an op row and return durability violations."""
    sim = cluster.sim
    client = cluster.client("bench-verify")
    failures: List[str] = []

    def read_all():
        for key in sorted(acked):
            start = sim.now
            try:
                got = yield from client.get(key, b"v", consistent=True)
            except DatastoreError as err:
                failures.append(f"durability: {key!r} unreadable "
                                f"({type(err).__name__})")
                out.append(("read", key, start, sim.now, 0, False, False))
                continue
            out.append(("read", key, start, sim.now, got.version, True,
                        False))
            if not got.found or got.version < acked[key]:
                failures.append(f"durability: {key!r} acknowledged "
                                f"v{acked[key]} but read back "
                                f"v{got.version}")

    proc = spawn(sim, read_all(), name="bench-readback")
    try:
        cluster.run_until(lambda: proc.triggered,
                          limit=SETTLE_LIMIT_S + 0.05 * len(acked),
                          step=1.0, what="read-back")
    except SimulationError as err:
        failures.append(f"durability: {err}")
    return failures
