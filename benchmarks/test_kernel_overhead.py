"""Simulator-kernel overhead guard.

Everything the repo measures rides on the discrete-event kernel, so a
slow kernel silently inflates every benchmark's wall time.  Two guards:

* the hot per-event classes stay ``__slots__``-only (an accidental
  ``__dict__`` costs both memory and attribute-lookup time on millions
  of instances);
* a microbenchmark drives the raw scheduler and the full process /
  timeout machinery, asserting events-per-second floors generous enough
  to pass on slow CI but far below healthy numbers — a 10x kernel
  regression fails loudly, a 10% one shows up in the benchmark history.

The same kind of floor guards the storage read path, which every
leader read runs through.
"""

import time

from repro.bench.openloop import (BurstyArrivals, DiurnalArrivals,
                                  MuxedUsers, PoissonArrivals)
from repro.core.commitqueue import PendingWrite
from repro.obs.trace import Span, TraceContext
from repro.sim.events import Event, Simulator
from repro.sim.metrics import Histogram
from repro.sim.network import Request, _Envelope
from repro.sim.process import Process, Timeout, spawn, timeout
from repro.storage.engine import StorageEngine
from repro.storage.lsn import LSN
from repro.storage.records import WriteRecord

#: classes instantiated once (or more) per simulated event/message/write,
#: plus the open-loop generator state touched on every arrival (heap
#: entries themselves are plain lists now — nothing to guard)
HOT_CLASSES = [Event, Process, Timeout, Request, _Envelope,
               PendingWrite, Span, TraceContext,
               PoissonArrivals, BurstyArrivals, DiurnalArrivals,
               MuxedUsers]

# Floors in events per wall-clock second, set at ~50% of the rates
# measured after the list-entry/lazy-cancel/timeout-fast-path kernel
# rewrite (raw 2.27M ev/s, process+timeout 584K ev/s, percentile 827K
# calls/s on the reference box) — high enough to lock the rewrite's
# gains in (the pre-rewrite kernel ran process+timeout at 208K ev/s,
# well under PROCESS_FLOOR), low enough to absorb slow CI.
RAW_FLOOR = 1_100_000
PROCESS_FLOOR = 290_000
PERCENTILE_FLOOR = 400_000
# StorageEngine.get over three flushed SSTables: 0.67M-1.3M gets/s
# (typically ~0.8M) once SSTables answer straight from their exact index,
# against 49K-68K when every table probe first ran a sha256 bloom filter
# (same 2-core box).  The floor sits near 45% of the typical new rate and
# five times above the old one.
STORAGE_GET_FLOOR = 350_000


def test_hot_classes_have_no_dict():
    for cls in HOT_CLASSES:
        offenders = [c.__name__ for c in cls.__mro__
                     if "__dict__" in c.__dict__]
        assert not offenders, (
            f"{cls.__name__} instances grew a __dict__ via {offenders}; "
            f"keep the per-event hot path __slots__-only")


def _pump_callbacks(n):
    """n self-rescheduling raw callbacks through the event heap."""
    sim = Simulator()
    state = {"left": n}

    def tick():
        if state["left"] > 0:
            state["left"] -= 1
            sim.schedule(1e-6, tick)

    sim.schedule(0.0, tick)
    start = time.perf_counter()
    sim.run()
    return n / (time.perf_counter() - start)


def _pump_processes(n, n_procs=16):
    """n timeout yields spread over concurrent generator processes."""
    sim = Simulator()
    per_proc = n // n_procs

    def proc():
        for _ in range(per_proc):
            yield timeout(sim, 1e-6)

    for _ in range(n_procs):
        spawn(sim, proc())
    start = time.perf_counter()
    sim.run()
    return (per_proc * n_procs) / (time.perf_counter() - start)


def test_raw_event_loop_throughput(benchmark):
    rate = benchmark.pedantic(lambda: _pump_callbacks(200_000),
                              rounds=1, iterations=1)
    print(f"\nraw scheduler: {rate:,.0f} events/s")
    assert rate >= RAW_FLOOR, (
        f"raw event loop at {rate:,.0f} events/s "
        f"(floor {RAW_FLOOR:,})")


def test_process_machinery_throughput(benchmark):
    rate = benchmark.pedantic(lambda: _pump_processes(100_000),
                              rounds=1, iterations=1)
    print(f"\nprocess+timeout: {rate:,.0f} events/s")
    assert rate >= PROCESS_FLOOR, (
        f"process machinery at {rate:,.0f} events/s "
        f"(floor {PROCESS_FLOOR:,})")


def _pump_percentiles(samples, calls):
    """Repeated percentile reads over a fixed sample set — the phase
    aggregator's access pattern (many percentile calls per histogram,
    no adds in between).  The cached sorted view makes each call O(1);
    an implementation that re-sorts per call is ~1000x under the floor
    at this sample count."""
    hist = Histogram()
    for i in range(samples):
        hist.add(((i * 2654435761) % samples) / samples)
    start = time.perf_counter()
    for i in range(calls):
        hist.percentile(float(i % 100))
    return calls / (time.perf_counter() - start)


def test_percentile_calls_use_cached_sort(benchmark):
    rate = benchmark.pedantic(
        lambda: _pump_percentiles(samples=50_000, calls=5_000),
        rounds=1, iterations=1)
    print(f"\nhistogram percentile: {rate:,.0f} calls/s")
    assert rate >= PERCENTILE_FLOOR, (
        f"Histogram.percentile at {rate:,.0f} calls/s "
        f"(floor {PERCENTILE_FLOOR:,}); is the sorted view cached?")


def _pump_engine_gets(rows_per_table, tables, gets):
    """Point reads through one engine holding ``tables`` flushed SSTables
    of distinct rows: each get misses the memtable, probes every table
    and hits in one of them."""
    engine = StorageEngine(0)
    keys = []
    for _ in range(tables):
        for _ in range(rows_per_table):
            seq = len(keys) + 1
            key = b"row-%06d" % seq
            keys.append(key)
            engine.apply(WriteRecord(lsn=LSN(1, seq), cohort_id=0, key=key,
                                     colname=b"v", value=b"x" * 64,
                                     version=1))
        engine.flush()
    assert len(engine.sstables) == tables
    probes = [keys[(i * 7919) % len(keys)] for i in range(gets)]
    start = time.perf_counter()
    for key in probes:
        engine.get(key, b"v")
    return gets / (time.perf_counter() - start)


def test_storage_get_throughput(benchmark):
    rate = benchmark.pedantic(
        lambda: _pump_engine_gets(rows_per_table=2000, tables=3,
                                  gets=100_000),
        rounds=1, iterations=1)
    print(f"\nengine get over 3 SSTables: {rate:,.0f} gets/s")
    assert rate >= STORAGE_GET_FLOOR, (
        f"StorageEngine.get at {rate:,.0f} gets/s "
        f"(floor {STORAGE_GET_FLOOR:,}); does every SSTable probe do "
        f"more than one index lookup?")
