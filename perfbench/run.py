"""The repo benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload write-sata-closed --seed 1 \
        --seconds 30 --trace 0

Every run first does one untimed warm-up repetition of the workload at
the given seed; it is checked like the others and supplies the modeled
metrics (simulated time, identical on every repetition of a seed) and
the peak resident memory.  Then, until another round would overrun
``--seconds`` of wall time:

* ``--trace 0`` times untraced repetitions (at least three) and reports
  the end-to-end metrics, the host-time ones as medians over them;
* ``--trace 1`` times an untraced and then a traced repetition (cProfile
  over the load window, a ``RequestTracer`` sampling every request,
  exact counters at the window edges) and reports the per-layer metrics
  as medians over the traced ones.

Untraced repetitions count the host time of their load window in
iterations of a fixed reference loop timed every 50 ms inside it
(``workloads.ReferenceClock``), so ``ops_per_mref`` does not follow the
host's speed as it drifts on a shared machine.  Every repetition passes
the correctness checks of ``checks.py`` and has the same modeled metrics
as the warm-up; traced ones, which run without the reference probe, too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it describes the machine and the run.  Any failed check exits with
status 1 and prints no result.  Workloads and seeds are described in
``spec.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import pstats
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_REPRO = os.path.join(ROOT, "src", "repro")
#: untraced repetitions timed after the warm-up one
MIN_TIMED_REPS = 3
#: a p99 needs at least ten samples beyond it
MIN_P99_SAMPLES = 1000


def calibrate() -> float:
    """Median seconds of 200,000 iterations of the reference loop, so a
    slow or noisy machine shows beside the numbers."""
    from perfbench.workloads import reference_loop
    return statistics.median(reference_loop(200_000) for _ in range(5))


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _end_to_end(warm, timed, peak_rss_mb: float) -> dict:
    from perfbench.workloads import readback_latency
    modeled = warm.modeled
    read_src = modeled if modeled["read_samples"] else readback_latency(
        warm)
    return {
        "write_p50_ms": (modeled["write_p50_ms"], "ms"),
        "write_p99_ms": (modeled["write_p99_ms"], "ms"),
        "read_p50_ms": (read_src["read_p50_ms"], "ms"),
        "read_p99_ms": (read_src["read_p99_ms"], "ms"),
        "throughput_ops_s": (modeled["throughput_ops_s"], "ops/s"),
        "unavailable_s": (modeled["unavailable_s"], "s"),
        "ops_per_mref": (statistics.median(
            r.completed / r.clock.mref() for r in timed), "ops/Mref"),
        "setup_s": (statistics.median(r.setup_wall for r in timed), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _per_layer_row(rep, plain) -> dict:
    """Per-layer metrics of traced repetition ``rep``; ``plain`` is the
    untraced repetition run just before it."""
    from perfbench.layers import LAYERS, LayerMapper, aggregate
    from perfbench.workloads import phase_means
    ops = rep.completed
    stats = pstats.Stats(rep.profile)
    layers = aggregate(stats, LayerMapper(SRC_REPRO, HERE))
    c = rep.counts
    writes = rep.completed_writes or 1
    row = {}
    for layer in LAYERS:
        row[f"{layer}.self_us_per_op"] = (
            layers[layer]["self_s"] * 1e6 / ops, "us")
        row[f"{layer}.calls_per_op"] = (layers[layer]["calls"] / ops,
                                        "count")
    gets = _calls(stats, "storage/engine.py", "get")
    row.update({
        "sim.events.scheduled_per_op": (c["scheduled"] / ops, "count"),
        "sim.network.messages_per_op": (c["messages"] / ops, "count"),
        "sim.network.bytes_per_op": (c["bytes"] / ops, "B"),
        "sim.disk.forces_per_write": (c["forces"] / writes, "count"),
        "sim.disk.device_writes_per_write": (c["device_writes"] / writes,
                                             "count"),
        "sim.disk.bytes_per_write": (c["disk_bytes"] / writes, "B"),
        "core.batching.records_per_batch": (
            c["records_batched"] / c["batches"] if c["batches"] else 0.0,
            "count"),
        "core.api.retries_per_op": (c["retries"] / ops, "count"),
        "storage.engine.sstables_per_get": (
            _calls(stats, "storage/sstable.py", "get") / gets
            if gets else 0.0, "count"),
        "storage.engine.flushes": (c["flushes"], "count"),
        "core.election.elections": (c["epochs"], "count"),
    })
    for phase, mean_ms in phase_means(
            rep.target.cluster.request_tracer).items():
        row[f"phase.{phase}_ms"] = (mean_ms, "ms")
    row["trace.overhead_ratio"] = (rep.window_wall / plain.window_wall,
                                   "ratio")
    return row


def _calls(stats: pstats.Stats, path_suffix: str, funcname: str) -> int:
    """Call count of the function ``funcname`` defined in a file ending
    with ``path_suffix``."""
    return sum(v[1] for (path, _line, name), v in stats.stats.items()
               if name == funcname and path.replace(os.sep, "/").endswith(
                   path_suffix))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: spec.json's)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall seconds to keep repeating the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(SRC_REPRO):
        return _fail(f"no program to measure: {SRC_REPRO} is missing")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.layers import check_complete
    from perfbench.checks import CheckFailed, check_rep
    from perfbench.workloads import load_spec, run_rep

    problems = check_complete(SRC_REPRO)
    if problems:
        return _fail("layer map incomplete: " + "; ".join(problems))
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(spec['workloads'])}")
    seed = spec["seeds"]["default"] if args.seed is None else args.seed

    calibration_s = calibrate()
    started = time.perf_counter()

    def checked_rep(traced: bool, reference):
        gc.collect()  # start every repetition from the same heap
        rep = run_rep(args.workload, seed, traced=traced)
        problems = check_rep(rep)
        if problems:
            raise CheckFailed(f"{args.workload} seed {seed}: "
                              + "; ".join(problems[:20]))
        if reference is not None and rep.modeled != reference.modeled:
            raise CheckFailed("modeled metrics differ between "
                              "repetitions of the same seed (traced or "
                              "not)")
        return rep

    try:
        # The first repetition warms the interpreter up; it is checked
        # and gives the modeled metrics, but no wall time.
        warm = checked_rep(False, None)
        warm.target = None
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples = {"write": warm.modeled["write_samples"],
                   "read": warm.modeled["read_samples"]
                   or len(warm.readback)}
        for kind, count in samples.items():
            if count < MIN_P99_SAMPLES:
                raise CheckFailed(f"only {count} {kind} samples; a p99 "
                                  f"needs {MIN_P99_SAMPLES}")
        timed, rows = [], []
        while True:
            t0 = time.perf_counter()
            plain = checked_rep(False, warm)
            plain.target = None
            if args.trace:
                traced = checked_rep(True, warm)
                rows.append(_per_layer_row(traced, plain))
                traced.target = traced.profile = None
            timed.append(plain)
            now = time.perf_counter()
            # stop before a further round would overrun --seconds
            if (len(timed) >= (1 if args.trace else MIN_TIMED_REPS)
                    and now - started + (now - t0) > args.seconds):
                break
    except CheckFailed as err:
        return _fail(str(err))

    if args.trace:
        metrics = {name: (statistics.median(r[name][0] for r in rows),
                          unit) for name, (_v, unit) in rows[0].items()}
    else:
        metrics = _end_to_end(warm, timed, peak_rss_mb)
    print(json.dumps({
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "timed_repetitions": len(timed),
        "python": platform.python_version(),
        "nproc": os.cpu_count(), "calibration_s": calibration_s,
        "write_samples": samples["write"], "read_samples": samples["read"],
        "boot_to_ready_s": warm.modeled["ready_s"],
        "rep_ops_per_wall_s": [r.completed / r.window_wall for r in timed],
        "rep_ops_per_mref": [r.completed / r.clock.mref() for r in timed],
        "rep_setup_s": [r.setup_wall for r in timed]}))
    print(json.dumps({
        "correct": True,
        "attempted": sum(r.attempted for r in [warm] + timed),
        "failed": sum(r.failed for r in [warm] + timed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
