"""One repetition of a benchmark workload, driven through the bench harness.

Load comes only from ``repro.bench.harness.run_load`` (closed loop) or
``repro.bench.openloop.run_open_load`` (open loop).  :class:`BenchTarget`
is a :class:`~repro.bench.harness.SpinnakerTarget` whose operations also
log what the client observed (start, end, version, outcome), which the
correctness checks and the modeled metrics are computed from, and whose
``preload``/``start`` are timed for ``setup_s``.  The workload parameters
come from ``spec.json`` beside this file.
"""

from __future__ import annotations

import cProfile
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.harness import SpinnakerTarget, run_load
from repro.bench.openloop import PoissonArrivals, run_open_load
from repro.bench.workload import VALUE_SIZE, Workload
from repro.core import SpinnakerConfig
from repro.core.datamodel import DatastoreError
from repro.obs import RequestTracer, phase_summary
from repro.sim.disk import DiskProfile
from repro.sim.metrics import Histogram

from perfbench.checks import CheckFailed

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "spec.json")

_LOG_PROFILES = {"sata": DiskProfile.sata_log, "ssd": DiskProfile.ssd_log}
#: phases reported; ``commit_apply`` is left out because the tracer
#: records it as a zero-length marker span, so its mean is always 0
_PHASES = ("route", "propose", "log_force", "replicate_rtt", "quorum_wait",
           "reply", "read_serve")


#: iterations of the reference loop timed at each probe
REF_ITERS = 4000
#: wall seconds between reference timings
REF_EVERY_S = 0.05
#: simulated seconds between probes that tick the reference clock
PROBE_S = 0.01


def reference_loop(iters: int) -> float:
    """Seconds the host takes for a fixed pure-Python loop (no repo
    code)."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(iters):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - t0


class ReferenceClock:
    """Host time of a load window, counted in reference-loop iterations.

    :meth:`tick` runs from a simulation probe; once ``REF_EVERY_S`` wall
    seconds have passed since the last reference timing it times
    :func:`reference_loop` again.  Each stretch of wall time between two
    reference timings is divided by their mean, so a host that slows
    down for a while (another tenant on a shared core) slows the loop in
    step and the count stays put.  The loop runs for about a millisecond
    on a small table that any 50 ms stretch of the program has already
    pushed out of the fast caches, so its time follows the host rather
    than the program's own memory footprint.
    """

    def __init__(self):
        self.gaps: List[float] = []   # program wall between references
        self.refs: List[float] = []   # seconds of each reference timing
        self._last = 0.0

    def start(self) -> None:
        self._last = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._last >= REF_EVERY_S:
            self.gaps.append(now - self._last)
            self.refs.append(reference_loop(REF_ITERS))
            self._last = time.perf_counter()

    def stop(self) -> None:
        self.gaps.append(time.perf_counter() - self._last)

    @property
    def program_wall(self) -> float:
        """Wall seconds of the window, reference timings left out."""
        return sum(self.gaps)

    def mref(self) -> float:
        """Millions of reference-loop iterations the host could have
        run in the window's program wall time."""
        if not self.refs:
            raise CheckFailed("load window too short for a reference "
                              "timing")
        total = 0.0
        for i, gap in enumerate(self.gaps):
            # gap i lies between reference timings i-1 and i
            bounds = self.refs[max(i - 1, 0):i + 1]
            total += gap * len(bounds) / sum(bounds)
        return total * REF_ITERS / 1e6


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


@dataclass
class OpLog:
    """Every client operation of one repetition, as the client saw it.

    ``ops`` rows are ``(kind, key, start, end, version, ok, measured)``;
    failed operations carry version 0 and ``ok=False``.
    """

    ops: List[tuple] = field(default_factory=list)
    preloaded: List[bytes] = field(default_factory=list)


class BenchTarget(SpinnakerTarget):
    """A Spinnaker target that logs client-observed outcomes.

    ``measured(thread_id, index, start)`` decides whether an op belongs
    to the measured window, mirroring the harness's own warm-up rule.
    ``on_started`` runs once the cluster is ready, before any load.
    """

    def __init__(self, n_nodes: int, config: SpinnakerConfig, seed: int,
                 fresh_write_keys: bool, request_tracer=None):
        super().__init__(n_nodes=n_nodes, config=config, seed=seed,
                         request_tracer=request_tracer)
        self.log = OpLog()
        self.fresh_write_keys = fresh_write_keys
        self.measured = lambda tid, index, start: True
        self.on_started = lambda: None
        self.clients = {}   # name -> SpinnakerClient driving load
        self.setup_wall = 0.0
        self.boot_at = 0.0

    def preload(self, keys: List[bytes], value_size: int) -> None:
        t0 = time.perf_counter()
        super().preload(keys, value_size)
        self.setup_wall += time.perf_counter() - t0
        self.log.preloaded = keys

    def start(self) -> None:
        self.boot_at = self.sim.now
        t0 = time.perf_counter()
        super().start()
        self.setup_wall += time.perf_counter() - t0
        self.on_started()

    def make_thread(self, client_name: str, workload: Workload,
                    thread_id: int, keys: List[bytes], rng):
        client = self.clients[client_name] = self.cluster.client(client_name)
        sim = self.sim
        ops = self.log.ops
        measured = self.measured
        value = b"x" * workload.value_size
        choose_key = workload.key_chooser(keys, rng) if keys else None
        consistent = workload.read_mode == "strong"
        counter = [0, 0]  # ops issued by this thread, fresh-key sequence

        def logged(kind, key, call):
            index = counter[0]
            counter[0] += 1
            start = sim.now
            in_window = measured(thread_id, index, start)
            try:
                result = yield from call
            except DatastoreError:
                ops.append((kind, key, start, sim.now, 0, False, in_window))
                raise
            ops.append((kind, key, start, sim.now, result.version, True,
                        in_window))

        def read_op():
            key = choose_key()
            yield from logged("read", key,
                              client.get(key, b"v", consistent=consistent))

        def write_op():
            if self.fresh_write_keys:
                counter[1] += 1
                key = b"w%d-%d" % (thread_id, counter[1])
            else:
                key = choose_key()
            yield from logged("write", key, client.put(key, b"v", value))

        return read_op, write_op


@dataclass
class RepResult:
    """The outcome of one repetition."""

    modeled: Dict[str, float]
    attempted: int
    failed: int
    completed: int             # ok client ops in the load window
    completed_writes: int
    setup_wall: float
    window_wall: float         # load window, reference timings left out
    target: BenchTarget
    readback: List[tuple]
    profile: Optional[cProfile.Profile] = None
    counts: Dict[str, float] = field(default_factory=dict)
    clock: Optional[ReferenceClock] = None


def _config(spec: dict) -> SpinnakerConfig:
    return SpinnakerConfig(
        log_profile=_LOG_PROFILES[spec["log_profile"]](),
        flush_threshold_bytes=spec["flush_threshold_bytes"])


def _workload(name: str, spec: dict) -> Workload:
    return Workload(name=name, write_fraction=spec["write_fraction"],
                    read_mode=spec.get("read_mode", "strong"),
                    value_size=VALUE_SIZE,
                    preload_rows=spec["preload_rows"],
                    key_distribution=spec.get("key_distribution",
                                              "uniform"),
                    zipf_theta=spec.get("zipf_theta", 0.99)).validate()


class _Counters:
    """Exact counters read at the load-window boundaries (traced runs).

    Bytes sent are counted by wrapping the network's transmit step, and
    events scheduled are read from the simulator's sequence counter:
    neither has a public counter.
    """

    def __init__(self, target: BenchTarget):
        self.target = target
        self.bytes_sent = 0
        network = target.cluster.network
        transmit = network._transmit

        def counting_transmit(env, _transmit=transmit):
            self.bytes_sent += env.size
            _transmit(env)

        network._transmit = counting_transmit

    def read(self) -> Dict[str, float]:
        cluster = self.target.cluster
        nodes = list(cluster.nodes.values())
        replicas = [r for n in nodes for r in n.replicas.values()]
        epochs = {}
        for node in nodes:
            for cid, replica in node.replicas.items():
                epochs[cid] = max(epochs.get(cid, 0), replica.epoch)
        return {
            "scheduled": cluster.sim._seq,
            "messages": cluster.network.messages_sent,
            "bytes": self.bytes_sent,
            "forces": sum(n.device.forces_completed for n in nodes),
            "device_writes": sum(n.device.ops_performed for n in nodes),
            "disk_bytes": sum(n.device.bytes_written for n in nodes),
            "batches": sum(r.batcher.batches_sent for r in replicas),
            "records_batched": sum(r.batcher.records_batched
                                   for r in replicas),
            "retries": sum(c.retries
                           for c in self.target.clients.values()),
            "flushes": sum(r.engine.flushes for r in replicas),
            "epochs": sum(epochs.values()),
        }


def run_rep(name: str, seed: int, traced: bool = False) -> RepResult:
    """Build a cluster, run workload ``name`` at ``seed`` once, and
    return its modeled metrics, wall times and logs (unchecked).

    Untraced, a probe ticks a :class:`ReferenceClock` every ``PROBE_S``
    simulated seconds of the load window; it only reads the wall clock
    and times a loop of its own, so the run is otherwise the same."""
    spec = load_spec()["workloads"][name]
    t0 = time.perf_counter()
    tracer = RequestTracer(sample_every=1) if traced else None
    target = BenchTarget(spec["nodes"], _config(spec), seed,
                         fresh_write_keys=spec["preload_rows"] == 0,
                         request_tracer=tracer)
    build_wall = time.perf_counter() - t0
    workload = _workload(name, spec)
    cluster = target.cluster
    profile = cProfile.Profile() if traced else None
    counters = _Counters(target) if traced else None
    marks: Dict[str, object] = {}
    crash: Dict[str, object] = {}
    clock = None if traced else ReferenceClock()

    def probe():
        clock.tick()
        marks["probe"] = target.sim.schedule(PROBE_S, probe)

    def on_started():
        marks["ready_at"] = target.sim.now
        if counters is not None:
            marks["before"] = counters.read()
        if spec["loop"] == "open":
            measure_start = target.sim.now + spec["warmup_s"]
            target.measured = lambda tid, i, start: start >= measure_start
            if spec["crash"]:
                _arm_crash(target, measure_start, spec["crash"], crash)
        else:
            warmup = spec["warmup_ops"]
            target.measured = lambda tid, i, start: i >= warmup
        if clock is not None:
            marks["probe"] = target.sim.schedule(PROBE_S, probe)
            clock.start()
        marks["wall0"] = time.perf_counter()
        if profile is not None:
            profile.enable()

    target.on_started = on_started
    if spec["loop"] == "closed":
        point = run_load(target, workload, spec["threads"],
                         ops_per_thread=spec["ops_per_thread"],
                         warmup_ops=spec["warmup_ops"], seed=seed)
        shed = 0
    else:
        point = run_open_load(
            target, workload, n_users=spec["users"],
            rate=spec["rate_per_s"], duration=spec["duration_s"],
            warmup=spec["warmup_s"], arrivals=PoissonArrivals,
            shards=spec["shards"],
            max_inflight_per_shard=spec["max_inflight_per_shard"],
            seed=seed)
        shed = point.shed
    if profile is not None:
        profile.disable()
    window_wall = time.perf_counter() - marks["wall0"]
    if clock is not None:
        clock.stop()
        target.sim.cancel(marks["probe"])
        window_wall = clock.program_wall

    log = target.log
    measured = [op for op in log.ops if op[6]]
    ok_measured = [op for op in measured if op[5]]
    if len(ok_measured) != point.ops:
        raise CheckFailed(f"op log disagrees with the harness: "
                           f"{len(ok_measured)} != {point.ops} ok ops")
    completed = [op for op in log.ops if op[5]]
    result = RepResult(
        modeled={}, attempted=len(measured) + shed,
        failed=len(measured) - len(ok_measured) + shed,
        completed=len(completed),
        completed_writes=sum(1 for op in completed if op[0] == "write"),
        setup_wall=build_wall + target.setup_wall,
        window_wall=window_wall, target=target,
        readback=[], profile=profile, clock=clock)
    if counters is not None:
        after = counters.read()
        result.counts = {k: after[k] - marks["before"][k] for k in after}
    result.modeled = _modeled(point.throughput, ok_measured, crash,
                              target, marks["ready_at"])
    return result


def _arm_crash(target: BenchTarget, measure_start: float, crash_spec: dict,
               crash: dict) -> None:
    """Schedule the leader crash and the restart ``restart_after_s``
    later; record the victim, the time and the cohorts it led."""
    cluster = target.cluster
    sim = target.sim

    def do_crash():
        victim = cluster.leader_of(0)
        if victim is None:
            raise CheckFailed("cohort 0 has no leader to crash")
        crash["victim"] = victim
        crash["at"] = sim.now
        crash["cohorts"] = [c.cohort_id for c in cluster.partitioner.cohorts
                            if cluster.leader_of(c.cohort_id) == victim]
        cluster.crash_node(victim)
        sim.schedule(crash_spec["restart_after_s"],
                     lambda: cluster.restart_node(victim))

    sim.call_at(measure_start + crash_spec["at_s_after_warmup"], do_crash)


def _modeled(throughput: float, ok_measured: List[tuple], crash: dict,
             target: BenchTarget, ready_at: float) -> Dict[str, float]:
    hists = {"read": Histogram(), "write": Histogram()}
    for kind, _key, start, end, _v, _ok, _m in ok_measured:
        hists[kind].add(end - start)
    out = {"throughput_ops_s": throughput,
           "unavailable_s": _unavailable(target, crash)}
    for kind, hist in hists.items():
        if hist.count:
            out[f"{kind}_p50_ms"] = hist.percentile(50) * 1e3
            out[f"{kind}_p99_ms"] = hist.percentile(99) * 1e3
        out[f"{kind}_samples"] = hist.count
    out["ready_s"] = ready_at - target.boot_at
    return out


def _unavailable(target: BenchTarget, crash: dict) -> float:
    """Seconds from the disruption until every affected cohort has
    acknowledged an op issued after it (max over those cohorts)."""
    part = target.cluster.partitioner
    if crash:
        since, cohorts = crash["at"], set(crash["cohorts"])
    else:
        since = target.boot_at
        cohorts = {c.cohort_id for c in part.cohorts}
    first: Dict[int, float] = {}
    for _kind, key, start, end, _v, ok, _m in target.log.ops:
        if not ok or start < since:
            continue
        cid = part.locate(key).cohort_id
        if cid in cohorts and end < first.get(cid, float("inf")):
            first[cid] = end
    missing = cohorts - set(first)
    if missing:
        raise CheckFailed(f"cohorts {sorted(missing)} never served an op "
                           f"after the disruption")
    return max(first.values()) - since


def readback_latency(rep: RepResult) -> Dict[str, float]:
    """Strong-read latency of the verification read-back: the only
    strong reads of a write-only workload."""
    hist = Histogram()
    for _k, _key, start, end, _v, ok, _m in rep.readback:
        if ok:
            hist.add(end - start)
    return {"read_p50_ms": hist.percentile(50) * 1e3,
            "read_p99_ms": hist.percentile(99) * 1e3}


def phase_means(tracer) -> Dict[str, float]:
    """Per-phase mean in ms over every completed trace ``tracer`` holds,
    weighted by trace count over the ops (read, write) that have the
    phase."""
    summary = phase_summary(tracer)
    out = {}
    for phase in _PHASES:
        num = den = 0.0
        for per_op in summary.values():
            entry = per_op["phases"].get(phase)
            if entry is not None:
                num += entry["mean_ms"] * per_op["count"]
                den += per_op["count"]
        out[phase] = num / den if den else 0.0
    return out
