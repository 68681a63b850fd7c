"""One function per table/figure of the paper's evaluation (§9, §D).

Every function returns an :class:`ExperimentResult` holding labelled
series (lists of :class:`~repro.bench.harness.LoadPoint` or plain rows)
plus automated *shape checks* — the acceptance criteria from DESIGN.md
(who wins, by roughly what factor).  ``scale`` trades fidelity for wall
time: 1.0 runs the full sweeps recorded in EXPERIMENTS.md; the benchmark
suite defaults to a smaller scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..baseline import CassandraConfig
from ..chaos.invariants import InvariantAuditor
from ..chaos.nemesis import FaultEvent, arm_schedule
from ..core import SpinnakerCluster, SpinnakerConfig
from ..core.checker import HistoryRecorder, check_strong_history
from ..core.datamodel import DatastoreError, RequestTimeout
from ..core.rebalance import Rebalancer, plan_join
from ..sim.disk import DiskProfile
from ..sim.metrics import Histogram
from ..sim.process import run_process, spawn, timeout
from ..sim.topology import Topology
from .harness import (CassandraTarget, LoadPoint, SpinnakerTarget,
                      run_load, sweep)
from .openloop import PoissonArrivals, run_open_load
from .workload import (VALUE_SIZE, conditional_put_workload, mixed_workload,
                       read_workload, write_workload)

__all__ = [
    "ExperimentResult",
    "fig8_read_latency", "fig9_write_latency", "table1_recovery",
    "fig11_scaling", "fig11_elastic", "fig12_mixed", "fig12_scale",
    "fig13_ssd",
    "fig14_conditional_put", "fig_recovery", "fig_wan", "fig_tune",
    "fig15_weak_writes", "fig16_memory_log",
    "ablation_parallel_propose", "ablation_group_commit",
    "ablation_piggyback_commits", "ablation_skewed_reads",
    "ablation_batching",
    "ALL_EXPERIMENTS", "PHASE_PROBES",
]


@dataclass
class ExperimentResult:
    exp_id: str
    title: str
    series: Dict[str, List] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: str = ""
    #: per-phase latency attribution from a fixed-size traced probe run
    #: (see :func:`_phase_probe`); ``{op: {count, total_mean_ms, phases}}``
    #: as produced by :func:`repro.obs.phase_summary`.  Empty when the
    #: experiment defines no probe.
    phases: Dict[str, dict] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _threads(base: List[int], scale: float, floor: int = 2) -> List[int]:
    out = []
    for t in base:
        scaled = max(floor, int(round(t * scale)))
        if not out or scaled > out[-1]:
            out.append(scaled)
    return out


def _ops(scale: float, base: int = 50) -> int:
    return max(15, int(round(base * min(1.0, scale * 2))))


def _phase_probe(spin_cfg=None, workload=None, threads: int = 16,
                 ops: int = 30, n_nodes: int = 10,
                 seed: int = 1) -> Dict[str, dict]:
    """One fixed-size traced load point for per-phase attribution.

    Deliberately *not* scaled by ``scale``: the probe is cheap (a few
    hundred requests, every one traced) and keeping its size fixed makes
    the ``phases`` section of ``BENCH_report.json`` comparable across
    report scales.  The probe runs a separate cluster from the latency
    sweeps, so tracing overhead can never contaminate the curves.
    """
    from ..obs import RequestTracer, phase_summary
    tracer = RequestTracer(sample_every=1)
    target = SpinnakerTarget(n_nodes, config=spin_cfg, seed=seed,
                             request_tracer=tracer)
    run_load(target, workload or write_workload(), threads,
             ops_per_thread=ops, warmup_ops=8)
    return phase_summary(tracer)


#: Experiments with a phase-attribution probe: exp_id -> probe callable.
#: ``bench/report.py`` uses this both when building fresh reports and to
#: refresh only the ``phases`` sections of an existing report.
PHASE_PROBES: Dict[str, Callable[..., Dict[str, dict]]] = {
    "fig8": lambda seed=1, n_nodes=10: _phase_probe(
        workload=read_workload("strong", preload_rows=500),
        n_nodes=n_nodes, seed=seed),
    "fig9": lambda seed=1, n_nodes=10: _phase_probe(
        n_nodes=n_nodes, seed=seed),
    "fig13": lambda seed=1, n_nodes=10: _phase_probe(
        spin_cfg=SpinnakerConfig(log_profile=DiskProfile.ssd_log()),
        n_nodes=n_nodes, seed=seed),
    "fig16": lambda seed=1, n_nodes=10: _phase_probe(
        spin_cfg=SpinnakerConfig(log_profile=DiskProfile.memory_log()),
        n_nodes=n_nodes, seed=seed),
    # Same mixed workload as the open-loop scale sweep, at probe size:
    # per-phase attribution is per-request and size-invariant, so the
    # small traced cluster explains where the big sweep's latency goes.
    "fig12-scale": lambda seed=1, n_nodes=10: _phase_probe(
        spin_cfg=SpinnakerConfig(log_profile=DiskProfile.ssd_log()),
        workload=mixed_workload(0.2, "strong"),
        n_nodes=n_nodes, seed=seed),
}


def _interp_at(points: List[LoadPoint], load: float) -> Optional[float]:
    """Mean latency (ms) interpolated at a given throughput."""
    pts = sorted(points, key=lambda p: p.throughput)
    if not pts or load < pts[0].throughput:
        return pts[0].mean_ms if pts else None
    for lo, hi in zip(pts, pts[1:]):
        if lo.throughput <= load <= hi.throughput:
            span = hi.throughput - lo.throughput
            if span <= 0:
                return lo.mean_ms
            frac = (load - lo.throughput) / span
            return lo.mean_ms * (1 - frac) + hi.mean_ms * frac
    return None  # beyond the curve's knee


def _max_load(points: List[LoadPoint]) -> float:
    return max(p.throughput for p in points)


# ---------------------------------------------------------------------------
# Figure 8: average read latency vs load
# ---------------------------------------------------------------------------

def fig8_read_latency(scale: float = 1.0, seed: int = 1,
                      n_nodes: int = 10) -> ExperimentResult:
    """§9.1: Spinnaker consistent/timeline vs Cassandra quorum/weak."""
    ths = _threads([8, 24, 64, 128, 256, 384, 512], scale)
    ops = _ops(scale)
    result = ExperimentResult("fig8", "Average read latency vs load")

    for label, target, mode in (
            ("spinnaker-consistent", SpinnakerTarget, "strong"),
            ("spinnaker-timeline", SpinnakerTarget, "timeline"),
            ("cassandra-quorum", CassandraTarget, "quorum"),
            ("cassandra-weak", CassandraTarget, "weak")):
        result.series[label] = sweep(
            lambda target=target: target(n_nodes, seed=seed),
            read_workload(mode, preload_rows=500), ths,
            ops_per_thread=ops, warmup_ops=15)

    cons = result.series["spinnaker-consistent"]
    tl = result.series["spinnaker-timeline"]
    quo = result.series["cassandra-quorum"]
    weak = result.series["cassandra-weak"]
    # Shape checks (paper: quorum 1.5x-3.0x worse; knee sooner;
    # timeline ~= weak).
    ratios = []
    for point in quo:
        base = _interp_at(cons, point.throughput)
        if base:
            ratios.append(point.mean_ms / base)
    result.checks["quorum_read_1.5x_to_3x_slower"] = (
        bool(ratios) and max(ratios) >= 1.5 and min(ratios) >= 1.0)
    result.checks["quorum_knee_before_consistent"] = (
        _max_load(quo) < 0.8 * _max_load(cons))
    tl_low, weak_low = tl[0].mean_ms, weak[0].mean_ms
    result.checks["timeline_matches_weak"] = (
        abs(tl_low - weak_low) / weak_low < 0.25)
    result.notes = (f"low-load ms: consistent={cons[0].mean_ms:.2f} "
                    f"timeline={tl_low:.2f} quorum={quo[0].mean_ms:.2f} "
                    f"weak={weak_low:.2f}")
    result.phases = PHASE_PROBES["fig8"](seed=seed, n_nodes=n_nodes)
    return result


# ---------------------------------------------------------------------------
# Figure 9: average write latency vs load (SATA log)
# ---------------------------------------------------------------------------

def _write_sweep(result, ths, ops, spin_cfg=None, cass_cfg=None,
                 seed=1, n_nodes=10, spin_label="spinnaker-writes",
                 cass_label="cassandra-quorum-writes",
                 cass_mode="quorum", include_cassandra=True):
    result.series[spin_label] = sweep(
        lambda: SpinnakerTarget(n_nodes, config=spin_cfg, seed=seed),
        write_workload(), ths, ops_per_thread=ops)
    if include_cassandra:
        result.series[cass_label] = sweep(
            lambda: CassandraTarget(n_nodes, config=cass_cfg, seed=seed),
            write_workload(cass_mode), ths, ops_per_thread=ops)


def fig9_write_latency(scale: float = 1.0, seed: int = 1,
                       n_nodes: int = 10) -> ExperimentResult:
    """§9.2: Spinnaker writes 5-10% slower than Cassandra quorum writes."""
    ths = _threads([4, 8, 16, 32, 64, 96], scale)
    result = ExperimentResult("fig9", "Average write latency vs load")
    _write_sweep(result, ths, _ops(scale, 40), seed=seed, n_nodes=n_nodes)
    spin = result.series["spinnaker-writes"]
    cass = result.series["cassandra-quorum-writes"]
    gaps = [s.mean_ms / c.mean_ms - 1.0 for s, c in zip(spin, cass)]
    mean_gap = sum(gaps) / len(gaps)
    # Paper: 5-10% across the board.  Individual points are noisy at
    # small sample sizes, so bound each loosely and the mean tightly.
    result.checks["per_point_gap_reasonable"] = all(
        -0.08 <= g <= 0.25 for g in gaps)
    result.checks["mean_gap_roughly_5_to_10pct"] = 0.02 <= mean_gap <= 0.18
    result.notes = (f"mean gap {mean_gap:+.1%}; per point: "
                    + ", ".join(f"{g:+.1%}" for g in gaps))
    result.phases = PHASE_PROBES["fig9"](seed=seed, n_nodes=n_nodes)
    return result


# ---------------------------------------------------------------------------
# Table 1: cohort recovery time vs commit period
# ---------------------------------------------------------------------------

def table1_recovery(scale: float = 1.0, seed: int = 2,
                    commit_periods: Optional[List[float]] = None
                    ) -> ExperimentResult:
    """§D.1: leader killed; recovery time proportional to commit period.

    Per the paper, the coordination-service failure-detection timeout is
    excluded: the leader's session is expired at kill time.
    """
    periods = commit_periods or [1.0, 5.0, 10.0, 15.0]
    if scale < 0.5:
        periods = [p for p in periods if p <= 5.0] or periods[:2]
    result = ExperimentResult(
        "table1", "Cohort recovery time vs commit period")
    rows = []
    for period in periods:
        recovery = _measure_recovery(period, seed)
        rows.append({"commit_period_s": period,
                     "recovery_time_s": round(recovery, 3)})
    result.series["recovery"] = rows
    times = [r["recovery_time_s"] for r in rows]
    result.checks["recovery_grows_with_commit_period"] = all(
        b > a for a, b in zip(times, times[1:]))
    result.checks["subsecond_at_1s_period"] = times[0] < 1.0
    if len(times) >= 2:
        slope = ((times[-1] - times[0])
                 / (rows[-1]["commit_period_s"] - rows[0]["commit_period_s"]))
        # The paper measures ~0.26 s of recovery per second of commit
        # period; proposal batching re-proposes the unresolved tail in
        # multi-record batches, cutting the constant to ~0.04 s/s while
        # keeping recovery proportional to the period (see
        # EXPERIMENTS.md, "Ablation: proposal batching").
        result.checks["roughly_linear_slope"] = 0.01 < slope < 1.0
        result.notes = (f"slope={slope:.3f} s/s (paper ~0.26 s/s "
                        f"unbatched; batched re-propose shrinks it)")
    return result


def _measure_recovery(commit_period: float, seed: int,
                      config: Optional[SpinnakerConfig] = None) -> float:
    cfg = config or SpinnakerConfig()
    cfg.commit_period = commit_period
    cluster = SpinnakerCluster(n_nodes=5, config=cfg, seed=seed)
    cluster.start()
    client = cluster.client("t1client")
    cohort_id = 0
    # A single client writes 4KB values routed to one cohort (§D.1).
    keys = cluster.partitioner.keys_in_cohort(cohort_id, 5000, b"t1-")
    stop = {"stop": False}
    value = b"x" * VALUE_SIZE

    def writer():
        from ..core.datamodel import DatastoreError
        for key in keys:
            if stop["stop"]:
                return
            try:
                yield from client.put(key, b"v", value)
            except DatastoreError:
                continue

    spawn(cluster.sim, writer(), name="t1-writer")
    leader_name = cluster.leader_of(cohort_id)
    replica = cluster.replica(leader_name, cohort_id)
    # Let the pipeline warm up past one commit broadcast...
    cluster.run_until(lambda: replica.last_broadcast_at > 0, limit=60.0,
                      what="first commit broadcast")
    cluster.run(commit_period * 1.0)
    # ...then kill the leader just before the *next* commit message, so
    # the unresolved backlog spans (almost) a full commit period.
    target = replica.last_broadcast_at + 0.95 * commit_period
    if target > cluster.sim.now:
        cluster.run(target - cluster.sim.now)
    t_kill = cluster.sim.now
    cluster.kill_leader(cohort_id, skip_detection=True)
    stop["stop"] = True
    cluster.run_until(lambda: cluster.leader_of(cohort_id) is not None,
                      limit=300.0, step=0.01, what="re-election")
    return cluster.sim.now - t_kill


# ---------------------------------------------------------------------------
# Figure 11: write latency vs cluster size (EC2)
# ---------------------------------------------------------------------------

def fig11_scaling(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """§D.2: latency stays ~flat as the cluster grows (fixed per-node
    load).  EC2 could not disable the disk write cache, so the EC2 disk
    profile applies."""
    sizes = [20, 40, 80] if scale >= 1.0 else [10, 20, 40]
    threads_per_node = 3
    ops = _ops(scale, 40)
    result = ExperimentResult("fig11",
                              "Write latency vs cluster size (EC2)")
    spin_rows, cass_rows = [], []
    for n in sizes:
        spin_cfg = SpinnakerConfig(log_profile=DiskProfile.ec2_log())
        cass_cfg = CassandraConfig(log_profile=DiskProfile.ec2_log())
        spin = run_load(SpinnakerTarget(n, config=spin_cfg, seed=seed),
                        write_workload(), n * threads_per_node,
                        ops_per_thread=ops, warmup_ops=10)
        cass = run_load(CassandraTarget(n, config=cass_cfg, seed=seed),
                        write_workload("quorum"), n * threads_per_node,
                        ops_per_thread=ops, warmup_ops=10)
        spin_rows.append({"nodes": n, "mean_ms": spin.mean_ms,
                          "throughput": spin.throughput})
        cass_rows.append({"nodes": n, "mean_ms": cass.mean_ms,
                          "throughput": cass.throughput})
    result.series["spinnaker-writes"] = spin_rows
    result.series["cassandra-quorum-writes"] = cass_rows
    for label, rows in result.series.items():
        lats = [r["mean_ms"] for r in rows]
        result.checks[f"{label}_flat"] = max(lats) / min(lats) < 1.35
    return result


# ---------------------------------------------------------------------------
# Figure 12: mixed workload, latency vs write percentage
# ---------------------------------------------------------------------------

def fig12_mixed(scale: float = 1.0, seed: int = 1,
                n_nodes: int = 10) -> ExperimentResult:
    """§D.3: fixed load (2 client threads), write %% swept 0-60%."""
    fractions = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    if scale < 0.5:
        fractions = [0.0, 0.1, 0.3, 0.5]
    ops = _ops(scale, 120)
    threads = 2
    result = ExperimentResult("fig12", "Mixed workload latency vs write %")

    def series(label, factory, read_mode):
        rows = []
        for frac in fractions:
            wl = mixed_workload(frac, read_mode)
            point = run_load(factory(), wl, threads, ops_per_thread=ops,
                             warmup_ops=10)
            rows.append({"write_pct": int(frac * 100),
                         "mean_ms": point.mean_ms})
        result.series[label] = rows

    series("spinnaker-consistent-mix",
           lambda: SpinnakerTarget(n_nodes, seed=seed), "strong")
    series("spinnaker-timeline-mix",
           lambda: SpinnakerTarget(n_nodes, seed=seed), "timeline")
    series("cassandra-quorum-mix",
           lambda: CassandraTarget(n_nodes, seed=seed), "quorum")
    series("cassandra-weak-mix",
           lambda: CassandraTarget(n_nodes, seed=seed), "weak")

    for label, rows in result.series.items():
        lats = [r["mean_ms"] for r in rows]
        result.checks[f"{label}_rises_with_writes"] = lats[-1] > lats[0]
    # At low write %, the consistent mix beats the quorum mix; at high
    # write %, Cassandra closes the gap / wins (paper: +10% vs -7%).
    spin = {r["write_pct"]: r["mean_ms"]
            for r in result.series["spinnaker-consistent-mix"]}
    cass = {r["write_pct"]: r["mean_ms"]
            for r in result.series["cassandra-quorum-mix"]}
    low = min(p for p in spin if p > 0)
    high = max(spin)
    result.checks["spinnaker_wins_low_write_pct"] = spin[low] < cass[low]
    result.checks["gap_narrows_or_flips_at_high_write_pct"] = (
        (cass[high] - spin[high]) / spin[high]
        < (cass[low] - spin[low]) / spin[low])
    return result


# ---------------------------------------------------------------------------
# Open-loop scale-out (north-star experiment, beyond the paper)
# ---------------------------------------------------------------------------

def fig12_scale(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Open-loop throughput scaling: node count swept to 512 under a
    fixed *per-node* Poisson offered load with ~2K modeled users per
    node (1,048,576 users at 512 nodes).

    The paper stops at 80 nodes with closed-loop clients (Fig. 11);
    this experiment pushes the repo's north-star claim — Spinnaker's
    per-cohort replication has no cluster-wide coordination on the data
    path, so completed throughput per node should stay flat as the
    cluster grows.  Open-loop arrivals (see :mod:`repro.bench.openloop`)
    keep the offered load independent of completions, so a node-count-
    dependent slowdown would surface as shed arrivals and rising
    latency rather than a silently self-throttled client loop.
    """
    if scale >= 1.0:
        sizes = [64, 128, 256, 512]
        users_per_node = 2048
    elif scale >= 0.2:
        sizes = [16, 32, 64]
        users_per_node = 512
    else:               # bench-smoke tier
        sizes = [8]
        users_per_node = 256
    per_node_rate = 30.0       # offered ops/sec per node, below the knee
    duration, warmup = 3.0, 1.0
    result = ExperimentResult(
        "fig12-scale", "Open-loop throughput scaling to 512 nodes")
    rows = []
    for n in sizes:
        cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log())
        target = SpinnakerTarget(n, config=cfg, seed=seed)
        point = run_open_load(
            target, mixed_workload(0.2, "strong"),
            n_users=n * users_per_node, rate=n * per_node_rate,
            duration=duration, warmup=warmup,
            arrivals=PoissonArrivals, shards=max(4, n // 8), seed=seed)
        rows.append({
            "nodes": n, "users": point.n_users,
            "active_users": point.active_users,
            "offered_per_s": point.offered_rate,
            "observed_offered_per_s": round(point.observed_offered, 1),
            "throughput": round(point.throughput, 1),
            "per_node_throughput": round(point.throughput / n, 2),
            "mean_ms": round(point.mean_ms, 3),
            "p50_ms": round(point.p50_ms, 3),
            "p95_ms": round(point.p95_ms, 3),
            "p99_ms": round(point.p99_ms, 3),
            "ops": point.ops, "errors": point.errors, "shed": point.shed,
            "user_state_mib": round(point.user_state_bytes / 2 ** 20, 2),
        })
    result.series["spinnaker-open-loop"] = rows
    per_node = [r["per_node_throughput"] for r in rows]
    ratio = max(per_node) / min(per_node) if min(per_node) > 0 else 1e9
    result.checks["throughput_linear"] = ratio < 1.25
    result.checks["no_overload_shedding"] = all(
        r["shed"] <= max(1, 0.01 * r["offered_per_s"] * duration)
        for r in rows)
    result.checks["latency_flat_across_sizes"] = (
        max(r["p95_ms"] for r in rows)
        / max(min(r["p95_ms"] for r in rows), 1e-9) < 2.0)
    result.checks["users_modeled"] = (
        rows[-1]["users"] >= sizes[-1] * users_per_node)
    result.notes = (
        f"per-node throughput {min(per_node):.1f}-{max(per_node):.1f} "
        f"ops/s across {sizes[0]}-{sizes[-1]} nodes "
        f"(max/min {ratio:.3f}); {rows[-1]['users']:,} modeled users at "
        f"{sizes[-1]} nodes in {rows[-1]['user_state_mib']} MiB of "
        f"per-user state")
    result.phases = PHASE_PROBES["fig12-scale"](seed=seed)
    return result


# ---------------------------------------------------------------------------
# Figures 13-16 and ablations
# ---------------------------------------------------------------------------

def fig13_ssd(scale: float = 1.0, seed: int = 1,
              n_nodes: int = 10) -> ExperimentResult:
    """§D.4: SSD log drops write latency to ~6 ms or less."""
    ths = _threads([8, 24, 64, 128, 256], scale)
    result = ExperimentResult("fig13", "Write latency with an SSD log")
    _write_sweep(result, ths, _ops(scale, 40),
                 spin_cfg=SpinnakerConfig(log_profile=DiskProfile.ssd_log()),
                 cass_cfg=CassandraConfig(log_profile=DiskProfile.ssd_log()),
                 seed=seed, n_nodes=n_nodes,
                 spin_label="spinnaker-writes-ssd",
                 cass_label="cassandra-quorum-writes-ssd")
    spin = result.series["spinnaker-writes-ssd"]
    cass = result.series["cassandra-quorum-writes-ssd"]
    result.checks["most_points_under_6ms"] = (
        sum(p.mean_ms <= 6.0 for p in spin + cass)
        >= 0.7 * len(spin + cass))
    result.notes = (f"spinnaker low-load {spin[0].mean_ms:.2f} ms; "
                    f"cassandra {cass[0].mean_ms:.2f} ms")
    result.phases = PHASE_PROBES["fig13"](seed=seed, n_nodes=n_nodes)
    return result


def fig14_conditional_put(scale: float = 1.0, seed: int = 1,
                          n_nodes: int = 10) -> ExperimentResult:
    """§D.5: conditional put marginally worse than regular put."""
    ths = _threads([4, 8, 16, 32, 64, 96], scale)
    ops = _ops(scale, 40)
    result = ExperimentResult("fig14", "Conditional put vs regular put")
    for label, workload in (("regular-put", write_workload()),
                            ("conditional-put", conditional_put_workload())):
        result.series[label] = sweep(
            lambda: SpinnakerTarget(n_nodes, seed=seed), workload, ths,
            ops_per_thread=ops)
    reg = result.series["regular-put"]
    cond = result.series["conditional-put"]
    gaps = [c.mean_ms / r.mean_ms - 1.0 for c, r in zip(cond, reg)]
    result.checks["conditional_marginally_worse"] = all(
        -0.03 <= g <= 0.35 for g in gaps)
    result.checks["conditional_not_free"] = sum(gaps) / len(gaps) > 0.0
    result.notes = "gap per point: " + ", ".join(f"{g:+.1%}" for g in gaps)
    return result


def fig15_weak_writes(scale: float = 1.0, seed: int = 1,
                      n_nodes: int = 10) -> ExperimentResult:
    """§D.6.1: Cassandra quorum writes 40-50% slower than weak writes."""
    ths = _threads([4, 8, 16, 32, 64, 96], scale)
    ops = _ops(scale, 40)
    result = ExperimentResult("fig15", "Cassandra weak vs quorum writes")
    for mode in ("weak", "quorum"):
        result.series[f"cassandra-{mode}-writes"] = sweep(
            lambda: CassandraTarget(n_nodes, seed=seed),
            write_workload(mode), ths, ops_per_thread=ops)
    weak = result.series["cassandra-weak-writes"]
    quo = result.series["cassandra-quorum-writes"]
    gaps = [q.mean_ms / w.mean_ms - 1.0 for q, w in zip(quo, weak)]
    result.checks["quorum_25_to_70pct_slower"] = all(
        0.10 <= g <= 0.80 for g in gaps)
    result.notes = "gap per point: " + ", ".join(f"{g:+.0%}" for g in gaps)
    return result


def fig16_memory_log(scale: float = 1.0, seed: int = 1,
                     n_nodes: int = 10) -> ExperimentResult:
    """§D.6.2: commit to 2-of-3 main-memory logs → ~2 ms writes."""
    ths = _threads([8, 24, 64, 128, 256], scale)
    ops = _ops(scale, 40)
    result = ExperimentResult("fig16", "Writes with a main-memory log")
    cfg = SpinnakerConfig(log_profile=DiskProfile.memory_log())
    result.series["spinnaker-writes-memlog"] = sweep(
        lambda: SpinnakerTarget(n_nodes, config=cfg, seed=seed),
        write_workload(), ths, ops_per_thread=ops)
    points = result.series["spinnaker-writes-memlog"]
    result.checks["around_2ms_before_knee"] = (
        min(p.mean_ms for p in points) <= 3.0)
    result.notes = f"low-load latency {points[0].mean_ms:.2f} ms"
    result.phases = PHASE_PROBES["fig16"](seed=seed, n_nodes=n_nodes)
    return result


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------

def ablation_parallel_propose(scale: float = 1.0,
                              seed: int = 1) -> ExperimentResult:
    """Fig. 4's parallel force+propose vs a naive serialized leader."""
    ths = _threads([8, 32, 64], scale)
    ops = _ops(scale, 40)
    result = ExperimentResult(
        "ablation-parallel", "Parallel vs serialized force+propose")
    for label, flag in (("parallel", True), ("serialized", False)):
        cfg = SpinnakerConfig(parallel_force_and_propose=flag)
        result.series[label] = sweep(
            lambda cfg=cfg: SpinnakerTarget(10, config=cfg, seed=seed),
            write_workload(), ths, ops_per_thread=ops)
    par = result.series["parallel"]
    ser = result.series["serialized"]
    result.checks["parallel_is_faster"] = all(
        p.mean_ms < s.mean_ms for p, s in zip(par, ser))
    gaps = [s.mean_ms / p.mean_ms - 1.0 for p, s in zip(par, ser)]
    result.notes = "serialized penalty: " + ", ".join(
        f"{g:+.0%}" for g in gaps)
    return result


def ablation_group_commit(scale: float = 1.0,
                          seed: int = 1) -> ExperimentResult:
    """Group commit [13] under concurrent writers."""
    ths = _threads([16, 48, 96], scale)
    ops = _ops(scale, 40)
    result = ExperimentResult("ablation-groupcommit",
                              "Group commit on vs off")
    for label, flag in (("group-commit", True), ("no-group-commit", False)):
        cfg = SpinnakerConfig(group_commit=flag)
        result.series[label] = sweep(
            lambda cfg=cfg: SpinnakerTarget(10, config=cfg, seed=seed),
            write_workload(), ths, ops_per_thread=ops)
    on = result.series["group-commit"]
    off = result.series["no-group-commit"]
    result.checks["group_commit_helps_under_load"] = (
        on[-1].mean_ms < off[-1].mean_ms)
    return result


def ablation_piggyback_commits(scale: float = 1.0,
                               seed: int = 3) -> ExperimentResult:
    """§D.1's note: piggybacking commit info on proposes shrinks the
    unresolved window, making recovery time ~independent of the commit
    period."""
    periods = [1.0, 5.0] if scale < 1.0 else [1.0, 5.0, 10.0]
    result = ExperimentResult(
        "ablation-piggyback", "Commit piggybacking vs recovery time")
    rows_plain, rows_piggy = [], []
    for period in periods:
        # Batching off in both arms: batched takeover re-propose also
        # flattens recovery, which would mask the effect this ablation
        # isolates (the unresolved-window size).
        plain = _measure_recovery(
            period, seed, config=SpinnakerConfig(propose_batching=False))
        cfg = SpinnakerConfig(piggyback_commits=True,
                              propose_batching=False)
        piggy = _measure_recovery(period, seed, config=cfg)
        rows_plain.append({"commit_period_s": period,
                           "recovery_time_s": round(plain, 3)})
        rows_piggy.append({"commit_period_s": period,
                           "recovery_time_s": round(piggy, 3)})
    result.series["periodic-commit-msgs"] = rows_plain
    result.series["piggybacked-commits"] = rows_piggy
    spread_plain = (rows_plain[-1]["recovery_time_s"]
                    - rows_plain[0]["recovery_time_s"])
    spread_piggy = (rows_piggy[-1]["recovery_time_s"]
                    - rows_piggy[0]["recovery_time_s"])
    result.checks["piggyback_flattens_recovery"] = (
        spread_piggy < 0.5 * spread_plain)
    return result


def ablation_skewed_reads(scale: float = 1.0,
                          seed: int = 1) -> ExperimentResult:
    """Beyond the paper: Zipfian key skew concentrates strong reads on
    the hot range's leader, while timeline reads spread the hot range
    over its three replicas — quantifying the §8.3 trade-off ("all the
    reads for a cohort have to be routed to the cohort's leader")."""
    # Skew only shows once the hot leader saturates (~100 closed-loop
    # threads), so the thread sweep never shrinks below scale 0.4;
    # smaller scales only cut the ops per thread.
    ths = _threads([64, 160, 256], max(scale, 0.4))
    ops = _ops(scale, 40)
    result = ExperimentResult(
        "ablation-skew", "Uniform vs Zipfian reads (strong vs timeline)")
    for label, mode, dist in (
            ("strong-uniform", "strong", "uniform"),
            ("strong-zipfian", "strong", "zipfian"),
            ("timeline-zipfian", "timeline", "zipfian")):
        wl = read_workload(mode, preload_rows=500)
        wl.key_distribution = dist
        result.series[label] = sweep(
            lambda: SpinnakerTarget(10, seed=seed), wl, ths,
            ops_per_thread=ops, warmup_ops=15)
    uniform = result.series["strong-uniform"]
    skewed = result.series["strong-zipfian"]
    timeline = result.series["timeline-zipfian"]
    # Skew hurts strong reads (hot leader saturates)...
    result.checks["skew_hurts_strong_reads"] = (
        skewed[-1].mean_ms > 1.2 * uniform[-1].mean_ms)
    # ...and timeline reads absorb the same skew far better.
    result.checks["timeline_absorbs_skew"] = (
        timeline[-1].mean_ms < skewed[-1].mean_ms)
    result.notes = (f"at {ths[-1]} threads: strong-uniform "
                    f"{uniform[-1].mean_ms:.1f} ms, strong-zipf "
                    f"{skewed[-1].mean_ms:.1f} ms, timeline-zipf "
                    f"{timeline[-1].mean_ms:.1f} ms")
    return result


def ablation_batching(scale: float = 1.0,
                      seed: int = 1) -> ExperimentResult:
    """Leader proposal batching: where does the write knee move?

    Fig. 16's memory-log configuration isolates the per-message CPU
    overheads that batching amortizes (no log device in the way).  Sweep
    the batch-size cap under heavy concurrency and locate the knee: the
    batcher should multiply peak throughput while an idle pipeline keeps
    flushing every write immediately (no low-load latency tax).
    """
    ths = _threads([16, 128, 512, 1024], scale)
    ops = _ops(scale, 40)
    result = ExperimentResult(
        "ablation-batching", "Proposal batching: throughput knee vs cap")
    for label, cap in (("batching-off", None), ("batch-4", 4),
                       ("batch-8", 8), ("batch-16", 16)):
        cfg = SpinnakerConfig(log_profile=DiskProfile.memory_log())
        if cap is None:
            cfg.propose_batching = False
        else:
            cfg.propose_batch_max_records = cap
        result.series[label] = sweep(
            lambda cfg=cfg: SpinnakerTarget(10, config=cfg, seed=seed),
            write_workload(), ths, ops_per_thread=ops)
    off = result.series["batching-off"]
    b8 = result.series["batch-8"]
    peak_off, peak_b8 = _max_load(off), _max_load(b8)
    # The knee only shows once offered load saturates the unbatched
    # pipeline; smoke scales (< ~80 closed-loop threads) cannot drive it
    # there, so the throughput check needs a real sweep.
    if scale >= 0.25:
        result.checks["batch8_peak_1_5x"] = peak_b8 >= 1.5 * peak_off
        # Past the sweet spot returns plateau: cap 16 must stay in the
        # batched regime (well above off), not beat cap 8.
        result.checks["cap_16_stays_in_batched_regime"] = (
            _max_load(result.series["batch-16"]) >= 0.85 * peak_b8)
    result.checks["low_load_latency_within_5pct"] = (
        b8[0].mean_ms <= off[0].mean_ms * 1.05)
    result.notes = (
        f"peak req/s: off={peak_off:.0f} "
        f"b4={_max_load(result.series['batch-4']):.0f} "
        f"b8={peak_b8:.0f} "
        f"b16={_max_load(result.series['batch-16']):.0f} "
        f"(knee shift {peak_b8 / peak_off:.2f}x); low-load ms: "
        f"off={off[0].mean_ms:.2f} b8={b8[0].mean_ms:.2f}")
    return result


# ---------------------------------------------------------------------------
# Elastic scale-out: throughput ramps as nodes join under load
# ---------------------------------------------------------------------------

def _elastic_config() -> SpinnakerConfig:
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log())
    cfg.commit_period = 0.2
    # The moved range is briefly leaderless between the map switch and
    # the child cohort's first election; clients must ride that window
    # out on retries rather than surface it as a failed operation.
    cfg.client_op_timeout = 30.0
    cfg.client_max_retries = 600
    return cfg


def _observed_heat(cluster) -> Dict[int, float]:
    """Per-cohort load from the replicas' served-op counters — the
    planner input, measured rather than assumed."""
    heat: Dict[int, float] = {}
    for node in cluster.nodes.values():
        for cid, replica in node.replicas.items():
            heat[cid] = (heat.get(cid, 0.0) + replica.reads_served
                         + replica.writes_served)
    return heat


def _elastic_chaos_move(seed: int, crash_joiner: bool):
    """One audited split with a mid-move crash (the joining node or the
    migration leader); returns (converged, invariant violations)."""
    cluster = SpinnakerCluster(n_nodes=5, config=_elastic_config(),
                               seed=seed)
    cluster.start()
    client = cluster.client("chaos-seed")
    keys = cluster.partitioner.keys_in_cohort(0, 10, b"chaos-")

    def writer():
        for key in keys:
            yield from client.put(key, b"v", b"x")
    run_process(cluster.sim, writer(), limit=120.0, what="chaos preload")

    cluster.add_node("node5")
    plans = plan_join(cluster.partitioner, ["node5"],
                      heat={c.cohort_id: (100.0 if c.cohort_id == 0
                                          else 1.0)
                            for c in cluster.partitioner.cohorts})
    auditor = InvariantAuditor(cluster)
    audit_proc = spawn(cluster.sim, auditor.run(period=0.25))
    reb = Rebalancer(cluster)
    move = spawn(cluster.sim, reb.execute(plans, move_timeout=240.0))
    cluster.run_until(lambda: reb.attempts >= 1, limit=60.0,
                      what="first migration attempt")
    cluster.run(0.05)                   # land the crash mid-move
    if crash_joiner:
        cluster.crash_node("node5", skip_detection=True)
        cluster.run(1.0)
        cluster.restart_node("node5")
    else:
        killed = cluster.kill_leader(plans[0].cohort_id)
        cluster.run(1.0)
        if killed is not None:
            cluster.restart_node(killed)
    run_process(cluster.sim, move, limit=300.0, what="chaos rebalance")
    cluster.run(2.0)                    # settle before the final audit
    audit_proc.interrupt("done")
    auditor.final_audit()
    return reb.done, auditor.violations


def fig11_elastic(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Beyond the paper (§10 future work): live cluster growth.

    A 5-node cluster serves a sustained mixed load skewed ~70% onto
    cohort 0's range; two nodes join mid-run and the rebalancer splits
    the hot range onto them (leader-driven migration, atomic map
    switch).  Throughput is measured before, during, and after the
    moves: the post-join window must show the hot range's knee lifted
    (>= 1.4x at full scale) with zero failed strong reads.  A chaos
    coda replays the move while crashing first the joining node, then
    the migration leader — the invariant auditor must stay clean.
    """
    threads = max(4, int(round(40 * scale)))
    window = max(2.0, 10.0 * scale)
    cluster = SpinnakerCluster(n_nodes=5, config=_elastic_config(),
                               seed=seed)
    cluster.start()
    sim = cluster.sim
    rng_master = cluster.rng.fork(f"elastic-{seed}")
    value = b"x" * VALUE_SIZE
    hot_keys = cluster.partitioner.keys_in_cohort(0, 24, b"ek-")
    cold_keys = [b"ck-%d" % i for i in range(48)]

    seeder = cluster.client("elastic-seed")

    def preload():
        for key in hot_keys + cold_keys:
            yield from seeder.put(key, b"v", value)
    run_process(sim, preload(), limit=300.0, what="elastic preload")

    stop = {"flag": False}
    stats = {"ops": 0, "failed_strong": 0, "failed_writes": 0,
             "drained": 0}

    def load_thread(tid: int):
        client = cluster.client(f"elastic{tid}")
        rng = rng_master.stream(f"thread-{tid}")
        while not stop["flag"]:
            keys = hot_keys if rng.random() < 0.7 else cold_keys
            key = keys[rng.randrange(len(keys))]
            is_write = rng.random() < 0.5
            try:
                if is_write:
                    yield from client.put(key, b"v", value)
                else:
                    yield from client.get(key, b"v", consistent=True)
            except RequestTimeout:
                stats["failed_writes" if is_write
                      else "failed_strong"] += 1
                continue
            stats["ops"] += 1
        stats["drained"] += 1

    for tid in range(threads):
        spawn(sim, load_thread(tid), name=f"elastic-thread-{tid}")

    def measure(duration: float) -> float:
        ops0, t0 = stats["ops"], sim.now
        cluster.run(duration)
        dt = sim.now - t0
        return (stats["ops"] - ops0) / dt if dt > 0 else 0.0

    cluster.run(3.0)                    # warm caches and leader routes
    before = measure(window)

    heat = _observed_heat(cluster)
    cluster.add_node("node5")
    cluster.add_node("node6")
    plans = plan_join(cluster.partitioner, ["node5", "node6"], heat=heat)
    reb = Rebalancer(cluster)
    move_t0, move_ops0 = sim.now, stats["ops"]
    run_process(sim, reb.execute(plans, move_timeout=300.0), limit=900.0,
                what="elastic rebalance")
    move_dt = sim.now - move_t0
    during = ((stats["ops"] - move_ops0) / move_dt if move_dt > 0
              else 0.0)

    cluster.run(1.0)                    # let the new leaders settle
    after = measure(window)

    stop["flag"] = True
    cluster.run_until(lambda: stats["drained"] == threads, limit=120.0,
                      what="elastic load drain")

    result = ExperimentResult(
        "fig11-elastic", "Elastic growth: throughput vs cluster size")
    result.series["elastic"] = [
        {"phase": "before", "nodes": 5, "throughput": round(before, 1)},
        {"phase": "during-move", "nodes": 7,
         "throughput": round(during, 1)},
        {"phase": "after", "nodes": 7, "throughput": round(after, 1)},
    ]

    part = cluster.partitioner
    result.checks["converged"] = (
        reb.done and part.version == 1 + len(plans)
        and all(cluster.leader_of(c.cohort_id) is not None
                for c in part.cohorts))
    result.checks["new_nodes_lead_split_ranges"] = all(
        cluster.leader_of(p.new_cohort_id) == p.new_members[0]
        for p in plans)
    result.checks["zero_failed_strong_reads"] = (
        stats["failed_strong"] == 0)
    if scale >= 0.9:
        # Closed-loop throughput only lifts once the hot leader was the
        # bottleneck; smoke scales cannot drive it there.
        result.checks["peak_ratio_geq_1_4"] = after >= 1.4 * before
    joiner_ok, joiner_viol = _elastic_chaos_move(seed + 101,
                                                 crash_joiner=True)
    leader_ok, leader_viol = _elastic_chaos_move(seed + 202,
                                                 crash_joiner=False)
    result.checks["chaos_joiner_crash_clean"] = (
        joiner_ok and not joiner_viol)
    result.checks["chaos_leader_crash_clean"] = (
        leader_ok and not leader_viol)
    result.notes = (
        f"{threads} threads, 70% hot-range ops; req/s "
        f"before={before:.0f} during={during:.0f} after={after:.0f} "
        f"(ratio {after / before if before else 0.0:.2f}x); "
        f"move took {move_dt:.1f}s for {len(plans)} splits; "
        f"failed strong reads={stats['failed_strong']}; chaos "
        f"violations: joiner={len(joiner_viol)} "
        f"leader={len(leader_viol)}")
    return result


# ---------------------------------------------------------------------------
# Recovery ramp: rejoin time bounded by gap size, not history length
# ---------------------------------------------------------------------------

def _recovery_config() -> SpinnakerConfig:
    """Tiny flush threshold and chunk budget: even short histories roll
    the log into many small SSTables, so rejoin exercises the chunked
    snapshot catch-up path rather than plain log replay."""
    return SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                           commit_period=0.1,
                           flush_threshold_bytes=6_000,
                           catchup_chunk_bytes=8_192)


def _measure_rejoin(seed: int, history_rounds: int,
                    gap_rounds: int) -> Dict[str, object]:
    """Crash a follower, write a fixed-size gap, restart it, and time
    the rejoin.  ``history_rounds`` of healthy traffic precede the
    crash: the 1x/10x knob that must *not* show up in the rejoin time."""
    from ..core import Role
    cluster = SpinnakerCluster(n_nodes=3, config=_recovery_config(),
                               seed=seed)
    cluster.start()
    sim = cluster.sim
    # Enough distinct keys that one round exceeds the flush threshold
    # (the memtable counts live cells, so overwrites don't accumulate).
    keys = cluster.partitioner.keys_in_cohort(0, 30, b"fr-")
    client = cluster.client("fr-writer")

    def burst(rounds: int, tag: bytes):
        for r in range(rounds):
            for key in keys:
                yield from client.put(key, b"c",
                                      tag + b"-%d" % r + b"x" * 200)

    run_process(sim, burst(history_rounds, b"hist"), limit=600.0,
                what="fig-recovery history")

    # The victim misses a fixed-size gap — identical at both histories.
    leader = cluster.leader_of(0)
    victim = next(m for m in cluster.partitioner.cohort(0).members
                  if m != leader)
    cluster.crash_node(victim, skip_detection=True)
    run_process(sim, burst(gap_rounds, b"gap"), limit=600.0,
                what="fig-recovery gap writes")

    leader_node = cluster.nodes[cluster.leader_of(0)]
    leader_records = len(leader_node.wal.write_records(0))
    leader_markers = leader_node.wal.marker_count()
    target_cmt = cluster.replica(cluster.leader_of(0), 0).committed_lsn

    t0 = sim.now
    cluster.restart_node(victim)
    replica = cluster.replica(victim, 0)
    cluster.run_until(
        lambda: (replica.role == Role.FOLLOWER
                 and replica.committed_lsn >= target_cmt),
        limit=300.0, step=0.005, what="fig-recovery rejoin")
    return {
        "history_rounds": history_rounds,
        "gap_rounds": gap_rounds,
        "rejoin_s": round(sim.now - t0, 4),
        "chunks": replica.catchup_chunks_ingested,
        "tables": replica.catchup_tables_ingested,
        "leader_wal_records": leader_records,
        "leader_wal_markers": leader_markers,
        "failures": len(cluster.all_failures()),
    }


def _measure_elastic_ramp(seed: int,
                          history_rounds: int) -> Dict[str, object]:
    """One audited fig11-elastic-style join after ``history_rounds`` of
    history: the split joiner is repaired through the same chunked
    snapshot-install path, so the move time must track the live data
    size, not the history length."""
    cluster = SpinnakerCluster(n_nodes=3, config=_recovery_config(),
                               seed=seed)
    cluster.start()
    sim = cluster.sim
    keys = cluster.partitioner.keys_in_cohort(0, 30, b"fr-")
    client = cluster.client("fr-elastic")

    def burst():
        for r in range(history_rounds):
            for key in keys:
                yield from client.put(key, b"c",
                                      b"e-%d" % r + b"x" * 200)

    run_process(sim, burst(), limit=600.0,
                what="fig-recovery elastic history")

    auditor = InvariantAuditor(cluster)
    audit = spawn(sim, auditor.run(period=0.25))
    cluster.add_node("node3")
    plans = plan_join(cluster.partitioner, ["node3"],
                      heat={c.cohort_id: (100.0 if c.cohort_id == 0
                                          else 1.0)
                            for c in cluster.partitioner.cohorts})
    reb = Rebalancer(cluster)
    t0 = sim.now
    run_process(sim, reb.execute(plans, move_timeout=240.0), limit=300.0,
                what="fig-recovery elastic move")
    move_s = sim.now - t0
    cluster.run(1.0)
    audit.interrupt("done")
    auditor.final_audit()
    return {"history_rounds": history_rounds,
            "move_s": round(move_s, 4),
            "converged": bool(reb.done),
            "violations": len(auditor.violations)}


def fig_recovery(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Beyond the paper: crash-resumable snapshot catch-up (§6.1 plus
    the chunked-transfer extension).

    A follower misses a *fixed-size* write gap after 1x and after 10x
    total history.  Snapshot manifests bound the leader's log and marker
    list, and chunked catch-up ships only gap-covering tables, so the
    rejoin time must track the gap, not the history.  An elastic coda
    replays the fig11-elastic join ramp at both histories through the
    same snapshot-install path.
    """
    base = max(2, int(round(8 * scale)))
    gap = max(2, int(round(6 * scale)))
    result = ExperimentResult(
        "fig-recovery",
        "Rejoin time vs history length (fixed catch-up gap)")

    rows = []
    for label, rounds in (("1x", base), ("10x", 10 * base)):
        row = _measure_rejoin(seed, rounds, gap)
        row["history"] = label
        rows.append(row)
    result.series["rejoin"] = rows
    r1, r10 = rows
    result.checks["no_handler_failures"] = all(
        r["failures"] == 0 for r in rows)
    # Rejoin at 10x history must be bounded by the (identical) gap; 3x
    # plus scheduling slack is far below what a history-proportional
    # catch-up would show.
    result.checks["rejoin_bounded_by_gap"] = (
        r10["rejoin_s"] <= 3.0 * r1["rejoin_s"] + 0.5)
    # Retention keyed off the manifest horizon keeps the leader's log
    # and marker list bounded as the history grows 10x.
    result.checks["wal_records_bounded"] = (
        r10["leader_wal_records"]
        <= 3 * max(r1["leader_wal_records"], 1) + 64)
    result.checks["wal_markers_bounded"] = (
        r10["leader_wal_markers"]
        <= 3 * max(r1["leader_wal_markers"], 1) + 64)

    ramps = []
    for label, rounds in (("1x", base), ("10x", 10 * base)):
        ramp = _measure_elastic_ramp(seed + 7, rounds)
        ramp["history"] = label
        ramps.append(ramp)
    result.series["elastic-ramp"] = ramps
    e1, e10 = ramps
    result.checks["elastic_ramp_clean"] = all(
        r["converged"] and r["violations"] == 0 for r in ramps)
    result.checks["elastic_ramp_bounded"] = (
        e10["move_s"] <= 3.0 * e1["move_s"] + 0.5)
    result.notes = (
        f"gap={gap} rounds; rejoin 1x={r1['rejoin_s']:.3f}s "
        f"10x={r10['rejoin_s']:.3f}s "
        f"(ratio {r10['rejoin_s'] / r1['rejoin_s'] if r1['rejoin_s'] else 0.0:.2f}x); "
        f"leader WAL records 1x={r1['leader_wal_records']} "
        f"10x={r10['leader_wal_records']}, markers "
        f"1x={r1['leader_wal_markers']} 10x={r10['leader_wal_markers']}; "
        f"elastic move 1x={e1['move_s']:.2f}s 10x={e10['move_s']:.2f}s")
    return result


# ---------------------------------------------------------------------------
# fig-wan: multi-datacenter latency/consistency frontier
# ---------------------------------------------------------------------------

def _wan_topology(n_nodes: int, n_dcs: int = 3, wan_one_way: float = 0.025,
                  asymmetry: float = 0.25) -> Topology:
    """A realistic 3-DC WAN: ~25 ms one-way base propagation with a
    deterministic per-direction skew (routes are asymmetric), nodes
    placed round-robin across datacenters."""
    delays = {}
    for i in range(n_dcs):
        for j in range(n_dcs):
            if i == j:
                continue
            skew = ((3 * i + j) % 4) / 3.0
            delays[(f"dc{i}", f"dc{j}")] = (
                wan_one_way * (1.0 + asymmetry * skew))
    topo = Topology(wan_one_way=wan_one_way, wan_delays=delays,
                    preferred_dc="dc0")
    for i in range(n_nodes):
        topo.place(f"node{i}", f"dc{i % n_dcs}")
    return topo


def _wan_cluster(seed: int, placement: str, n_nodes: int = 9):
    topo = _wan_topology(n_nodes)
    cfg = SpinnakerConfig(log_profile=DiskProfile.ssd_log(),
                          commit_period=0.25)
    cluster = SpinnakerCluster(n_nodes=n_nodes, config=cfg, seed=seed,
                               topology=topo, placement=placement)
    cluster.start()
    return cluster, topo


def _wan_keys(cluster, topo: Topology, dc: str, count: int,
              prefix: bytes = b"wan") -> List[bytes]:
    """Deterministic keys whose cohort leader currently sits in ``dc``
    (so client → leader is a LAN hop and the measured latency isolates
    the replication path)."""
    keys: List[bytes] = []
    i = 0
    while len(keys) < count and i < 4096:
        key = b"%s-%d" % (prefix, i)
        cohort = cluster.partitioner.locate(key)
        leader = cluster.leader_of(cohort.cohort_id)
        if leader is not None and topo.dc_of(leader) == dc:
            keys.append(key)
        i += 1
    return keys


def _wan_client(cluster, topo: Topology, name: str, dc: str):
    topo.place(name, dc)
    return cluster.client(name)


def _op_loop(cluster, client, op, keys: List[bytes], count: int,
             pace: float, hist: Histogram, failures: List[int]):
    for i in range(count):
        start = cluster.sim.now
        try:
            yield from op(client, keys[i % len(keys)], i)
        except DatastoreError:
            failures[0] += 1
        else:
            hist.add(cluster.sim.now - start)
        yield timeout(cluster.sim, pace)


def _timed_phase(cluster, client, op, keys: List[bytes], count: int,
                 pace: float):
    """Drive ``count`` paced ops to completion; (Histogram, failures)."""
    hist = Histogram()
    failures = [0]
    run_process(cluster.sim,
                _op_loop(cluster, client, op, keys, count, pace, hist,
                         failures),
                limit=count * (pace + 5.0) + 30.0,
                what=f"wan ops via {client.name}")
    return hist, failures[0]


def _lat_row(hist: Histogram, failures: int, **extra) -> dict:
    row = {
        "count": hist.count,
        "mean_ms": round(hist.mean() * 1e3, 3) if hist.count else 0.0,
        "p50_ms": (round(hist.percentile(50) * 1e3, 3)
                   if hist.count else 0.0),
        "p95_ms": (round(hist.percentile(95) * 1e3, 3)
                   if hist.count else 0.0),
        "failures": failures,
    }
    row.update(extra)
    return row


def fig_wan(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Beyond the paper: the multi-datacenter latency/consistency
    frontier (3 DCs, ~25 ms one-way WAN links, asymmetric routes).

    Strong writes whose replicas are spread one-per-DC pay at least one
    WAN round trip per commit (the quorum ack must cross a WAN link);
    pinning the quorum's majority inside the client's datacenter
    ("local" placement) buys LAN-latency strong writes at the cost of a
    whole-DC failure forcing a cross-DC failover; timeline reads served
    by the client's nearest replica stay well under one WAN RTT from a
    remote DC.  A chaos coda then (a) degrades a WAN link by less than
    the lease margin — sessions must not flap — and (b) partitions a
    whole datacenter — writes keep committing on the surviving
    majority — under invariant audit and a strong-history check.
    """
    n_ops = max(10, int(round(60 * scale)))
    n_keys = max(4, int(round(12 * scale)))
    pace = 0.05
    result = ExperimentResult(
        "fig-wan", "WAN latency/consistency frontier (3 datacenters)")

    def put(client, key, i):
        return (yield from client.put(key, b"c", b"w%d" % i))

    def timeline_get(client, key, i):
        return (yield from client.get(key, b"c", consistent=False))

    # -- cross-DC quorum writes + timeline reads (spread placement) -----
    cluster, topo = _wan_cluster(seed, "spread")
    wan_floor_ms = topo.min_wan_rtt() * 1e3
    keys = _wan_keys(cluster, topo, "dc0", n_keys)
    writer = _wan_client(cluster, topo, "wan-w0", "dc0")
    cross_hist, cross_fail = _timed_phase(
        cluster, writer, put, keys, n_ops, pace)
    cluster.run(1.0)   # let commits propagate to the remote followers
    reader = _wan_client(cluster, topo, "wan-r1", "dc1")
    tl_hist, tl_fail = _timed_phase(
        cluster, reader, timeline_get, keys, n_ops, pace)
    cross_row = _lat_row(cross_hist, cross_fail,
                         placement="spread", client_dc="dc0")
    tl_row = _lat_row(tl_hist, tl_fail,
                      placement="spread", client_dc="dc1")
    result.series["cross-dc-quorum-writes"] = [cross_row]
    result.series["timeline-reads"] = [tl_row]

    # -- chaos coda on the spread cluster -------------------------------
    sim = cluster.sim
    recorder = HistoryRecorder()
    auditor = InvariantAuditor(cluster)
    coda_ops = int(round(4.5 / pace))
    spawn(sim, auditor.run(0.25, until=sim.now + 12.0), name="wan-auditor")

    coda_w = _wan_client(cluster, topo, "wan-coda-w", "dc0")
    coda_r = _wan_client(cluster, topo, "wan-coda-r", "dc0")
    # Fresh keys: the recorded history must contain every write whose
    # version a recorded read can observe, or the checker rightly
    # flags versions appearing from nowhere.
    coda_keys = _wan_keys(cluster, topo, "dc0", n_keys, prefix=b"coda")

    def rec_put(client, key, i):
        start = sim.now
        try:
            res = yield from client.put(key, b"c", b"x%d" % i)
        except DatastoreError:
            recorder.record_write(key, start, sim.now, 0, ok=False)
            raise
        recorder.record_write(key, start, sim.now, res.version)

    def rec_get(client, key, i):
        start = sim.now
        got = yield from client.get(key, b"c", consistent=True)
        recorder.record_read(key, start, sim.now, got.version)

    w_hist, r_hist = Histogram(), Histogram()
    w_fail, r_fail = [0], [0]
    wproc = spawn(sim, _op_loop(cluster, coda_w, rec_put, coda_keys,
                                coda_ops, pace, w_hist, w_fail),
                  name="wan-coda-w")
    rproc = spawn(sim, _op_loop(cluster, coda_r, rec_get, coda_keys,
                                coda_ops, pace, r_hist, r_fail),
                  name="wan-coda-r")

    losses_before = sum(n.session_losses
                        for n in cluster.nodes.values())
    # (a) a merely-slow WAN link: +10 ms one-way, far below the lease
    # margin — heartbeats must ride it out without a session flap
    log = arm_schedule(cluster, [FaultEvent(
        at=0.1, kind="wan-degrade", duration=1.5, a="dc0", b="dc1",
        extra=0.010)])
    cluster.run(2.0)
    degrade_losses = (sum(n.session_losses
                          for n in cluster.nodes.values())
                      - losses_before)
    # (b) a whole datacenter drops off the map; the measured cohorts
    # (leader dc0, follower dc1) keep their commit quorum throughout
    arm_schedule(cluster, [FaultEvent(
        at=0.2, kind="partition-dc", duration=1.5, a="dc2")], log)
    cluster.run_until(lambda: wproc.triggered and rproc.triggered,
                      limit=90.0, what="wan chaos coda")
    cluster.run_until(cluster.is_ready, limit=60.0,
                      what="post-coda recovery")
    cluster.run(1.0)
    auditor.final_audit()
    history_violations = check_strong_history(recorder)
    result.series["chaos-coda"] = [{
        "writes_acked": w_hist.count,
        "write_failures": w_fail[0],
        "strong_reads": r_hist.count,
        "read_failures": r_fail[0],
        "session_flaps_under_degrade": degrade_losses,
        "invariant_violations": len(auditor.violations),
        "history_violations": len(history_violations),
        "faults": len(log),
    }]

    # -- local-quorum writes (majority pinned in the client's DC) -------
    cluster2, topo2 = _wan_cluster(seed + 1, "local")
    keys2 = _wan_keys(cluster2, topo2, "dc0", n_keys)
    writer2 = _wan_client(cluster2, topo2, "wan-w0", "dc0")
    local_hist, local_fail = _timed_phase(
        cluster2, writer2, put, keys2, n_ops, pace)
    local_row = _lat_row(local_hist, local_fail,
                         placement="local", client_dc="dc0")
    result.series["local-quorum-writes"] = [local_row]

    result.checks["cross_dc_writes_pay_wan_rtt"] = (
        cross_hist.count > 0 and cross_row["p50_ms"] >= wan_floor_ms)
    result.checks["local_writes_below_wan_rtt"] = (
        local_hist.count > 0 and local_row["p95_ms"] < wan_floor_ms)
    result.checks["timeline_reads_below_wan_rtt"] = (
        tl_hist.count > 0 and tl_row["p95_ms"] < wan_floor_ms)
    result.checks["measure_ops_clean"] = (
        cross_fail == 0 and tl_fail == 0 and local_fail == 0)
    result.checks["no_lease_flap_under_degrade"] = degrade_losses == 0
    result.checks["writes_survive_dc_partition"] = (
        w_fail[0] == 0 and w_hist.count > 0)
    result.checks["auditor_clean"] = not auditor.violations
    result.checks["history_clean"] = not history_violations
    result.notes = (
        f"min WAN RTT {wan_floor_ms:.1f} ms; strong writes "
        f"cross-DC p50={cross_row['p50_ms']:.1f} ms vs local-quorum "
        f"p50={local_row['p50_ms']:.1f} ms; timeline reads from dc1 "
        f"p95={tl_row['p95_ms']:.1f} ms; coda: {w_hist.count} writes "
        f"through WAN degrade + dc2 partition, "
        f"{degrade_losses} session flaps")
    return result


def fig_tune(scale: float = 1.0, seed: int = 1) -> ExperimentResult:
    """Self-tuned knobs vs hand-tuned defaults (repro.tune).

    Two arms.  The *default arm* runs the offline tuner from the
    hand-tuned defaults on each flat hardware profile and reports the
    tuned-vs-baseline deltas — where hand-tuning was already optimal the
    honest result is parity, and the ledger still has to show a
    converging multi-trial search.  The *recovery arm* starts the same
    search from a deliberately detuned config (batching and group
    commit off, commit broadcasts stalled) and must climb back to
    within noise of the hand-tuned optimum — evidence the search, not
    the starting point, does the work.
    """
    from ..tune.profiles import DETUNED_START
    from ..tune.search import TuneResult, tune

    result = ExperimentResult(
        "fig-tune", "Self-tuned knobs vs hand-tuned defaults")
    profiles = ("sata", "ssd", "mem") if scale >= 0.25 else ("sata",)
    # Per-trial cost already scales with ``scale``; the budget does not,
    # so the search is never truncated mid-pass at small report scales.
    budget = 48

    def ledger_ok(res: TuneResult) -> bool:
        best_seen = res.trials[0].best_so_far
        for trial in res.trials:
            if trial.best_so_far > best_seen + 1e-9:
                return False
            best_seen = trial.best_so_far
        return (len(res.trials) >= 2
                and res.best_score <= res.baseline_score + 1e-9)

    runs: Dict[str, TuneResult] = {}
    rows = []
    for name in profiles:
        res = tune(name, seed=seed, max_trials=budget, scale=scale)
        runs[name] = res
        base = res.baseline.eval.metrics
        best = res.best_trial.eval.metrics
        rows.append({
            "profile": name,
            "baseline_p50_ms": base["p50_ms"],
            "tuned_p50_ms": best["p50_ms"],
            "p50_delta_pct": round(
                100.0 * (best["p50_ms"] - base["p50_ms"])
                / base["p50_ms"], 2),
            "baseline_rps": round(base["throughput"], 1),
            "tuned_rps": round(best["throughput"], 1),
            "rps_delta_pct": round(
                100.0 * (best["throughput"] - base["throughput"])
                / base["throughput"], 2),
            "trials": len(res.trials),
            "knobs_adopted": len(res.best_values),
            "converged": res.converged,
        })
    result.series["tuned-vs-hand-tuned"] = rows

    # recovery arm: always SATA — the profile where the detuned config
    # hurts most (no batching + no group commit on a seeking disk)
    rec = tune("sata", seed=seed, max_trials=budget, scale=scale,
               start=DETUNED_START)
    hand = runs["sata"].baseline.eval.metrics
    det = rec.baseline.eval.metrics
    recm = rec.best_trial.eval.metrics
    result.series["recovery"] = [{
        "profile": "sata",
        "detuned_p50_ms": det["p50_ms"],
        "recovered_p50_ms": recm["p50_ms"],
        "hand_tuned_p50_ms": hand["p50_ms"],
        "detuned_rps": round(det["throughput"], 1),
        "recovered_rps": round(recm["throughput"], 1),
        "hand_tuned_rps": round(hand["throughput"], 1),
        "trials": len(rec.trials),
        "converged": rec.converged,
    }]

    deltas = [(r["p50_delta_pct"], r["rps_delta_pct"]) for r in rows]
    result.checks["ledger_converges_monotone"] = all(
        ledger_ok(r) for r in list(runs.values()) + [rec])
    result.checks["tuned_not_worse"] = all(
        r["tuned_p50_ms"] <= r["baseline_p50_ms"] * 1.03
        and r["tuned_rps"] >= r["baseline_rps"] * 0.97 for r in rows)
    result.checks["improves_or_parity"] = (
        any(dp <= -5.0 or dt >= 5.0 for dp, dt in deltas)
        or all(abs(dp) <= 2.5 and abs(dt) <= 2.5 for dp, dt in deltas))
    # recovery quality needs enough load for the detuning to bite;
    # below that the arm still exercises the code path
    if scale >= 0.25:
        result.checks["search_converged"] = all(
            r.converged for r in runs.values())
        result.checks["recovery_reaches_hand_tuned"] = (
            recm["p50_ms"] <= hand["p50_ms"] * 1.10
            and recm["throughput"] >= hand["throughput"] * 0.90)
        result.checks["recovery_search_pays"] = (
            rec.best_score < rec.baseline_score - 1e-6)
    best_row = min(rows, key=lambda r: r["p50_delta_pct"])
    result.notes = (
        f"budget {budget} trials/profile (seed {seed}); best default-arm "
        f"delta: {best_row['profile']} p50 "
        f"{best_row['p50_delta_pct']:+.1f}%, throughput "
        f"{best_row['rps_delta_pct']:+.1f}%; recovery arm (sata): "
        f"p50 {det['p50_ms']:.2f} -> {recm['p50_ms']:.2f} ms vs "
        f"hand-tuned {hand['p50_ms']:.2f} ms in {len(rec.trials)} trials")
    return result


#: registry used by the CLI report and the benchmark suite
ALL_EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig8": fig8_read_latency,
    "fig9": fig9_write_latency,
    "table1": table1_recovery,
    "fig11": fig11_scaling,
    "fig11-elastic": fig11_elastic,
    "fig-recovery": fig_recovery,
    "fig-wan": fig_wan,
    "fig12": fig12_mixed,
    "fig12-scale": fig12_scale,
    "fig13": fig13_ssd,
    "fig14": fig14_conditional_put,
    "fig15": fig15_weak_writes,
    "fig16": fig16_memory_log,
    "ablation-parallel": ablation_parallel_propose,
    "ablation-groupcommit": ablation_group_commit,
    "ablation-piggyback": ablation_piggyback_commits,
    "ablation-skew": ablation_skewed_reads,
    "ablation-batching": ablation_batching,
    "fig-tune": fig_tune,
}
