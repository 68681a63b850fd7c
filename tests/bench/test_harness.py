"""Tests for the benchmark harness and workload definitions."""

import pytest

from repro.bench.harness import (CassandraTarget, LoadPoint,
                                 SpinnakerTarget, run_load)
from repro.bench.workload import (Workload, conditional_put_workload,
                                  mixed_workload, read_workload,
                                  write_workload)
from repro.core import SpinnakerConfig
from repro.core.partition import key_of
from repro.sim.process import run_process


def test_workload_validation():
    with pytest.raises(ValueError):
        Workload(name="bad", write_fraction=1.5).validate()
    with pytest.raises(ValueError):
        Workload(name="bad", value_size=-1).validate()


def test_workload_constructors():
    r = read_workload("strong")
    assert r.write_fraction == 0.0 and r.preload_rows > 0
    w = write_workload()
    assert w.write_fraction == 1.0 and w.preload_rows == 0
    m = mixed_workload(0.3, "timeline")
    assert m.write_fraction == 0.3
    c = conditional_put_workload()
    assert c.write_mode == "conditional"


def test_run_load_produces_sane_point_spinnaker():
    target = SpinnakerTarget(n_nodes=5, seed=3)
    point = run_load(target, write_workload(), threads=4,
                     ops_per_thread=10, warmup_ops=2)
    assert isinstance(point, LoadPoint)
    assert point.ops == 4 * 10
    assert point.errors == 0
    assert point.throughput > 0
    assert 0 < point.mean_ms < 1000
    assert point.p50_ms <= point.p95_ms <= point.p99_ms


def test_run_load_produces_sane_point_cassandra():
    target = CassandraTarget(n_nodes=5, seed=3)
    point = run_load(target, write_workload("weak"), threads=4,
                     ops_per_thread=10, warmup_ops=2)
    assert point.ops == 40
    assert point.errors == 0


def test_preload_makes_reads_hit():
    target = SpinnakerTarget(n_nodes=5, seed=3)
    point = run_load(target, read_workload("strong", preload_rows=50),
                     threads=2, ops_per_thread=15, warmup_ops=2)
    assert point.ops == 30
    assert point.errors == 0
    # Every read found a value: latency then reflects real service time.
    assert point.mean_ms > 1.0


def test_preload_seeds_all_replicas():
    target = SpinnakerTarget(n_nodes=5, seed=3)
    keys = [b"row-%06d" % i for i in range(20)]
    target.preload(keys, value_size=64)
    target.start()
    part = target.cluster.partitioner
    for key in keys:
        cohort = part.cohort_for_key(key_of(key))
        for member in cohort.members:
            replica = target.cluster.nodes[member].replicas[
                cohort.cohort_id]
            cell = replica.engine.get(key, b"v")
            assert cell is not None, (key, member)
            assert cell.version == 1


def test_preload_routes_with_the_cluster_key_mapper():
    """On an order-preserving-key cluster every preloaded row reads back:
    the preload routes each row with the cluster's own key mapper, not
    the hashing default."""
    target = SpinnakerTarget(
        n_nodes=5, seed=3,
        config=SpinnakerConfig(order_preserving_keys=True))
    keys = [b"row-%06d" % i for i in range(200)]
    target.preload(keys, value_size=64)
    target.start()
    client = target.cluster.client()

    def read_back():
        results = []
        for key in keys:
            results.append((yield from client.get(key, b"v")))
        return results

    results = run_process(target.sim, read_back(), 60.0)
    missing = [key for key, got in zip(keys, results) if not got.found]
    assert not missing
    assert all(got.version == 1 for got in results)


def test_conditional_workload_runs_clean():
    target = SpinnakerTarget(n_nodes=5, seed=3)
    point = run_load(target, conditional_put_workload(), threads=3,
                     ops_per_thread=12, warmup_ops=2)
    assert point.errors == 0
    assert point.version_conflicts == 0  # thread-private keys: no races
    assert point.ops == 36


def test_mixed_workload_latency_between_pure_modes():
    reads = run_load(SpinnakerTarget(5, seed=3),
                     read_workload("strong", preload_rows=100),
                     threads=2, ops_per_thread=20, warmup_ops=3)
    writes = run_load(SpinnakerTarget(5, seed=3), write_workload(),
                      threads=2, ops_per_thread=20, warmup_ops=3)
    mixed = run_load(SpinnakerTarget(5, seed=3),
                     mixed_workload(0.5, "strong"),
                     threads=2, ops_per_thread=20, warmup_ops=3)
    assert reads.mean_ms < mixed.mean_ms < writes.mean_ms
