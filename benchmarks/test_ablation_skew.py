"""Ablation: Zipfian key skew vs strong/timeline reads (§8.3 trade-off).

Regenerates the experiment via
:func:`repro.bench.experiments.ablation_skewed_reads`, prints the series,
and asserts the expected shape (skew saturates the hot leader; timeline
reads absorb it).
"""

from repro.bench.experiments import ablation_skewed_reads
from repro.bench.report import render

from conftest import SCALE


def test_ablation_skew(benchmark):
    result = benchmark.pedantic(
        lambda: ablation_skewed_reads(scale=SCALE),
        rounds=1, iterations=1)
    print()
    print(render(result))
    assert result.passed, render(result)
