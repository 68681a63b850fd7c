"""Module -> layer map and per-layer aggregation of a cProfile run.

Every module under ``src/repro`` is named in exactly one layer.
:func:`check_complete` fails when a module is missing or listed twice,
so a new module cannot quietly move time into an unmeasured layer.
Code outside the repo (the standard library and builtins) is charged to
the layers that called it.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from typing import Dict, List, Tuple

#: layer -> the modules it owns (dotted names; a package's __init__ is
#: the package name itself)
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.events": ("repro.sim.events",),
    "sim.process": ("repro.sim.process",),
    "sim.resources": ("repro.sim.resources",),
    "sim.network": ("repro.sim.network",),
    "sim.disk": ("repro.sim.disk",),
    "sim.other": ("repro.sim", "repro.sim.failure", "repro.sim.metrics",
                  "repro.sim.rng", "repro.sim.topology",
                  "repro.sim.tracing"),
    "storage.wal": ("repro.storage.wal",),
    "storage.memtable": ("repro.storage.memtable",),
    "storage.engine": ("repro.storage", "repro.storage.bloom",
                       "repro.storage.compaction", "repro.storage.engine",
                       "repro.storage.lsn", "repro.storage.records",
                       "repro.storage.snapshot", "repro.storage.sstable"),
    "core.api": ("repro.core.api",),
    "core.partition": ("repro.core.partition",),
    "core.node": ("repro.core.node",),
    "core.replication": ("repro.core.replication",),
    "core.batching": ("repro.core.batching",),
    "core.commitqueue": ("repro.core.commitqueue",),
    "core.election": ("repro.core.election",),
    "core.recovery": ("repro.core.recovery",),
    # core.other also takes the modules off the request path: fault
    # injection and auditing, the knob tuner, the lint suite, the
    # eventually consistent baseline and the package root.
    "core.other": ("repro.core", "repro.core.checker", "repro.core.cluster",
                   "repro.core.config", "repro.core.datamodel",
                   "repro.core.loadbalance", "repro.core.masterslave",
                   "repro.core.messages", "repro.core.multiop",
                   "repro.core.rebalance",
                   "repro", "repro.__main__", "repro.analysis",
                   "repro.analysis.atomicity", "repro.analysis.cli",
                   "repro.analysis.determinism", "repro.analysis.findings",
                   "repro.analysis.protocol", "repro.analysis.runner",
                   "repro.baseline", "repro.baseline.client",
                   "repro.baseline.cluster", "repro.baseline.config",
                   "repro.baseline.messages", "repro.baseline.node",
                   "repro.chaos", "repro.chaos.catchup",
                   "repro.chaos.invariants", "repro.chaos.nemesis",
                   "repro.chaos.shrinker", "repro.tune", "repro.tune.cli",
                   "repro.tune.evaluator", "repro.tune.objective",
                   "repro.tune.profiles", "repro.tune.registry",
                   "repro.tune.search"),
    "coord": ("repro.coord", "repro.coord.client", "repro.coord.recipes",
              "repro.coord.service", "repro.coord.znode"),
    "obs": ("repro.obs", "repro.obs.cli", "repro.obs.phases",
            "repro.obs.trace"),
    "bench": ("repro.bench", "repro.bench.experiments",
              "repro.bench.harness", "repro.bench.openloop",
              "repro.bench.report", "repro.bench.workload", "perfbench"),
}

_OWNER: Dict[str, str] = {module: layer
                          for layer, modules in LAYERS.items()
                          for module in modules}


def _module_name(path: str, root: str, package: str) -> str:
    rel = os.path.relpath(path, root)[:-len(".py")].split(os.sep)
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join([package] + rel)


def repo_modules(src_repro: str) -> List[str]:
    """Dotted names of every module under ``src_repro``."""
    out = []
    for dirpath, dirnames, filenames in os.walk(src_repro):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        out.extend(_module_name(os.path.join(dirpath, f), src_repro,
                                "repro")
                   for f in sorted(filenames) if f.endswith(".py"))
    return out


def check_complete(src_repro: str) -> List[str]:
    """Problems with the layer map; empty when every module under
    ``src_repro`` is in exactly one layer and every listed module
    exists."""
    problems = []
    listed = [m for modules in LAYERS.values() for m in modules]
    for module in sorted({m for m in listed if listed.count(m) > 1}):
        problems.append(f"module {module} is in more than one layer")
    present = set(repo_modules(src_repro))
    for module in sorted(present - set(listed)):
        problems.append(f"module {module} is in no layer")
    for module in sorted(set(listed) - present - {"perfbench"}):
        problems.append(f"layer map names missing module {module}")
    return problems


class LayerMapper:
    """Maps profiled code locations to layers."""

    def __init__(self, src_repro: str, bench_dir: str):
        self.src_repro = os.path.realpath(src_repro)
        self.bench_dir = os.path.realpath(bench_dir)
        self._cache: Dict[str, object] = {}

    def layer_of_file(self, filename: str):
        """The owning layer, or None for code outside the repo."""
        hit = self._cache.get(filename, False)
        if hit is not False:
            return hit
        layer = None
        path = os.path.realpath(filename) if filename[:1] != "~" else ""
        if path.startswith(self.bench_dir + os.sep):
            layer = "bench"
        elif path.startswith(self.src_repro + os.sep):
            layer = _OWNER[_module_name(path, self.src_repro, "repro")]
        self._cache[filename] = layer
        return layer


def aggregate(stats: pstats.Stats, mapper: LayerMapper
              ) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s": seconds, "calls": count}}`` for every layer.

    A function outside the repo is split over its callers: its self
    time by the self time each caller accounts for, its call count by
    each caller's call count (so call counts stay exactly repeatable).
    A caller outside the repo is resolved the same way, recursively.
    Entries with no repo caller at all (frames already running when
    profiling started) are charged to ``bench``, the benchmark code that
    started them.
    """
    # func -> (cc, nc, tt, ct, callers), callers: caller -> (nc, cc, tt, ct)
    raw = stats.stats
    memo: Dict[Tuple[tuple, int], Dict[str, float]] = {}

    def share_of(func, index: int, visiting) -> Dict[str, float]:
        """Fraction of ``func``'s calls (``index`` 0) or self time
        (``index`` 2) owed to each layer."""
        layer = mapper.layer_of_file(func[0])
        if layer is not None:
            return {layer: 1.0}
        if (func, index) in memo:
            return memo[(func, index)]
        callers = raw[func][4] if func in raw else {}
        weights: Dict[str, float] = defaultdict(float)
        total = 0.0
        for caller in sorted(callers):  # fixed order: exact sums
            if caller == func or caller in visiting:
                continue
            weight = callers[caller][index]
            for lay, frac in share_of(caller, index,
                                      visiting | {func}).items():
                weights[lay] += weight * frac
            total += weight
        result = ({lay: w / total for lay, w in weights.items()}
                  if total > 0 else {"bench": 1.0})
        memo[(func, index)] = result
        return result

    out = {layer: {"self_s": 0.0, "calls": 0.0} for layer in LAYERS}
    for func in sorted(raw):
        _cc, nc, tt, _ct, _callers = raw[func]
        for layer, frac in share_of(func, 2, frozenset()).items():
            out[layer]["self_s"] += tt * frac
        for layer, frac in share_of(func, 0, frozenset()).items():
            out[layer]["calls"] += nc * frac
    return out
