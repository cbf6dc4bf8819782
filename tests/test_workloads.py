"""The benchmark's answers, checked in Tier-1: every point of every
workload in perfbench/workloads.py, run on its base graph in one process,
gives the digest perfbench/reference.json records, with the class-series
misses perfbench/run.py requires (the same count on every cold query, 0 on
a warm sweep point).  perfbench/ is only read, as test_tracer.py reads the
tracer."""

import importlib.util
import json
import sys
from pathlib import Path

from forestvol.interpolate import approximate_volume
from forestvol.treeweight import default_cache

from conftest import clear_caches

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# misses of the cold (first) point of each workload: the classes expanded
COLD_MISSES = {"cold_dense": 22, "cold_petersen": 1, "sparse_large": 3, "delta_sweep": 22}


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_workload_answers_match_reference():
    wl = _load_workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())["answers"]
    assert set(wl.WORKLOADS) == set(reference) == set(COLD_MISSES)
    cache = default_cache()
    for name, w in wl.WORKLOADS.items():
        g = wl.base_graph(w.graph)
        clear_caches()
        digests, misses = {}, []
        # a sweep's points in order on one graph: every point after the
        # first reads the whole-graph slot
        for delta in w.deltas:
            before = cache.misses
            res = approximate_volume(g, delta, w.eps)
            misses.append(cache.misses - before)
            assert res.K == w.K, (name, delta)
            assert res.lower <= res.upper <= res.lower * (1 + w.eps) ** 2, (name, delta)
            digests[str(delta)] = wl.answer_digest(delta, res.a, res.lower, res.upper)
        assert digests == reference[name], name
        assert misses == [COLD_MISSES[name]] + [0] * (len(w.deltas) - 1), name
