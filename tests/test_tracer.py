"""perfbench/tracer.py wraps forestvol's module attributes by name,
perfbench/run.py reads the default WeightCache's counters and calls the
package's entry points, and perfbench/workloads.py builds its graphs, so a
change under src/ that renames any of them breaks `perfbench/run.py`;
these checks fail first."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from forestvol.families import path_graph
from forestvol.interpolate import approximate_volume
from forestvol.treeweight import default_cache

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname, path):
    owner = importlib.import_module(modname)
    for part in path.split("."):
        assert hasattr(owner, part), (modname, path)
        owner = getattr(owner, part)
    return owner


def test_tracer_targets_resolve():
    """Every target resolves through the attribute chain Tracer.install
    walks, a traced query records its spans, and uninstall puts every
    original back."""
    tracer = _load_tracer()
    targets = tracer.TARGETS + tracer.GENERATOR_TARGETS
    originals = [_resolve(modname, path) for modname, path, _ in targets]
    assert all(callable(fn) for fn in originals)
    t = tracer.Tracer()
    t.install()
    try:
        res = approximate_volume(path_graph(4), Fraction(1, 100), Fraction(1, 10))
    finally:
        t.uninstall()
    assert tracer.aggregate(t.spans)["interpolate.assemble_a"][0] == 1
    assert res.lower <= res.upper
    assert [_resolve(m, p) for m, p, _ in targets] == originals


def test_weight_cache_has_the_counters_perfbench_reads():
    cache = default_cache()
    for name in ("hits", "misses", "normalized"):
        assert hasattr(cache, name), name
    assert isinstance(cache.hits + cache.misses + len(cache.normalized), int)


def test_perfbench_entry_points_answer():
    """Every other forestvol name perfbench/run.py and perfbench/workloads.py
    call, called the way they call it on a tiny input, with the result
    fields they read."""
    import forestvol
    from forestvol import DeltaParams
    from forestvol.families import petersen_graph, random_connected_graph
    from forestvol.graphs import Graph

    assert isinstance(forestvol.KERNEL_BACKEND, str)
    g = Graph(3, [(0, 1), (1, 2)])
    assert (g.n, list(g.edges)) == (3, [(0, 1), (1, 2)])
    res = forestvol.approximate_volume(g, Fraction(1, 100), Fraction(1, 10))
    assert res.K >= 1 and len(res.a) >= res.K
    assert 0 < res.lower <= res.upper
    mc = forestvol.mc_volume(g, Fraction(1, 100), 1000, seed=1)
    assert isinstance(mc.mean, float) and isinstance(mc.stderr, float)
    exact = forestvol.exact_volume(g, DeltaParams(Fraction(1, 100)))
    assert res.lower <= exact <= res.upper
    assert petersen_graph().n == 10
    h = random_connected_graph(8, 2, seed=0, max_degree=3)
    assert h.n == 8 and h.is_connected() and h.max_degree() <= 3
