"""perfbench/tracer.py wraps forestvol's module attributes by name and
perfbench/run.py reads the default WeightCache's counters, so a change
under src/ that renames either breaks `perfbench/run.py --trace 1` or its
memo check; these checks fail first."""

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
