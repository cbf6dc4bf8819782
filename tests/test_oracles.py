import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from forestvol import oracles
from forestvol.errors import SizeGuardError
from forestvol.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_graph,
)
from forestvol.graphs import Graph
from forestvol.interpolate import zero_free_radius
from forestvol.oracles import (
    exact_p1,
    exact_volume,
    mc_volume,
    penrose_check,
    root_check,
)
from forestvol.treeweight import DeltaParams

from conftest import k2_volume, p3_volume

K2 = Graph(2, [(0, 1)])


# --- Monte Carlo ----------------------------------------------------------------


def test_mc_deterministic_and_thread_invariant():
    """Same seed, same estimate; the accepted count is pinned, so the chunk
    layout, and with it every estimate, cannot drift."""
    g = path_graph(4)
    # 150000 samples straddles chunk boundaries (chunk = 65536)
    a = mc_volume(g, Fraction(1, 4), 150_000, seed=5)
    assert a == mc_volume(g, Fraction(1, 4), 150_000, seed=5)
    assert a.accepted == 81000
    d = mc_volume(g, Fraction(1, 4), 150_000, seed=6)
    assert d.accepted != a.accepted  # different seed, different stream


def test_mc_memory_independent_of_samples(monkeypatch):
    """The chunks are walked lazily: with 10**10 samples (152,588 chunks)
    nothing proportional to the chunk count is allocated before the first
    draw, which Philox is patched to refuse."""
    import tracemalloc

    import numpy as np

    def refuse(*args, **kwargs):
        raise RuntimeError("first draw")

    monkeypatch.setattr(np.random, "Philox", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="first draw"):
            mc_volume(path_graph(3), Fraction(1, 4), 10**10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mc_edgeless_exact():
    est = mc_volume(Graph(3, []), Fraction(1, 4), 10_000, seed=0)
    assert est.accepted == est.samples
    assert est.mean == est.box_volume
    assert est.stderr == 0.0


def test_mc_delta_zero_accepts_everything():
    est = mc_volume(complete_graph(4), Fraction(0), 10_000, seed=0)
    assert est.accepted == est.samples
    assert est.mean == pytest.approx(0.5**4)


def test_mc_matches_k2_closed_form():
    est = mc_volume(K2, Fraction(1, 4), 10**6, seed=11)
    truth = float(k2_volume(Fraction(1, 4)))
    assert abs(est.mean - truth) <= 4 * est.stderr


def test_mc_rejects_bad_samples():
    with pytest.raises(ValueError):
        mc_volume(K2, Fraction(1, 4), 0)


@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(1), Fraction(-1, 4)])
def test_mc_rejects_delta_outside_range(delta):
    """mc_volume refuses delta outside [0, 1/2) before drawing a sample,
    with the DeltaParams error the exact routes raise."""
    with pytest.raises(ValueError, match=r"delta must lie in \[0, 1/2\)"):
        mc_volume(K2, delta, 1000)


# --- exact enumeration ------------------------------------------------------------


def test_exact_k2_and_p3(delta_quarter):
    dp = DeltaParams(delta_quarter)
    assert exact_volume(K2, dp) == Fraction(7, 16)
    assert exact_p1(K2, dp) == Fraction(7, 9)
    assert exact_volume(path_graph(3), dp) == p3_volume(delta_quarter) == Fraction(53, 192)


def test_exact_edgeless_and_delta_zero():
    assert exact_p1(Graph(4, []), DeltaParams(Fraction(1, 5))) == 1
    assert exact_volume(cycle_graph(4), DeltaParams(Fraction(0))) == Fraction(1, 16)


def test_exact_volume_shares_no_pipeline_code(monkeypatch):
    """exact_volume answers with the pipeline's polymer DP, class weights,
    tree weights and canonical labelling all made to raise."""
    from forestvol import coeffs, kernel, oracles
    from forestvol.treeweight import WeightCache

    def boom(*args, **kwargs):
        raise AssertionError("exact_volume reached the pipeline")

    monkeypatch.setattr(coeffs, "small_e", boom)
    monkeypatch.setattr(oracles, "small_e", boom)
    monkeypatch.setattr(coeffs, "polymer_tables", boom)
    monkeypatch.setattr(coeffs, "polymer_weights", boom)
    monkeypatch.setattr(WeightCache, "normalized_weight", boom)
    monkeypatch.setattr(kernel, "canon_key", boom)
    got = exact_volume(petersen_graph(), DeltaParams(Fraction(1, 100)))
    assert got == Fraction("2472583246914026807/2100000000000000000000")


def test_exact_size_guard():
    dp = DeltaParams(Fraction(1, 4))
    # C20 has 15,127 independent sets and the edgeless 13-vertex graph 2^13
    with pytest.raises(SizeGuardError, match="volume"):
        exact_p1(cycle_graph(20), dp)
    with pytest.raises(SizeGuardError):
        exact_volume(Graph(13, []), dp)


def test_exact_guard_counts_independent_sets(monkeypatch):
    """The guard refuses more than EXACT_SET_LIMIT independent sets, not a
    vertex or edge count: P3 has 5 and P4 has 8."""
    from forestvol import oracles

    dp = DeltaParams(Fraction(1, 4))
    monkeypatch.setattr(oracles, "EXACT_SET_LIMIT", 5)
    assert exact_volume(path_graph(3), dp) == p3_volume(dp.delta)
    with pytest.raises(SizeGuardError, match="5 independent sets"):
        exact_volume(path_graph(4), dp)


def test_exact_volume_beyond_thirteen_vertices():
    """C13 (521 independent sets) was refused by the old 12-vertex cap; its
    exact volume lies in the certified interval."""
    from forestvol.interpolate import approximate_volume

    delta = Fraction(1, 100)
    vol = exact_volume(cycle_graph(13), DeltaParams(delta))
    res = approximate_volume(cycle_graph(13), delta, Fraction(1, 10))
    assert res.lower <= vol <= res.upper


@pytest.mark.parametrize("delta", [Fraction(1, 10), Fraction(1, 4)])
@pytest.mark.parametrize("seed", range(3))
def test_cross_oracle_random_graphs(delta, seed):
    g = random_graph(6, 0.5, seed=300 + seed)
    dp = DeltaParams(delta)
    truth = float(exact_volume(g, dp))
    est = mc_volume(g, delta, 400_000, seed=seed)
    if est.stderr == 0:
        assert est.mean == pytest.approx(truth)
    else:
        assert abs(est.mean - truth) <= 4 * est.stderr


# --- Penrose intervals --------------------------------------------------------------


def test_penrose_triangle():
    rep = penrose_check(complete_graph(3))
    assert rep.tree_count == 3
    assert rep.marked == rep.connected_spanning == 4
    assert rep.ok


def test_penrose_k4_all_orders_sampled():
    rng = random.Random(1)
    base = list(range(6))
    for _ in range(5):
        rng.shuffle(base)
        rep = penrose_check(complete_graph(4), edge_order=tuple(base))
        assert rep.ok and rep.marked == 38


def test_penrose_tree_input_single_interval():
    rep = penrose_check(path_graph(5))
    assert rep.tree_count == 1 and rep.marked == 1 and rep.ok


def test_penrose_requires_connected():
    with pytest.raises(ValueError):
        penrose_check(Graph(4, [(0, 1), (2, 3)]))


def test_penrose_order_must_be_permutation():
    with pytest.raises(ValueError):
        penrose_check(complete_graph(3), edge_order=(0, 0, 1))


def test_penrose_guard():
    with pytest.raises(SizeGuardError):
        penrose_check(complete_graph(7))


@pytest.mark.parametrize("g", [complete_graph(4), petersen_graph()], ids=["K4", "Petersen"])
def test_penrose_catches_wrong_broken_edges(monkeypatch, g):
    """The check fails when broken_edges is wrong: dropping each tree's last
    broken edge leaves subsets unmarked, and calling every chord broken
    makes intervals overlap."""
    right = oracles.broken_edges

    monkeypatch.setattr(oracles, "broken_edges", lambda h, tree: right(h, tree)[:-1])
    rep = penrose_check(g)
    assert rep.missed and not rep.ok

    def every_chord(h, tree):
        return tuple(r for r in range(h.m) if r not in tree.edge_ranks)

    monkeypatch.setattr(oracles, "broken_edges", every_chord)
    rep = penrose_check(g)
    assert (rep.duplicates or rep.mst_violations) and not rep.ok


# --- roots ------------------------------------------------------------------------


def test_root_check_k2(delta_quarter):
    """p = 1 + 2z/9 has its one zero at -9/2: the bracket holds 9/2, and
    clears is sharp there."""
    rep = root_check(K2, DeltaParams(delta_quarter))
    assert rep.degree == 1
    lo, hi = rep.nearest_zero()
    assert lo < Fraction(9, 2) <= hi
    assert rep.clears(radius=Fraction(2))
    assert not rep.clears(radius=Fraction(5))
    assert not rep.clears(radius=Fraction(9, 2))
    assert rep.clears(radius=Fraction(9, 2) - Fraction(1, 10**9))


def test_root_check_edgeless():
    rep = root_check(Graph(3, []), DeltaParams(Fraction(1, 4)))
    assert rep.degree == 0 and rep.nearest_zero() is None
    assert rep.clears(radius=Fraction(100))


def test_root_check_cycle_clears_certificate():
    delta = Fraction(1, 100)
    cert = zero_free_radius(delta, 2)
    rep = root_check(cycle_graph(6), DeltaParams(delta))
    assert rep.clears(cert.radius)
    lo, _ = rep.nearest_zero()
    assert lo > cert.radius


def test_root_check_guard():
    with pytest.raises(SizeGuardError):
        root_check(cycle_graph(13), DeltaParams(Fraction(1, 100)))


def test_roots_satisfy_polynomial():
    """p vanishes at the nearest zero numpy finds (numpy is the oracle
    here only), and its modulus lies in nearest_zero's bracket."""
    import numpy as np

    dp = DeltaParams(Fraction(1, 4))
    g = complete_graph(4)
    rep = root_check(g, dp)
    e = [float(c) for c in rep.e]
    z = min(np.roots(e[::-1]), key=abs)
    assert abs(sum(c * z**k for k, c in enumerate(e))) < 1e-9
    lo, hi = rep.nearest_zero()
    assert float(lo) <= abs(z) * (1 + 1e-9) and abs(z) <= float(hi) * (1 + 1e-9)


@pytest.mark.parametrize(
    "e, clear, hit",
    [
        # 1 + z^2: zeros +-i on the unit circle
        ((1, 0, 1), Fraction(999, 1000), Fraction(1)),
        # (1 + z/2)^2: a double zero at -2
        ((1, 1, Fraction(1, 4)), Fraction(1999, 1000), Fraction(2)),
        # z^2 - 2z + 5: zeros 1 +- 2i, modulus sqrt(5) = 2.23606...
        ((5, -2, 1), Fraction(2236, 1000), Fraction(2237, 1000)),
    ],
)
def test_zero_free_disk_known_roots(e, clear, hit):
    assert oracles.zero_free_disk(e, clear)
    assert not oracles.zero_free_disk(e, hit)


def test_zero_free_disk_degenerate():
    """A nonzero constant has no zero, the zero polynomial has zeros
    everywhere, and zero top coefficients change nothing."""
    assert oracles.zero_free_disk((3,), Fraction(10**9))
    assert not oracles.zero_free_disk((0,), Fraction(1))
    assert not oracles.zero_free_disk((), Fraction(1))
    assert oracles.zero_free_disk((1, 1, 0, 0), Fraction(999, 1000))
    assert not oracles.zero_free_disk((1, 1, 0, 0), Fraction(1))


@pytest.mark.parametrize(
    "exponent, name, g, degree",
    [
        (40, "P12", path_graph(12), 11),
        (40, "C12", cycle_graph(12), 11),
        (40, "Petersen", petersen_graph(), 9),
        (30, "P12", path_graph(12), 11),
        (30, "C12", cycle_graph(12), 11),
    ],
)
def test_root_check_tiny_delta(exponent, name, g, degree):
    """At delta = 10^-40 the e_k underflow a double: the exact check keeps
    the true degree and clears the certified radius."""
    delta = Fraction(1, 10**exponent)
    rep = root_check(g, DeltaParams(delta))
    assert rep.degree == degree, name
    assert rep.clears(zero_free_radius(delta, max(g.max_degree(), 2)).radius), name


def test_nearest_zero_brackets_numpy_on_criterion_08_graphs():
    """On the graphs of acceptance criterion 08, the bracket holds the
    nearest modulus numpy finds (numpy is the oracle here only) to 1e-9,
    and is narrower than 2^-40 relative."""
    import numpy as np

    rng = random.Random(8)
    dp = DeltaParams(Fraction(1, 100))
    bracketed = 0
    for i in range(200):
        g = random_graph(rng.randint(2, 8), 0.5, seed=800 + i, max_degree=4)
        rep = root_check(g, dp)
        if rep.degree < 1:
            assert rep.nearest_zero() is None
            continue
        lo, hi = rep.nearest_zero()
        assert hi - lo <= lo / 2**40
        nearest = min(abs(np.roots([float(c) for c in reversed(rep.e)])))
        assert float(lo) * (1 - 1e-9) <= nearest <= float(hi) * (1 + 1e-9), i
        bracketed += 1
    assert bracketed > 150


_ROOTS_WITHOUT_NUMPY = """
import sys

sys.modules["numpy"] = None
from fractions import Fraction

from forestvol.families import petersen_graph
from forestvol.interpolate import zero_free_radius
from forestvol.oracles import root_check
from forestvol.treeweight import DeltaParams

delta = Fraction(1, 100)
rep = root_check(petersen_graph(), DeltaParams(delta))
radius = zero_free_radius(delta, 3).radius
assert rep.clears(radius)
lo, hi = rep.nearest_zero()
# the nearest zero of Petersen's p lies at 20.42499...
assert radius < Fraction(204, 10) < lo < hi < Fraction(205, 10), (lo, hi)
"""


def test_root_check_runs_without_numpy():
    """clears and nearest_zero are integer arithmetic: with numpy blocked
    from import, both still answer."""
    import forestvol

    src = os.path.dirname(os.path.dirname(os.path.abspath(forestvol.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _ROOTS_WITHOUT_NUMPY],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr


_IMPORT_FOOTPRINT = """
import sys
from fractions import Fraction

import forestvol
from forestvol.families import petersen_graph

forestvol.approximate_volume(petersen_graph(), Fraction(1, 100), Fraction(1, 100))
loaded = [
    name
    for name in ("forestvol.oracles", "forestvol.kernel", "forestvol.cli", "numpy")
    if name in sys.modules
]
assert not loaded, f"a volume query loaded {loaded}"

assert forestvol.KERNEL_BACKEND == "python"
assert forestvol.mc_volume is forestvol.oracles.mc_volume
from forestvol import exact_volume

assert exact_volume is forestvol.oracles.exact_volume
listed = dir(forestvol)
for name in forestvol.__all__:
    getattr(forestvol, name)
    assert name in listed, name
try:
    forestvol.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("forestvol.no_such_name resolved")
"""


def test_package_import_leaves_numpy_out():
    """import forestvol and a volume query load neither numpy nor the
    oracles, the labelling kernel or the CLI; the oracle names and
    KERNEL_BACKEND still resolve on first access, and every name in
    __all__ resolves and is listed by dir()."""
    import forestvol

    src = os.path.dirname(os.path.dirname(os.path.abspath(forestvol.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_FOOTPRINT],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
