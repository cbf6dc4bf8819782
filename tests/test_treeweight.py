import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from forestvol import canon, kernel
from forestvol.graphs import Graph, broken_edges, spanning_trees, tree_from_edges
from forestvol.families import (
    complete_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from forestvol.treeweight import (
    DeltaParams,
    WeightCache,
    default_cache,
    hat_w,
    tree_weight,
)

K2 = Graph(2, [(0, 1)])
P3 = path_graph(3)
TRI = complete_graph(3)


def _pairs(max_n=5, max_degree=4, count=24, seed=0, min_n=2, max_extra=3):
    """Random (host, spanning tree) pairs for property checks."""
    rng = random.Random(seed)
    out = []
    attempt = 0
    while len(out) < count:
        attempt += 1
        n = rng.randint(min_n, max_n)
        g = random_connected_graph(
            n,
            rng.randint(0, max_extra),
            seed=seed * 1000 + attempt,
            max_degree=max_degree,
        )
        trees = list(spanning_trees(g))
        out.append((g, trees[rng.randrange(len(trees))]))
    return out


# --- poset integration kernel -------------------------------------------------


def _poset_integral(k, arcs, terms, a, b):
    """kernel.poset_integral_packed over {a < x_v < b; x_u < x_v per arc}
    for the polynomial sum of coef * prod x_v^e over terms, a dict mapping
    ((v, e), ...) to integer coefficients."""
    preds = [0] * k
    for u, v in arcs:
        preds[v] |= 1 << u
    packed = {}
    for mono, coef in terms.items():
        key = sum(e << (6 * v) for v, e in mono)
        packed[key] = packed.get(key, 0) + coef
    a, b = Fraction(a), Fraction(b)
    num, den = kernel.poset_integral_packed(
        k, tuple(preds), packed, 1, a.numerator, a.denominator, b.numerator, b.denominator
    )
    return Fraction(num, den)


ONE = {(): 1}


def test_poset_cycle_detection():
    # a cyclic digraph has no minimal element, so its cell is empty
    assert _poset_integral(2, {(0, 1), (1, 0)}, ONE, 0, 1) == 0
    assert _poset_integral(3, {(0, 1), (1, 2), (2, 0)}, ONE, 0, 1) == 0


def test_poset_integral_reference_values():
    assert _poset_integral(0, set(), ONE, 0, 1) == 1
    assert _poset_integral(1, set(), ONE, 0, 1) == 1
    assert _poset_integral(2, {(0, 1)}, ONE, 0, 1) == Fraction(1, 2)
    assert _poset_integral(2, set(), ONE, 0, 1) == 1
    assert _poset_integral(3, {(0, 1), (1, 2)}, ONE, 0, 1) == Fraction(1, 6)
    assert _poset_integral(2, {(0, 1)}, {((0, 1),): 1}, 0, 1) == Fraction(1, 6)


def test_poset_integral_shifted_window():
    # over [lo, hi] a chain of k scales like (hi-lo)^k / k!
    lo, hi = Fraction(1, 4), Fraction(1, 2)
    assert _poset_integral(3, {(0, 1), (1, 2)}, ONE, lo, hi) == (hi - lo) ** 3 / 6


@pytest.mark.parametrize("seed", range(10))
def test_poset_integral_linear_extension_counting(seed):
    """With p = 1 over (0,1), k! times the integral counts linear
    extensions; cross-check against brute permutation filtering."""
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    arcs = set()
    for u in range(k):
        for v in range(k):
            if u != v and rng.random() < 0.3:
                arcs.add((u, v))
    exts = 0
    for perm in itertools.permutations(range(k)):
        pos = {v: i for i, v in enumerate(perm)}
        if all(pos[u] < pos[v] for u, v in arcs):
            exts += 1
    assert _poset_integral(k, arcs, ONE, 0, 1) * math.factorial(k) == exts


# --- hat_w and w --------------------------------------------------------------


@pytest.mark.parametrize("delta", [Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)])
def test_hat_w_closed_forms(delta):
    dp = DeltaParams(delta)
    tree = tree_from_edges(K2, (0,))
    assert hat_w(K2, tree, dp) == 2 * delta**2
    tree = tree_from_edges(P3, (0, 1))
    assert hat_w(P3, tree, dp) == Fraction(8, 3) * delta**3
    # the star K_{1,m} (m = 1 is K2, m = 2 is P3) has no broken edges
    for m in range(1, 7):
        g = star_graph(m)
        tree = tree_from_edges(g, tuple(range(g.m)))
        want = Fraction(2 ** (m + 1), m + 1) * delta ** (m + 1)
        assert hat_w(g, tree, dp, cache=WeightCache()) == want


def test_weight_signs_and_normalization(delta_quarter):
    dp = DeltaParams(delta_quarter)
    rec = tree_weight(K2, tree_from_edges(K2, (0,)), dp)
    assert rec.hat_w == Fraction(1, 8)
    assert rec.w == Fraction(-2, 9)
    rec = tree_weight(P3, tree_from_edges(P3, (0, 1)), dp)
    assert rec.w == Fraction(8, 81)
    rec = tree_weight(TRI, tree_from_edges(TRI, (0, 1)), dp)
    assert rec.broken == (2,)
    assert rec.hat_w == Fraction(1, 96)
    assert rec.w == Fraction(2, 81)


def test_delta_zero_short_circuit():
    dp = DeltaParams(Fraction(0))
    rec = tree_weight(K2, tree_from_edges(K2, (0,)), dp)
    assert rec.hat_w == 0 and rec.w == 0


def test_tree_weight_requires_edges():
    from forestvol.graphs import Tree

    with pytest.raises(ValueError):
        tree_weight(K2, Tree(vset=0b1, edge_ranks=()), DeltaParams(Fraction(1, 4)))


def _region_count(nv, tedges, bedges):
    """Sum over every |z| order and sign vector of the region's indicator.

    On the region, z_v = +-(rank of v in the order) is a representative
    point: each z_u + z_v has the sign of its endpoint of larger |z| on the
    whole region, so the point decides every tree and broken edge there.
    """
    count = 0
    for order in itertools.permutations(range(nv)):
        for signs in itertools.product((1, -1), repeat=nv):
            z = [0] * nv
            for rank, v in enumerate(order, 1):
                z[v] = signs[rank - 1] * rank
            if all(z[u] + z[v] > 0 for u, v in tedges) and all(
                z[u] + z[v] <= 0 for u, v in bedges
            ):
                count += 1
    return count


def _hat_w_cellwise(g, tree, dp):
    """hat_w of a spanning tree of g from the region count:
    delta^n * count / n!, each (|z| order, sign) region having volume 1/n!."""
    tedges = tuple(g.edges[r] for r in tree.edge_ranks)
    bedges = tuple(g.edges[r] for r in broken_edges(g, tree))
    count = _region_count(g.n, tedges, bedges)
    return dp.delta**g.n * Fraction(count, math.factorial(g.n))


def test_cellwise_matches_memoized_route():
    deltas = [Fraction(1, 10), Fraction(2, 5)]
    for i, (g, tree) in enumerate(_pairs(count=16, seed=7)):
        dp = DeltaParams(deltas[i % 2])
        assert _hat_w_cellwise(g, tree, dp) == hat_w(g, tree, dp)


def test_cellwise_matches_dp_with_broken_edges():
    """The |z|-order subset DP behind WeightCache.normalized_weight against
    a brute-force count of its (|z| order, sign) regions, on 4-6 vertex
    hosts with chords so that broken edges occur."""
    deltas = [Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)]
    pairs = _pairs(min_n=4, max_n=6, max_degree=4, count=40, seed=31, max_extra=8)
    with_broken = 0
    for i, (g, tree) in enumerate(pairs):
        dp = DeltaParams(deltas[i % 3])
        with_broken += bool(broken_edges(g, tree))
        cache = WeightCache()
        rec = tree_weight(g, tree, dp, cache=cache)
        assert len(cache.normalized) == 1
        assert rec.hat_w == _hat_w_cellwise(g, tree, dp), (g.edges, tree)
    assert with_broken >= 20


def _bicolored_key(g, rec):
    """Canonical key of the edge-bicolored graph (tree, broken edges)."""
    local = {v: i for i, v in enumerate(rec.tree.vertices())}
    edges = [
        (local[g.edges[r][0]], local[g.edges[r][1]], color)
        for ranks, color in ((rec.tree.edge_ranks, 1), (rec.broken, 2))
        for r in ranks
    ]
    return canon.colored_canonical_form(rec.tree.size, edges)


def test_automorphic_pairs_share_weight():
    rng = random.Random(5)
    for g, tree in _pairs(count=10, seed=11):
        dp = DeltaParams(Fraction(1, 4))
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges)
        g2 = Graph(g.n, edges)
        mapped = sorted(
            edges.index(tuple(sorted((perm[g.edges[r][0]], perm[g.edges[r][1]]))))
            for r in tree.edge_ranks
        )
        tree2 = tree_from_edges(g2, mapped)
        r1 = tree_weight(g, tree, DeltaParams(Fraction(1, 4)))
        r2 = tree_weight(g2, tree2, DeltaParams(Fraction(1, 4)))
        # same tree shape, but broken sets may differ under reordering, so
        # compare only when the bicolored type matches
        if _bicolored_key(g, r1) == _bicolored_key(g2, r2):
            assert r1.hat_w == r2.hat_w and r1.w == r2.w


def test_memo_is_delta_independent():
    cache = WeightCache()
    tree = tree_from_edges(P3, (0, 1))
    hat_w(P3, tree, DeltaParams(Fraction(1, 10)), cache=cache)
    assert len(cache.normalized) == 1
    val = hat_w(P3, tree, DeltaParams(Fraction(1, 4)), cache=cache)
    assert len(cache.normalized) == 1  # second delta served from the memo
    assert val == Fraction(8, 3) * Fraction(1, 4) ** 3


def test_tree_weights_skip_labelling_and_series_counters(monkeypatch):
    """tree_weight runs no canonical labelling, and the default cache's
    hits and misses, which count class-series lookups, do not move."""

    def boom(*args, **kwargs):
        raise AssertionError("tree_weight reached kernel.canon_key")

    monkeypatch.setattr(kernel, "canon_key", boom)
    cache = default_cache()
    before = (cache.hits, cache.misses)
    for delta in (Fraction(1, 4), Fraction(0)):
        for g, tree in _pairs(count=8, seed=17):
            tree_weight(g, tree, DeltaParams(delta))
    assert (cache.hits, cache.misses) == before


@pytest.mark.parametrize("delta", [Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)])
def test_weight_bound_small_trees(delta):
    """|w_T| <= (2 delta / (1/2+delta))^{|V(T)|} and hat_w >= 0."""
    dp = DeltaParams(delta)
    ratio = 2 * delta / (Fraction(1, 2) + delta)
    for g, tree in _pairs(max_n=6, count=20, seed=13):
        rec = tree_weight(g, tree, dp)
        assert rec.hat_w >= 0
        assert abs(rec.w) <= ratio ** len(tree.vertices())


def test_hat_w_against_direct_sampling():
    """Geometric meaning: hat_w is the box measure of {tree edges violated,
    broken edges satisfied}; checked by Monte Carlo at 4 sigma."""
    rng = np.random.default_rng(2024)
    deltas = [Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)]
    pairs = _pairs(max_n=5, max_degree=4, count=50, seed=21)
    samples = 200_000
    for i, (g, tree) in enumerate(pairs):
        delta = deltas[i % 3]
        dp = DeltaParams(delta)
        rec = tree_weight(g, tree, dp)
        ids = rec.tree.vertices()
        pos = {v: j for j, v in enumerate(ids)}
        box = float(dp.box_hi)
        x = rng.random((samples, len(ids))) * box
        ok = np.ones(samples, dtype=bool)
        for r in tree.edge_ranks:
            u, v = g.edges[r]
            ok &= x[:, pos[u]] + x[:, pos[v]] > 1.0
        for r in rec.broken:
            u, v = g.edges[r]
            ok &= x[:, pos[u]] + x[:, pos[v]] <= 1.0
        vol_box = box ** len(ids)
        phat = ok.mean()
        est = phat * vol_box
        se = vol_box * float(np.sqrt(max(phat * (1 - phat), 1e-12) / samples))
        assert abs(est - float(rec.hat_w)) <= 4 * se, (g.edges, tree, delta)


def test_delta_params_validation():
    with pytest.raises(ValueError):
        DeltaParams(Fraction(1, 2))
    with pytest.raises(ValueError):
        DeltaParams(Fraction(-1, 10))
    dp = DeltaParams(Fraction(1, 8))
    assert dp.box_hi == Fraction(5, 8)
