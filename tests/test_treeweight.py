import random
from fractions import Fraction

import numpy as np
import pytest

from forestvol.graphs import Graph, broken_edges, spanning_trees, tree_from_edges
from forestvol.families import (
    complete_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from forestvol.polynomials import MultiPoly
from forestvol.treeweight import (
    DeltaParams,
    Poset,
    WeightCache,
    build_poset,
    hat_w,
    hat_w_cellwise,
    nice_sets,
    poset_integral,
    st_maps,
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


# --- poset integration ------------------------------------------------------


def test_poset_rejects_bad_arcs():
    with pytest.raises(ValueError):
        Poset((0, 1), frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Poset((0,), frozenset({(0, 0)}))


def test_poset_cycle_detection():
    cyc = Poset((0, 1), frozenset({(0, 1), (1, 0)}))
    assert not cyc.acyclic
    with pytest.raises(ValueError):
        poset_integral(cyc, MultiPoly.constant(1), 0, 1)


def test_poset_integral_reference_values():
    one = MultiPoly.constant(1)
    assert poset_integral(Poset((), frozenset()), one, 0, 1) == 1
    assert poset_integral(Poset((3,), frozenset()), one, 0, 1) == 1
    assert poset_integral(Poset((0, 1), frozenset({(0, 1)})), one, 0, 1) == Fraction(1, 2)
    assert poset_integral(Poset((0, 1), frozenset()), one, 0, 1) == 1
    chain3 = Poset((0, 1, 2), frozenset({(0, 1), (1, 2)}))
    assert poset_integral(chain3, one, 0, 1) == Fraction(1, 6)
    chain2 = Poset((0, 1), frozenset({(0, 1)}))
    assert poset_integral(chain2, MultiPoly.variable(0), 0, 1) == Fraction(1, 6)


def test_poset_integral_shifted_window():
    # over [lo, hi] a chain of k scales like (hi-lo)^k / k!
    one = MultiPoly.constant(1)
    chain3 = Poset((0, 1, 2), frozenset({(0, 1), (1, 2)}))
    lo, hi = Fraction(1, 4), Fraction(1, 2)
    assert poset_integral(chain3, one, lo, hi) == (hi - lo) ** 3 / 6


def test_poset_integral_rejects_stray_variables():
    with pytest.raises(ValueError):
        poset_integral(Poset((0,), frozenset()), MultiPoly.variable(5), 0, 1)


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
    poset = Poset(tuple(range(k)), frozenset(arcs))
    import itertools
    import math

    exts = 0
    for perm in itertools.permutations(range(k)):
        pos = {v: i for i, v in enumerate(perm)}
        if all(pos[u] < pos[v] for u, v in arcs):
            exts += 1
    if not poset.acyclic:
        assert exts == 0
        return
    val = poset_integral(poset, MultiPoly.constant(1), 0, 1)
    assert val * math.factorial(k) == exts


# --- nice sets, maps, posets -------------------------------------------------


def test_nice_sets_k2():
    tree = tree_from_edges(K2, (0,))
    assert sorted(nice_sets(K2, tree, ())) == [0b00, 0b01, 0b10]


def test_nice_sets_triangle_tree_with_broken_edge():
    tree = tree_from_edges(TRI, (0, 1))
    broken = broken_edges(TRI, tree)
    assert broken == (2,)
    got = sorted(nice_sets(TRI, tree, broken))
    assert got == [0b010, 0b100, 0b110]


def test_st_maps_count_bound():
    for g, tree in _pairs(count=12, seed=3):
        broken = broken_edges(g, tree)
        dmax = max(g.degree(v) for v in tree.vertices())
        for s_mask in nice_sets(g, tree, broken):
            comp = bin(tree.vset & ~s_mask).count("1")
            n_maps = sum(1 for _ in st_maps(g, tree, broken, s_mask))
            assert n_maps <= max(dmax, 1) ** (2 * comp)


def test_build_poset_sentinels_drop_out():
    tree = tree_from_edges(K2, (0,))
    # S = {} leaves both vertices mapped to sentinels: no arcs at all
    smap, tmap = next(iter(st_maps(K2, tree, (), 0)))
    poset = build_poset(K2, tree, (), 0, smap, tmap)
    assert poset.elements == () and not poset.arcs


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
    assert rec.iso_key  # canonical key still computed


def test_tree_weight_requires_edges():
    from forestvol.graphs import Tree

    with pytest.raises(ValueError):
        tree_weight(K2, Tree(vset=0b1, edge_ranks=()), DeltaParams(Fraction(1, 4)))


def test_cellwise_matches_memoized_route():
    deltas = [Fraction(1, 10), Fraction(2, 5)]
    for i, (g, tree) in enumerate(_pairs(count=16, seed=7)):
        dp = DeltaParams(deltas[i % 2])
        assert hat_w_cellwise(g, tree, dp) == hat_w(g, tree, dp)


def test_cellwise_matches_dp_with_broken_edges():
    """The |z|-order DP behind WeightCache.normalized_weight against the
    cell-by-cell poset integrals, which share no code with it, on 6-8 vertex
    hosts with chords so that broken edges occur."""
    deltas = [Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)]
    pairs = _pairs(min_n=6, max_n=8, max_degree=4, count=100, seed=31, max_extra=8)
    with_broken = 0
    for i, (g, tree) in enumerate(pairs):
        dp = DeltaParams(deltas[i % 3])
        with_broken += bool(broken_edges(g, tree))
        cache = WeightCache()
        rec = tree_weight(g, tree, dp, cache=cache)
        assert cache.misses == 1
        assert rec.hat_w == hat_w_cellwise(g, tree, dp), (g.edges, tree)
    assert with_broken >= 50


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
        if r1.iso_key == r2.iso_key:
            assert r1.hat_w == r2.hat_w and r1.w == r2.w


def test_memo_is_delta_independent():
    cache = WeightCache()
    tree = tree_from_edges(P3, (0, 1))
    hat_w(P3, tree, DeltaParams(Fraction(1, 10)), cache=cache)
    misses = cache.misses
    val = hat_w(P3, tree, DeltaParams(Fraction(1, 4)), cache=cache)
    assert cache.misses == misses  # second delta served from the memo
    assert val == Fraction(8, 3) * Fraction(1, 4) ** 3


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
    assert dp.box_hi == Fraction(5, 8) and dp.j_lo == Fraction(3, 8)
