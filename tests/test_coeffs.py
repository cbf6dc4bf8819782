import itertools
import random
from fractions import Fraction

import pytest

from forestvol.canon import canonical_form
from forestvol.coeffs import (
    assemble_a,
    lambda_coeff,
    newton_exp,
    newton_log,
    pattern_counts,
    pattern_gamma,
    small_e,
)
from forestvol.graphs import (
    Graph,
    bits,
    enumerate_connected_sets,
    spanning_trees,
    tree_from_edges,
)
from forestvol.families import (
    complete_graph,
    connected_graphs_upto,
    cycle_graph,
    graphs_upto,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_graph,
)
from forestvol.interpolate import approximate_volume
from forestvol.oracles import exact_volume
from forestvol import kernel, treeweight
from forestvol.treeweight import DeltaParams, WeightCache, default_cache, tree_weight

from conftest import (
    clear_caches,
    forest_component_ranks,
    is_forest,
    relabelled,
    shuffled_edges,
)

try:
    from hypothesis import given, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def brute_small_e(g: Graph, dp: DeltaParams, K: int) -> list[Fraction]:
    """e_k by filtering every edge subset; the dumb reference."""
    e = [Fraction(0)] * (K + 1)
    e[0] = Fraction(1)
    for k in range(1, K + 1):
        for combo in itertools.combinations(range(g.m), k):
            if not is_forest(g, combo):
                continue
            prod = Fraction(1)
            for comp in forest_component_ranks(g, combo):
                tree = tree_from_edges(g, comp)
                prod *= tree_weight(g, tree, dp).w
            e[k] += prod
    return e


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("delta", [Fraction(1, 10), Fraction(1, 100)])
def test_small_e_matches_brute_force(seed, delta):
    g = random_graph(6, 0.5, seed=40 + seed)
    dp = DeltaParams(delta)
    # the broken-edge split of each tree follows the edge ranks; e_k must not
    for h in (g, shuffled_edges(g, seed)):
        got = small_e(h, dp, 4)
        assert list(got) == brute_small_e(h, dp, 4)


def test_class_weights_match_exact_volume():
    """Every class weight c(H) up to 6 vertices, and every 7-vertex one of
    max degree 3, against the independent-set oracle.

    p_H(1) sums, over the sets of disjoint polymers S of H, the product of
    c(H[S]) t^{|S|}.  The single polymer S = V(H) gives c(H) t^{|H|}; every
    other term has only polymers on fewer vertices.  So by induction on
    |H|, once p_H'(1) = Vol(P_H') / box^{|H'|} holds for every connected H'
    smaller than H, it holds for H iff c(H) is right (t != 0).  The list
    below is closed under connected induced subgraphs.  Petersen and two
    12-vertex hosts then check, as whole sums, the weights of polymers
    rooted at min S inside a larger host.
    """
    dp = DeltaParams(Fraction(1, 7))
    graphs = list(connected_graphs_upto(6))
    graphs += [g for g in connected_graphs_upto(7, max_degree=3) if g.n == 7]
    assert len(graphs) == 143 + 64
    graphs.append(petersen_graph())
    graphs += [random_connected_graph(12, 4, seed=s, max_degree=3) for s in (0, 1)]
    assert [g.m for g in graphs[-3:]] == [15, 15, 15]
    for g in graphs:
        got = sum(small_e(g, dp, g.n - 1)) * dp.box_hi**g.n
        assert got == exact_volume(g, dp), g.edges


def test_small_e_p3_closed_form(delta_quarter):
    dp = DeltaParams(delta_quarter)
    e = small_e(path_graph(3), dp, 2)
    assert e == (1, Fraction(-4, 9), Fraction(8, 81))


def test_newton_roundtrip():
    e = (Fraction(1), Fraction(-4, 9), Fraction(8, 81))
    a = newton_log(e, 2)
    assert a[0] == 0
    back = newton_exp(a, 2)
    assert back == e


def test_newton_log_of_known_series():
    # p(x) = 1 + cx has log with a_k = -(-c)^k / k
    c = Fraction(3, 7)
    e = (Fraction(1), c, Fraction(0), Fraction(0), Fraction(0))
    a = newton_log(e, 4)
    for k in range(1, 5):
        assert a[k] == -((-c) ** k) / k


if HAVE_HYPOTHESIS:

    @given(
        st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=9),
            min_size=1,
            max_size=5,
        )
    )
    def test_newton_roundtrip_random(tail):
        e = tuple([Fraction(1)] + tail)
        K = len(tail)
        assert newton_exp(newton_log(e, K), K) == e


def test_newton_log_requires_unit_constant():
    with pytest.raises(ValueError):
        newton_log((Fraction(2), Fraction(1)), 1)


# --- lambda ------------------------------------------------------------------


def test_lambda_values(delta_quarter):
    dp = DeltaParams(delta_quarter)
    assert lambda_coeff(Graph(2, [(0, 1)]), 1, dp) == Fraction(-2, 9)
    assert lambda_coeff(path_graph(3), 2, dp) == Fraction(8, 81)
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    assert lambda_coeff(two_k2, 2, dp) == Fraction(4, 81)


def test_lambda_gates(delta_quarter):
    dp = DeltaParams(delta_quarter)
    # wrong vertex count for the index
    assert lambda_coeff(path_graph(3), 1, dp) == 0
    # isolated vertex kills it
    iso = Graph(3, [(0, 1)])
    assert lambda_coeff(iso, 2, dp) == 0
    assert lambda_coeff(iso, 1, dp) == 0


def test_lambda_equals_component_product():
    """lambda_coeff reads each component's class weight from the region-count
    DP, which builds no tree.  Check it against the product over components
    of the w_T summed over spanning trees, each component weighed in its own
    edge order and in one shuffled order: the broken edges of a tree follow
    the edge ranks, so the two tree sums split the cycles differently and
    must still agree."""
    dp = DeltaParams(Fraction(1, 10))
    for seed, h in enumerate(graphs_upto(6)):
        if h.n < 2:
            continue
        comps = h.components()
        k = h.n - len(comps)
        expected = [Fraction(1), Fraction(1)]
        valid = all(c.bit_count() >= 2 for c in comps) and k >= 1
        if valid:
            for cmask in comps:
                sub, _ = h.induced_subgraph(cmask)
                for i, g in enumerate((sub, shuffled_edges(sub, seed))):
                    expected[i] *= sum(
                        (tree_weight(g, t, dp).w for t in spanning_trees(g)),
                        Fraction(0),
                    )
        else:
            expected = [Fraction(0), Fraction(0)]
        if k >= 1:
            assert lambda_coeff(h, k, dp) == expected[0] == expected[1], h.edges


# --- gamma and assembly --------------------------------------------------------


def test_gamma_base_values():
    delta = Fraction(1, 4)
    dp = DeltaParams(delta)
    box = Fraction(1, 2) + delta
    assert pattern_gamma(Graph(2, [(0, 1)]), dp, 2)[1] == -2 * delta**2 / box**2
    assert pattern_gamma(path_graph(3), dp, 2)[1] == 0


def test_gamma_vanishes_beyond_two_k():
    dp = DeltaParams(Fraction(1, 10))
    for h in (path_graph(3), path_graph(4), cycle_graph(4), path_graph(5)):
        gamma = pattern_gamma(h, dp, 2)
        for k in range(1, 3):
            if h.n > 2 * k:
                assert gamma[k] == 0, (h.edges, k)


def test_gamma_vanishes_beyond_k_plus_one():
    """gamma_k(h) = 0 whenever |V(h)| > k+1: a cluster of polymers of total
    degree k covers at most k+1 vertices.  The bound is tight: gamma_{n-1}
    of an n-vertex pattern is nonzero."""
    dp = DeltaParams(Fraction(1, 7))
    zeros = 0
    for seed in range(48):
        n = 4 + seed % 4
        h = random_connected_graph(n, random.Random(seed).randrange(n), seed=seed)
        gamma = pattern_gamma(h, dp, n - 1)
        for k in range(1, n - 1):
            assert gamma[k] == 0, (h.edges, k)
            zeros += 1
        assert gamma[n - 1] != 0, h.edges
    assert zeros == 12 * (2 + 3 + 4 + 5)


def _ind_counts(h: Graph) -> dict[bytes, int]:
    """ind(H', h) for every induced subgraph class with >= 2 vertices."""
    out: dict[bytes, int] = {}
    for size in range(2, h.n + 1):
        for combo in itertools.combinations(range(h.n), size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            sub, _ = h.induced_subgraph(mask)
            key = canonical_form(sub)
            out[key] = out.get(key, 0) + 1
    return out


def test_disconnected_patterns_carry_no_weight():
    """Solving a_k(H) = sum gamma ind(H', H) over ALL patterns (connected or
    not) by Moebius inversion must put zero on every disconnected pattern."""
    dp = DeltaParams(Fraction(1, 10))
    K = 2
    pats = [g for g in graphs_upto(5) if g.n >= 2]
    pats.sort(key=lambda g: (g.n, canonical_form(g)))
    keys = [canonical_form(g) for g in pats]
    inds = {k: _ind_counts(g) for k, g in zip(keys, pats)}
    gamma_full: dict[tuple[bytes, int], Fraction] = {}
    for key, h in zip(keys, pats):
        a = newton_log(small_e(h, dp, K), K)
        for k in range(1, K + 1):
            val = a[k]
            for other, cnt in inds[key].items():
                if other != key:
                    val -= gamma_full.get((other, k), Fraction(0)) * cnt
            gamma_full[(key, k)] = val
    for key, h in zip(keys, pats):
        gamma = pattern_gamma(h, dp, K)
        for k in range(1, K + 1):
            assert gamma_full[(key, k)] == gamma[k], (h.edges, k)
            if not h.is_connected():
                assert gamma[k] == 0, (h.edges, k)


def _weight_cases(g: Graph, cap: int) -> set[str]:
    """Which boundary cases of w(C) occur among the connected sets C of g
    with 2 <= |C| <= cap: b = |outer boundary of C|, m = min(b, cap - |C|)."""
    cases = set()
    for mask, _, _ in enumerate_connected_sets(g, cap, min_size=2):
        inside = [v for v in range(g.n) if mask >> v & 1]
        boundary = {
            u for v in inside for u in bits(g.adj_mask[v]) if not mask >> u & 1
        }
        b = len(boundary)
        m = min(b, cap - len(inside))
        cases.add("b=0" if b == 0 else "m<b" if m < b else "m=b")
    return cases


def _with_path(g: Graph, length: int) -> Graph:
    """Disjoint union of g and a path on `length` vertices."""
    tail = [(g.n + i, g.n + i + 1) for i in range(length - 1)]
    return Graph(g.n + length, list(g.edges) + tail)


@pytest.mark.parametrize("seed", range(4))
def test_assembled_matches_direct(seed):
    g = random_connected_graph(7, 3, seed=70 + seed, max_degree=3)
    dp = DeltaParams(Fraction(1, 100))
    K = 4
    assembled = assemble_a(g, dp, K)
    direct = newton_log(small_e(g, dp, K), K)
    assert assembled.a == direct.a
    # n > 2K: assemble_a caps the sets at K+1 vertices, and sets below the
    # cap carry the boundary weight w(C); a path component gives sets with
    # an empty boundary.  The pattern table the CLI prints, sum of
    # gamma_k(H) ind(H, G) over patterns of at most K+1 vertices, must give
    # the same a_k.
    for n, K in ((11, 2), (9, 3)):
        h = _with_path(random_connected_graph(n, 3, seed=80 + seed, max_degree=3), 3)
        assert h.n > 2 * K
        assert _weight_cases(h, K + 1) == {"b=0", "m<b", "m=b"}
        assembled = assemble_a(h, dp, K)
        assert assembled.a == newton_log(small_e(h, dp, K), K).a, (n, K)
        expanded = [Fraction(0)] * (K + 1)
        for count, rep in pattern_counts(h, K + 1).values():
            gamma = pattern_gamma(rep, dp, K)
            for k in range(1, K + 1):
                expanded[k] += count * gamma[k]
        assert tuple(expanded) == assembled.a, (n, K)


def test_assembly_expands_classes_up_to_k_plus_one():
    """A cold assemble_a expands one class series per class of at most K+1
    vertices with nonzero summed weight when n > 2K, and G alone when
    n <= 2K; either way it equals the whole-graph expansion."""
    dp = DeltaParams(Fraction(1, 100))
    for g, K, classes in (
        (random_connected_graph(16, 3, seed=3, max_degree=3), 5, 22),
        (petersen_graph(), 7, 1),
    ):
        clear_caches()
        assembled = assemble_a(g, dp, K)
        assert default_cache().misses == classes, (g.n, K)
        assert assembled.a == newton_log(small_e(g, dp, K), K).a, (g.n, K)


def test_assembly_additive_over_disjoint_union():
    dp = DeltaParams(Fraction(1, 10))
    g1 = cycle_graph(4)
    g2 = path_graph(3)
    union = Graph(
        7, list(g1.edges) + [(u + 4, v + 4) for u, v in g2.edges]
    )
    K = 3
    a1 = assemble_a(g1, dp, K).a
    a2 = assemble_a(g2, dp, K).a
    au = assemble_a(union, dp, K).a
    for k in range(1, K + 1):
        assert au[k] == a1[k] + a2[k]


def test_assemble_repeat_cold_deterministic():
    """Repeated cold runs agree.  So does a run that finds the class series
    a query at delta' and order K' left in the cache, and it weighs and
    expands nothing new.  The series carry no delta; with n <= 2K the only
    class is G itself, so the 6-vertex case reads an entry built at K' = 4
    for K = 3."""
    dp = DeltaParams(Fraction(1, 100))
    cache = default_cache()
    for n, warm in ((8, (Fraction(1, 10), 3)), (6, (Fraction(1, 10), 4))):
        g = random_connected_graph(n, 3, seed=99, max_degree=3)
        runs = []
        for _ in range(3):
            clear_caches()
            runs.append(assemble_a(g, dp, 3).a)
        assert runs[0] == runs[1] == runs[2]
        clear_caches()
        assert not cache.series
        assemble_a(g, DeltaParams(warm[0]), warm[1])
        before = (cache.misses, dict(cache.series))
        assert before[1]
        assert assemble_a(g, dp, 3).a == runs[0], (n, warm)
        assert (cache.misses, cache.series) == before, (n, warm)


def test_small_e_delta_zero_weighs_nothing():
    """At delta = 0 every polymer weighs t^{|S|} = 0, so small_e returns
    (1, 0, ..., 0) without weighing a class or expanding a series."""
    clear_caches()
    g = random_connected_graph(10, 3, seed=2, max_degree=3)
    cache = default_cache()
    before = (cache.misses, dict(cache.series))
    e = small_e(g, DeltaParams(Fraction(0)), g.n - 1)
    assert e == (1,) + (0,) * (g.n - 1)
    assert (cache.misses, cache.series) == before


def test_small_e_labels_no_polymer(monkeypatch):
    """A cold small_e weighs every polymer on the host's own vertex masks:
    it builds no induced subgraph and calls no canonical labelling."""

    def boom(*args, **kwargs):
        raise AssertionError("small_e labelled a polymer")

    monkeypatch.setattr(kernel, "canon_key", boom)
    monkeypatch.setattr(Graph, "induced_subgraph", boom)
    clear_caches()
    e = small_e(petersen_graph(), DeltaParams(Fraction(1, 100)), 9)
    assert e == tuple(
        Fraction(x)
        for x in (
            "1",
            "-10/867",
            "1460/2255067",
            "-690680/17596287801",
            "4134680/1695109058163",
            "-5464287556/39680807942537667",
            "49846614800/7499672701139619063",
            "-1925822422/7499672701139619063",
            "39259306/5356909072242585045",
            "-85672/735262029523492065",
        )
    )


def test_assembly_classifies_sets_by_code(monkeypatch):
    """With n > 2K a cold query classifies every connected set by the row
    code the enumerator carries: it builds no induced subgraph, labels each
    distinct code at most once, and returns the bounds that classifying by
    induced subgraphs gave."""
    g = random_connected_graph(16, 3, seed=3, max_degree=3)
    codes = {code for _, _, code in enumerate_connected_sets(g, 6, min_size=2)}

    def boom(*args, **kwargs):
        raise AssertionError("a connected set built its induced subgraph")

    labelled = []
    canon_key = kernel.canon_key

    def counted(n, flat):
        labelled.append(n)
        return canon_key(n, flat)

    monkeypatch.setattr(Graph, "induced_subgraph", boom)
    monkeypatch.setattr(kernel, "canon_key", counted)
    clear_caches()
    res = approximate_volume(g, Fraction(1, 100), Fraction(1, 10))
    assert res.K == 5 and g.n > 2 * res.K
    assert res.lower == Fraction(5747138500914243, 295147905179352825856)
    assert res.upper == Fraction(3237765961500075, 147573952589676412928)
    assert 0 < len(labelled) <= len(codes)


def test_relabelled_cold_runs_same_answer_and_misses():
    """Class series are keyed by the plain canonical key and expanded on the
    representative decoded from it, so a relabelling (which also reorders
    the edge ranks) changes neither the answer nor the memo misses, which
    count the class series expanded."""
    g = random_connected_graph(8, 3, seed=1, max_degree=3)
    delta, eps = Fraction(1, 100), Fraction(1, 10)
    seen = []
    for seed in (1, 3):
        clear_caches()
        res = approximate_volume(relabelled(g, seed), delta, eps)
        assert res.K >= 3
        seen.append((res.a, res.lower, res.upper, default_cache().misses))
    assert seen[0] == seen[1]


def test_class_weights_skip_tree_machinery(monkeypatch):
    """A cold certified run weighs every class by the region-count DP: it
    reaches neither the tree-shape memo nor a colored canonical labelling,
    and returns the bounds that the spanning-tree sums gave."""

    def boom(*args, **kwargs):
        raise AssertionError("class weights reached the tree route")

    monkeypatch.setattr(WeightCache, "normalized_weight", boom)
    monkeypatch.setattr(treeweight, "colored_canonical_form", boom)
    clear_caches()
    res = approximate_volume(petersen_graph(), Fraction(1, 100), Fraction(1, 100))
    assert res.K == 7
    assert res.lower == Fraction(5394260437330575, 4611686018427387904)
    assert res.upper == Fraction(5465763133293247, 4611686018427387904)


def test_pattern_counts_p3():
    counts = pattern_counts(path_graph(3), 3)
    by_n = {rep.n: cnt for cnt, rep in counts.values()}
    assert by_n == {2: 2, 3: 1}
