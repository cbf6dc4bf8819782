import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from forestvol.canon import canonical_form, graph_from_key, peel_key
from forestvol.coeffs import (
    assemble_a,
    newton_exp,
    newton_log,
    pattern_counts,
    pattern_gamma,
    small_e,
)
from forestvol.errors import SizeGuardError
from forestvol.graphs import (
    Graph,
    bits,
    enumerate_connected_sets,
    row_code,
    spanning_trees,
    tree_from_edges,
    unpack_code,
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
from forestvol import coeffs, kernel, treeweight
from forestvol.treeweight import (
    DeltaParams,
    WeightCache,
    default_cache,
    polymer_weights,
    tree_weight,
)

from conftest import (
    brute_polymer_series,
    clear_caches,
    forest_component_ranks,
    graph_from_code,
    is_forest,
    pack_code,
    recursive_connected_sets,
    relabelled,
    shuffled_edges,
    sparse1000,
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


# --- polymer weights -----------------------------------------------------------


def _polymer_weight(h: Graph, dp: DeltaParams) -> Fraction:
    """c(h) t^{|h|}: the weight of the polymer V(h) of a connected h, from
    polymer_weights' U(V(h)) = |h|! c(h)."""
    t = dp.delta / dp.box_hi
    return Fraction(dict(polymer_weights(h, h.n))[h.vertex_mask()], factorial(h.n)) * t**h.n


def test_polymer_weight_values(delta_quarter):
    dp = DeltaParams(delta_quarter)
    assert _polymer_weight(Graph(2, [(0, 1)]), dp) == Fraction(-2, 9)
    assert _polymer_weight(path_graph(3), dp) == Fraction(8, 81)


def test_polymer_weight_equals_spanning_tree_sum():
    """polymer_weights reads a connected graph's class weight from the
    region-count DP, which builds no tree.  Check it against the w_T summed
    over the spanning trees, in the graph's own edge order and in one
    shuffled order: the broken edges of a tree follow the edge ranks, so
    the two tree sums split the cycles differently and must still agree."""
    dp = DeltaParams(Fraction(1, 10))
    for seed, h in enumerate(connected_graphs_upto(6)):
        if h.n < 2:
            continue
        weight = _polymer_weight(h, dp)
        for g in (h, shuffled_edges(h, seed)):
            trees = (tree_weight(g, t, dp).w for t in spanning_trees(g))
            assert weight == sum(trees, Fraction(0)), g.edges


def test_polymer_series_matches_definition():
    """(E, D), D included, against the sum over every family of disjoint
    polymers (brute_polymer_series): every connected graph of at most 6
    vertices at K = 1..5, two triangles joined by an edge at K = 0..6, and
    the empty graph."""
    for g in connected_graphs_upto(6):
        for K in range(1, 6):
            assert coeffs.polymer_series(g, K) == brute_polymer_series(g, K), (g.edges, K)
    triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    for K in range(7):
        assert coeffs.polymer_series(triangles, K) == brute_polymer_series(triangles, K), K
    for K in range(3):
        assert coeffs.polymer_series(Graph(0, []), K) == brute_polymer_series(Graph(0, []), K)
    assert coeffs.polymer_series(Graph(0, []), 2) == (((1, 0, 0), (0, 0, 0), (0, 0, 0)), 1)


def test_polymer_series_deep_graph_needs_no_recursion():
    """The subset DP walks its states on an explicit stack: a 1000-vertex
    path, whose DP chain is 1000 states deep, expands with the default
    recursion limit.  Its e_1 counts the 999 edges, each weighing c = -2."""
    path = path_graph(1000)
    E, D = coeffs.polymer_series(path, 1)
    assert (E, D) == (((1, 0), (0, -2 * 999)), 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: small_e(path_graph(3), DeltaParams(Fraction(1, 4)), -1),
        lambda: small_e(path_graph(3), DeltaParams(Fraction(0)), -1),
        lambda: newton_log((Fraction(1),), -2),
        lambda: newton_exp((Fraction(0), Fraction(1)), -1),
        lambda: coeffs.polymer_series(path_graph(3), -1),
    ],
    ids=["small_e", "small_e-delta0", "newton_log", "newton_exp", "polymer_series"],
)
def test_series_reject_negative_order(call):
    with pytest.raises(ValueError, match="K must be >= 0"):
        call()


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


def test_pattern_gamma_labels_each_bucket_once(monkeypatch):
    """pattern_gamma sums its signs per row code and labels only codes with
    no peeled string that share their table with another such code, each
    once: K4's 11 dominating connected sets (6 edges, 4 triangles, K4
    itself) make no code_key call, since the edges and triangles have
    peeled strings and K4 is the only code without one.  Each gamma_k
    still equals the per-set definition, the sum over connected C with
    N[C] = V(h) of (-1)^{|h|-|C|} a_k(h[C]), with a(h[C]) from
    newton_log(small_e(h[C]))."""
    dp = DeltaParams(Fraction(1, 10))
    labelled = []
    code_key = coeffs.code_key

    def counted(code):
        labelled.append(code)
        return code_key(code)

    monkeypatch.setattr(coeffs, "code_key", counted)
    for h, K, calls in (
        (complete_graph(4), 3, 0),
        (path_graph(4), 3, None),
        (random_connected_graph(6, 3, seed=2), 5, None),
    ):
        labelled.clear()
        gamma = pattern_gamma(h, dp, K)
        if calls is not None:
            assert len(labelled) == calls
        assert len(labelled) == len(set(labelled)), h.edges
        assert all(peel_key(c) is None for c in labelled), h.edges
        assert len(labelled) != 1, h.edges
        expected = [Fraction(0)] * (K + 1)
        for size in range(2, h.n + 1):
            for combo in itertools.combinations(range(h.n), size):
                mask = sum(1 << v for v in combo)
                closed = mask
                for v in combo:
                    closed |= h.adj_mask[v]
                sub, _ = h.induced_subgraph(mask)
                if closed != h.vertex_mask() or not sub.is_connected():
                    continue
                a = newton_log(small_e(sub, dp, K), K)
                sign = (-1) ** (h.n - size)
                for k in range(1, K + 1):
                    expected[k] += sign * a[k]
        assert gamma == tuple(expected), h.edges


def test_pattern_gamma_delta_zero_expands_nothing(monkeypatch):
    """At delta = 0 every gamma_k is 0, returned without labelling a set or
    expanding a class series."""

    def boom(*args, **kwargs):
        raise AssertionError("labelled or expanded at delta = 0")

    monkeypatch.setattr(coeffs, "code_key", boom)
    monkeypatch.setattr(coeffs, "polymer_tables", boom)
    assert pattern_gamma(complete_graph(4), DeltaParams(Fraction(0)), 3) == (Fraction(0),) * 4


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


@pytest.mark.parametrize(
    "g,K",
    [
        (random_connected_graph(16, 3, seed=3, max_degree=3), 5),
        (petersen_graph(), 7),
        # two isomorphic triangles, an edge and two isolated vertices, n <= 2K
        (Graph(10, [(0, 1), (1, 2), (0, 2), (4, 5), (6, 7), (7, 8), (6, 8)]), 5),
        (_with_path(random_connected_graph(9, 3, seed=81, max_degree=3), 3), 3),
    ],
    ids=["dense16-K5", "petersen-K7", "disconnected-K5", "disconnected-K3"],
)
def test_pattern_table_a_matches_assemble_a(g, K):
    """The forestvol coeffs table: its a, the sum of count * gamma_k over
    the patterns of at most K+1 vertices, equals assemble_a's a, both when
    n > 2K (dense16, the 12-vertex union) and when n <= 2K; its rows are
    pattern_counts sorted by key, each with its pattern_gamma."""
    dp = DeltaParams(Fraction(1, 100))
    clear_caches()
    rows, a = coeffs.pattern_table(g, dp, K)
    counts = pattern_counts(g, min(K + 1, g.n))
    assert [key for key, _, _, _ in rows] == sorted(counts)
    for key, count, rep, gamma in rows:
        assert (count, rep) == counts[key]
        assert gamma == pattern_gamma(rep, dp, K)
    assert a.a == assemble_a(g, dp, K).a


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


def _recursive_code_table(g: Graph, K: int, tag=lambda mask, code: mask, last=False):
    """{packed row code: [summed weight, tag]} of g from the recursive enumerator
    and the boundary weight as first written: cap = n when n <= 2K, else
    K+1, and every set weighed (-1)^m binom(b-1, m), or 1 when b = 0, or
    dropped when m = b.  The tag is tag(mask, code) of the code's first
    set, or of its last set when last is true."""
    cap = g.n if g.n <= 2 * K else K + 1
    by_code: dict[int, list] = {}
    for mask, nbr, code in recursive_connected_sets(g, cap, min_size=2):
        b = (nbr & ~mask).bit_count()
        m = min(b, cap - len(code))
        if b == 0:
            w = 1
        elif m < b:
            w = (-1) ** m * comb(b - 1, m)
        else:
            continue
        entry = by_code.setdefault(pack_code(code), [0, tag(mask, code)])
        entry[0] += w
        if last:
            entry[1] = tag(mask, code)
    return by_code


def _recursive_graph_series(g: Graph, K: int):
    """(N, L) of g from _recursive_code_table, each class expanded from
    the mask of its first set."""
    return coeffs._class_sum(g, coeffs._classes(_recursive_code_table(g, K)), K, {})


@pytest.mark.parametrize(
    "g,K",
    [
        (random_connected_graph(16, 3, seed=3, max_degree=3), 5),
        (petersen_graph(), 7),
        # two isomorphic triangles, an edge and two isolated vertices, n <= 2K
        (Graph(10, [(0, 1), (1, 2), (0, 2), (4, 5), (6, 7), (7, 8), (6, 8)]), 5),
        (sparse1000(), 2),
    ],
    ids=["dense16-K5", "petersen-K7", "disconnected-K5", "sparse1000-K2"],
)
def test_graph_series_matches_recursive_table(g, K):
    """The class table built from the flat enumerator (weight 1 at the cap,
    the sign from the parity of m) or, when n <= 2K, from G's own row code
    equals the one built from the recursive enumerator by the first rule."""
    clear_caches()
    assert coeffs._graph_series(g, K) == _recursive_graph_series(g, K)


def _polynomial(N, L, K):
    """{(k, r): N[k][r] / (k L^r)}, the nonzero coefficients of t^{k+r} in
    a_k(t) = sum_r N[k][r] t^{k+r} / (k L^r), whatever L is."""
    return {
        (k, r): Fraction(v, k * L**r)
        for k in range(1, K + 1)
        for r, v in enumerate(N[k])
        if v
    }


@pytest.mark.parametrize(
    "g,K",
    [
        (random_connected_graph(16, 3, seed=3, max_degree=3), 5),
        (sparse1000(), 4),
        *((random_connected_graph(12, 4, seed=seed, max_degree=3), 4) for seed in range(3)),
    ],
    ids=["dense16-K5", "sparse1000-K4", "random12-0", "random12-1", "random12-2"],
)
def test_shared_kernel_matches_classes_expanded_alone(g, K):
    """The classes of a query, expanded together by one polymer_tables call
    on g's own vertex masks over one common denominator, give the a_k(t)
    that the classes give expanded one at a time, each as the graph of its
    first code (polymer_series(graph_from_code(code))), and the same a_k(t)
    again when each class is expanded from the mask of its code's last set
    in place of its first."""
    assert g.n > 2 * K
    clear_caches()
    shared = _polynomial(*coeffs._graph_series(g, K), K)
    alone: dict[tuple[int, int], Fraction] = {}
    by_code = _recursive_code_table(g, K, tag=lambda mask, code: code)
    for code, w in coeffs._classes(by_code).values():
        E, D = coeffs.polymer_series(graph_from_code(code), K)
        B = coeffs._log_series(E, K)
        for k in range(1, K + 1):
            for r, v in enumerate(B[k]):
                alone[k, r] = alone.get((k, r), 0) + Fraction(w * v, k * D**r)
    assert shared == {kr: c for kr, c in alone.items() if c}
    first, last = (_recursive_code_table(g, K, last=last) for last in (False, True))
    masks = [[mask for mask, _ in coeffs._classes(t).values()] for t in (first, last)]
    assert masks[0] != masks[1]
    assert _polynomial(*coeffs._class_sum(g, coeffs._classes(last), K, {}), K) == shared


def _reference_log_series(E, K):
    """Newton's identity over every j < k, zero rows of E included."""
    B = [(0,) * (K + 1)]
    for k in range(1, K + 1):
        row = [k * v for v in E[k]]
        for j in range(1, k):
            ekj = E[k - j]
            for r1, x in enumerate(B[j]):
                if x:
                    for r2, y in enumerate(ekj[: k + 1 - r1]):
                        if y:
                            row[r1 + r2] -= x * y
        B.append(tuple(row))
    return tuple(B)


@pytest.mark.parametrize(
    "g,K",
    [(complete_graph(3), 200), (petersen_graph(), 7), (path_graph(2), 5)],
    ids=["K3-K200", "petersen-K7", "K2-K5"],
)
def test_log_series_skips_zero_rows(g, K):
    """B from the rows of E below the class's vertex count alone equals B
    from every row."""
    E, _ = coeffs.polymer_series(g, K)
    assert coeffs._log_series(E, K) == _reference_log_series(E, K)


def test_component_route_enumerates_nothing(monkeypatch):
    """With n <= 2K a cold query expands G whole, as one class even when G
    is disconnected, and enumerates no connected set."""

    def boom(*args, **kwargs):
        raise AssertionError("enumerated connected sets")

    monkeypatch.setattr(coeffs, "code_table", boom)
    dp = DeltaParams(Fraction(1, 100))
    g = Graph(10, [(0, 1), (1, 2), (0, 2), (4, 5), (6, 7), (7, 8), (6, 8)])
    clear_caches()
    a = assemble_a(g, dp, 5).a
    assert a == newton_log(small_e(g, dp, 5), 5).a
    assert default_cache().misses == 1


def test_whole_graph_route_splits_nothing(monkeypatch):
    """With n <= 2K nothing on the coefficient side splits G into
    components or builds an induced subgraph: a cold Petersen query (K = 7)
    and assemble_a on two triangles, an edge and an isolated vertex still
    give their answers."""

    def boom(*args, **kwargs):
        raise AssertionError("split a graph")

    monkeypatch.setattr(Graph, "induced_subgraph", boom)
    clear_caches()
    res = approximate_volume(petersen_graph(), Fraction(1, 100), Fraction(1, 100))
    assert res.K == 7
    assert res.lower == Fraction(5394260437330575, 4611686018427387904)
    assert res.upper == Fraction(5465763133293247, 4611686018427387904)
    dp = DeltaParams(Fraction(1, 100))
    g = Graph(9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)])
    clear_caches()
    assert assemble_a(g, dp, 5).a == newton_log(small_e(g, dp, 5), 5).a
    assert default_cache().misses == 1


def test_whole_graph_route_refuses_more_than_32_vertices(monkeypatch):
    """An order above 16 on a graph of more than 32 vertices is refused by
    assemble_a and pattern_table themselves, with SizeGuardError and before
    any connected set is enumerated, whether G would be expanded whole
    (n <= 2K: nine disjoint K4 at K = 18, C40 at K = 20) or enumerated."""

    def boom(*args, **kwargs):
        raise AssertionError("enumerated connected sets")

    monkeypatch.setattr(coeffs, "code_table", boom)
    k4 = complete_graph(4).edges
    k4s = Graph(36, [(4 * i + u, 4 * i + v) for i in range(9) for u, v in k4])
    dp = DeltaParams(Fraction(1, 100))
    for build, K, n in (
        (lambda: assemble_a(k4s, dp, 18), 18, 36),
        (lambda: assemble_a(cycle_graph(40), dp, 20), 20, 40),
        (lambda: coeffs.pattern_table(cycle_graph(40), dp, 20), 20, 40),
    ):
        clear_caches()
        with pytest.raises(SizeGuardError, match=f"K={K} .* {n} > 32"):
            build()


def test_sparse1000_connected_set_counts():
    """The connected sets of 2..c vertices of the sparse_large graph, each
    once: a faster enumerator that skips or repeats a set changes these."""
    g = sparse1000()
    for cap, count in ((3, 3596), (4, 8346), (5, 19166)):
        masks = [mask for mask, _, _ in enumerate_connected_sets(g, cap, min_size=2)]
        assert len(masks) == len(set(masks)) == count, cap


def test_assembly_additive_over_disjoint_union():
    """a_k of a disjoint union is the sum over its parts, both when the
    union's connected sets are enumerated (n > 2K) and when it is expanded
    whole (n <= 2K, here with two isomorphic components)."""
    dp = DeltaParams(Fraction(1, 10))
    for parts, K in (
        ((cycle_graph(4), path_graph(3)), 3),
        ((complete_graph(3), path_graph(3), complete_graph(3)), 5),
    ):
        edges = []
        n = 0
        for part in parts:
            edges += [(u + n, v + n) for u, v in part.edges]
            n += part.n
        union = Graph(n, edges)
        assert (n <= 2 * K) == (len(parts) == 3)
        au = assemble_a(union, dp, K).a
        for k in range(1, K + 1):
            assert au[k] == sum(assemble_a(part, dp, K).a[k] for part in parts)


def test_assemble_repeat_cold_deterministic():
    """Repeated cold runs agree.  So does a run that finds the whole-graph
    series a query at delta' and order K' left in the slot, and it expands
    nothing new.  The series carries no delta, so the 6-vertex case reads a
    slot built at K' = 4 for K = 3."""
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
        assemble_a(g, DeltaParams(warm[0]), warm[1])
        before = (cache.hits, cache.misses)
        assert before[1]
        assert assemble_a(g, dp, 3).a == runs[0], (n, warm)
        assert (cache.hits, cache.misses) == (before[0] + 1, before[1]), (n, warm)


def test_small_e_delta_zero_weighs_nothing():
    """At delta = 0 every polymer weighs t^{|S|} = 0, so small_e returns
    (1, 0, ..., 0) without weighing a class or expanding a series."""
    clear_caches()
    g = random_connected_graph(10, 3, seed=2, max_degree=3)
    cache = default_cache()
    before = (cache.hits, cache.misses, cache.whole)
    e = small_e(g, DeltaParams(Fraction(0)), g.n - 1)
    assert e == (1,) + (0,) * (g.n - 1)
    assert (cache.hits, cache.misses, cache.whole) == before


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
    code the enumerator carries: it builds no induced subgraph, labels no
    code (the sets' 91 codes fold into 22 classes by their peeled
    strings), and returns the bounds that classifying by induced subgraphs
    gave."""
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
    assert len(codes) == 91 and len(labelled) == 0


@pytest.mark.parametrize(
    "g, delta, K, misses",
    [
        (sparse1000(), Fraction(1, 200), 6, 28),
        (petersen_graph(), Fraction(1, 100), 7, 1),
    ],
    ids=["sparse1000", "petersen"],
)
def test_cold_query_label_calls_pinned(monkeypatch, g, delta, K, misses):
    """A cold query at eps = 1/100 runs kernel.canon_key on no code and
    expands one class series per class: the 482 weighed codes of
    sparse1000 at c = 7 are trees or one-cycle codes, named by their peeled
    strings (28 classes), and the whole Petersen graph (n <= 2K) is the
    only code of its table, so it names itself."""
    labelled = []
    canon_key = kernel.canon_key

    def counted(n, flat):
        labelled.append(n)
        return canon_key(n, flat)

    monkeypatch.setattr(kernel, "canon_key", counted)
    clear_caches()
    res = approximate_volume(g, delta, Fraction(1, 100))
    assert res.K == K
    assert len(labelled) == 0
    assert default_cache().misses == misses


def test_classes_label_codes_past_one_cycle_each(monkeypatch):
    """Codes with two or more independent cycles get no peeled string, so
    when a table holds several of them _classes labels each and merges the
    isomorphic ones into one class, while the trees of one class are named
    by their peeled string and not labelled.  A malformed row code packs
    into the well-formed code it unpacks to, and _classes names it by that
    code instead of adding it to the class of a good code."""
    theta = Graph(5, [(0, 1), (1, 2), (0, 3), (2, 3), (0, 4), (2, 4)])
    thetas = {row_code(relabelled(theta, seed)) for seed in range(6)}
    paths = {row_code(relabelled(path_graph(5), seed)) for seed in range(6)}
    assert len(thetas) > 1 and len(paths) > 1
    labelled = []
    code_key = coeffs.code_key

    def counted(code):
        labelled.append(code)
        return code_key(code)

    monkeypatch.setattr(coeffs, "code_key", counted)
    out = coeffs._classes({pack_code(c): [1, c] for c in thetas | paths})
    assert {name: w for name, (_, w) in out.items()} == {
        canonical_form(theta): len(thetas),
        peel_key(row_code(path_graph(5))): len(paths),
    }
    assert out[canonical_form(theta)][0] in thetas
    assert sorted(labelled) == sorted(thetas)
    # row 2 of (0, 0b1, 0b110) has a bit at its own position; packed, that
    # bit is row 3's, so the code reads as the path 3-0-1-2
    path, bad = (0, 0b1, 0b10), pack_code((0, 0b1, 0b110))
    assert unpack_code(bad) == (0, 0b1, 0b10, 0b1)
    assert coeffs._classes({pack_code(path): [1, path], bad: [1, None]}) == {
        peel_key(path): [path, 1],
        peel_key(row_code(path_graph(4))): [None, 1],
    }


def test_classes_name_a_lone_unpeeled_code_by_itself(monkeypatch):
    """A code with no peeled string that is the only one of its table is
    not labelled: it names its class itself.  Two or more such codes are
    each labelled, so isomorphic ones merge into one class and the others
    stay apart; codes with a peeled string never add a label."""
    theta = Graph(5, [(0, 1), (1, 2), (0, 3), (2, 3), (0, 4), (2, 4)])
    t1, t2 = (row_code(relabelled(theta, seed)) for seed in (1, 2))
    k4 = row_code(complete_graph(4))
    path = row_code(path_graph(4))
    assert t1 != t2 and peel_key(t1) is peel_key(k4) is None
    labelled = []
    code_key = coeffs.code_key

    def counted(code):
        labelled.append(code)
        return code_key(code)

    monkeypatch.setattr(coeffs, "code_key", counted)
    p1, p2, pk4, ppath = map(pack_code, (t1, t2, k4, path))
    assert coeffs._classes({p1: [3, t1], ppath: [2, path], p2: [0, t2]}) == {
        p1: [t1, 3],
        peel_key(path): [path, 2],
    }
    assert labelled == []
    assert coeffs._classes({p1: [1, t1], p2: [2, t2], ppath: [1, path]}) == {
        peel_key(path): [path, 1],
        canonical_form(theta): [t1, 3],
    }
    assert labelled == [t1, t2]
    labelled.clear()
    assert coeffs._classes({p1: [1, t1], pk4: [-1, k4]}) == {
        canonical_form(theta): [t1, 1],
        canonical_form(complete_graph(4)): [k4, -1],
    }
    assert labelled == [t1, k4]


@pytest.mark.parametrize(
    "g, K",
    [
        (random_connected_graph(16, 3, seed=3, max_degree=3), 5),
        (petersen_graph(), 7),
        (sparse1000(), 6),
    ],
    ids=["dense16-K5", "petersen-K7", "sparse1000-K6"],
)
def test_class_series_from_first_code_match_key_representative(monkeypatch, g, K):
    """Every class a cold assemble_a sums (g itself when n <= 2K) is
    expanded from the mask of its first code; the (B, D) of g[mask] equals
    the (B, D) of the representative its plain canonical key encodes, and
    no two classes share a key."""
    tables = []
    class_sum = coeffs._class_sum

    def kept(h, named, *args):
        tables.append(named)
        return class_sum(h, named, *args)

    monkeypatch.setattr(coeffs, "_class_sum", kept)
    clear_caches()
    assemble_a(g, DeltaParams(Fraction(1, 100)), K)
    [table] = tables
    keys = set()
    for mask, _ in table.values():
        sub = g.induced_subgraph(mask)[0]
        key = canonical_form(sub)
        keys.add(key)
        series = []
        for h in (sub, graph_from_key(key)):
            E, D = coeffs.polymer_series(h, K)
            series.append((coeffs._log_series(E, K), D))
        assert series[0] == series[1], mask
    assert len(keys) == len(table)


if HAVE_HYPOTHESIS:

    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_polymer_series_invariant_under_relabelling(n, extra, seed, perm):
        """(E, D) of a small connected graph is the same under any
        relabelling, so a class series may be expanded from any code of
        the class."""
        g = random_connected_graph(n, extra, seed=seed)
        K = n - 1
        assert coeffs.polymer_series(relabelled(g, perm), K) == coeffs.polymer_series(g, K)


def test_pattern_table_labels_once_per_row(monkeypatch):
    """forestvol coeffs on sparse1000 at delta = 1/300 (K = 5) labels one
    code per pattern row, for the row's key: the rows' gamma tables name
    their classes by peeled strings, or by a lone code itself."""
    g = sparse1000()
    labelled = []
    code_key = coeffs.code_key

    def counted(code):
        labelled.append(code)
        return code_key(code)

    monkeypatch.setattr(coeffs, "code_key", counted)
    clear_caches()
    rows, _ = coeffs.pattern_table(g, DeltaParams(Fraction(1, 300)), 5)
    assert len(rows) == 18 and len(labelled) == 18


def test_relabelled_cold_runs_same_answer_and_misses():
    """Class series are named by exact class names (peeled strings, plain
    canonical keys, or a lone code's own code) and expanded from one code
    of the class, whose series is an isomorphism invariant, so a
    relabelling (which also reorders the edge ranks) changes neither the
    answer nor the memo misses, which count the class series expanded."""
    g = random_connected_graph(8, 3, seed=1, max_degree=3)
    delta, eps = Fraction(1, 100), Fraction(1, 10)
    seen = []
    for seed in (1, 3):
        clear_caches()
        res = approximate_volume(relabelled(g, seed), delta, eps)
        assert res.K >= 3
        seen.append((res.a, res.lower, res.upper, default_cache().misses))
    assert seen[0] == seen[1]


# the benchmark's delta sweep: delta stepped down from 1/100 by 1/10000
SWEEP = tuple(Fraction(1, 100) - Fraction(j, 10000) for j in range(6))


def _boom(*args, **kwargs):
    raise AssertionError("a warm query redid delta-free work")


@pytest.mark.parametrize(
    "g, eps",
    [
        (random_connected_graph(16, 3, seed=3, max_degree=3), Fraction(1, 10)),
        (petersen_graph(), Fraction(1, 100)),
    ],
    ids=["n>2K", "n<=2K"],
)
def test_warm_sweep_points_do_no_delta_free_work(monkeypatch, g, eps):
    """After the first point of a delta sweep on one graph, every later
    point reads the graph's delta-free series from the whole-graph slot: it
    enumerates no connected set, labels no code, expands no class series
    and counts no miss, and its a, lower and upper equal a cold answer."""
    cold = []
    for delta in SWEEP:
        clear_caches()
        res = approximate_volume(g, delta, eps)
        cold.append((res.K, res.a, res.lower, res.upper))
    clear_caches()
    cache = default_cache()
    first = approximate_volume(g, SWEEP[0], eps)
    assert (first.K, first.a, first.lower, first.upper) == cold[0]
    assert (g.n > 2 * first.K) == (g.n == 16)
    for name in ("code_table", "code_key", "polymer_tables"):
        monkeypatch.setattr(coeffs, name, _boom)
    misses = cache.misses
    for delta, want in zip(SWEEP[1:], cold[1:]):
        hits = cache.hits
        res = approximate_volume(g, delta, eps)
        assert (res.K, res.a, res.lower, res.upper) == want, delta
        assert (cache.hits, cache.misses) == (hits + 1, misses), delta


def test_whole_graph_slot_holds_one_graph(monkeypatch):
    """The slot serves any order up to its own from the same table, is
    rebuilt for a higher order, is found by an equal but distinct Graph,
    is replaced by any other graph (a relabelled copy included) so that it
    holds only the last, is left as it was by a failed query, and is
    emptied by WeightCache.clear()."""
    dp = DeltaParams(Fraction(1, 100))
    g = random_connected_graph(12, 3, seed=5, max_degree=3)
    cold = {}
    for K in (3, 4):
        clear_caches()
        cold[K] = assemble_a(g, dp, K).a
    assert g.n > 2 * 4
    enumerated = []
    build_table = coeffs.code_table

    def counted(h, *args, **kwargs):
        enumerated.append(h)
        return build_table(h, *args, **kwargs)

    monkeypatch.setattr(coeffs, "code_table", counted)
    cache = default_cache()

    # built at K' = 4 (by the last cold query), it serves K = 3
    assert cache.whole[:2] == (g, 4)
    hits, misses = cache.hits, cache.misses
    assert assemble_a(g, dp, 3).a == cold[3]
    assert (cache.hits, cache.misses) == (hits + 1, misses)
    assert cache.whole[1] == 4 and not enumerated

    # a higher order than the slot's rebuilds it
    clear_caches()
    assemble_a(g, dp, 3)
    assert assemble_a(g, dp, 4).a == cold[4]
    assert cache.whole[:2] == (g, 4) and enumerated == [g, g]

    # an equal graph built separately hits
    twin = Graph(g.n, list(g.edges))
    assert twin is not g
    hits = cache.hits
    assert assemble_a(twin, dp, 4).a == cold[4]
    assert cache.hits == hits + 1 and len(enumerated) == 2

    # any other graph replaces the slot; only the last one is held
    moved = relabelled(g, 1)
    other = cycle_graph(9)
    for h in (moved, other):
        assemble_a(h, dp, 4)
        assert cache.whole[0] is h
    assert enumerated[2:] == [moved, other]
    assert assemble_a(g, dp, 4).a == cold[4]
    assert enumerated[4:] == [g] and cache.whole[0] is g

    # a failed query leaves the slot as it was
    held = cache.whole
    monkeypatch.setattr(coeffs, "polymer_tables", _boom)
    with pytest.raises(AssertionError, match="delta-free work"):
        assemble_a(other, dp, 4)
    assert cache.whole is held

    cache.clear()
    assert cache.whole is None


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
