import hashlib
import itertools
import random
import tracemalloc
from math import comb

import pytest

from forestvol.canon import canonical_form
from forestvol.errors import GraphParseError
from forestvol.graphs import (
    Graph,
    Tree,
    bits,
    broken_edges,
    code_table,
    connected_masks,
    enumerate_connected_sets,
    MAX_GRAPH_VERTICES,
    format_graph,
    parse_graph,
    row_code,
    spanning_trees,
    tree_from_edges,
    unpack_code,
)
from forestvol.families import (
    complete_graph,
    connected_graphs_upto,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_graph,
)

from conftest import (
    brute_connected_sets,
    graph_from_code,
    pack_code,
    pool_random_connected_graph,
    recursive_connected_sets,
    shuffled_edges,
    sparse1000,
)


def test_parse_basic():
    g = parse_graph("3 2\n0 1\n1 2\n")
    assert g.n == 3 and g.m == 2
    assert g.edges == ((0, 1), (1, 2))


def test_parse_comments_blanks_crlf():
    text = "# a comment\r\n\r\n4 2\r\n0 1\r\n# interior\r\n\r\n2 3\r\n"
    g = parse_graph(text)
    assert g.n == 4 and g.edges == ((0, 1), (2, 3))


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 0),
        ("x y\n", 1),
        ("2 1\n0\n", 2),
        ("2 1\n0 0\n", 2),
        ("2 1\n1 0\n", 2),
        ("2 1\n0 2\n", 2),
        ("# lead\n2 2\n0 1\n0 1\n", 4),
        ("2 2\n0 1\n", 0),
        ("2 1\n0 1\n0 1\n", 3),
        # refused before Graph allocates per vertex
        (f"# big\n{MAX_GRAPH_VERTICES + 1} 0\n", 2),
        ("100000000000 0\n", 1),
        # int() would take these: an underscore, a sign, a non-ASCII digit
        ("1_0 1\n+0 \u0663\n", 1),
        ("1_0 0\n", 1),
        ("2 1\n+0 1\n", 2),
        ("2 1\n-0 1\n", 2),
        ("4 1\n0_3 1\n", 2),
        ("4 1\n0 \u0663\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphParseError) as exc:
        parse_graph(text)
    if line:
        assert exc.value.line == line


def test_parse_accepts_vertex_limit():
    assert parse_graph(f"{MAX_GRAPH_VERTICES} 0\n").n == MAX_GRAPH_VERTICES


def test_format_parse_roundtrip():
    g = petersen_graph()
    assert parse_graph(format_graph(g)).edges == g.edges


@pytest.mark.parametrize(
    "n,edges,match",
    [
        (3, [(0, 1), (1, 2), (0, 1)], "duplicate edge"),
        (4, [(2, 3), (0, 1), (2, 3)], "duplicate edge"),
        (3, [(1, 0)], "bad edge"),
        (3, [(1, 1)], "bad edge"),
        (3, [(0, 3)], "bad edge"),
    ],
)
def test_graph_rejects_repeated_and_bad_edges(n, edges, match):
    with pytest.raises(ValueError, match=match):
        Graph(n, edges)


def test_degree_and_components():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert g.degree(1) == 2 and g.max_degree() == 2
    assert not g.is_connected()
    sub, ids = g.induced_subgraph(0b00111)
    assert sub.edges == ((0, 1), (1, 2)) and ids == (0, 1, 2)


def test_induced_subgraph_preserves_edge_order():
    g = Graph(4, [(2, 3), (0, 1), (1, 2)])
    sub, ids = g.induced_subgraph(0b1110)
    # ranks keep the host order: (2,3) then (1,2), relabeled
    assert ids == (1, 2, 3)
    assert sub.edges == ((1, 2), (0, 1))
    # edge lists in random rank order: the subgraph lists the host edges
    # inside the mask in host rank order, relabelled
    rng = random.Random(5)
    for seed in range(6):
        h = shuffled_edges(random_graph(9, 0.5, seed=seed), seed)
        for _ in range(40):
            mask = rng.getrandbits(9)
            sub, ids = h.induced_subgraph(mask)
            new_id = {v: i for i, v in enumerate(ids)}
            inside = [(u, v) for u, v in h.edges if mask >> u & 1 and mask >> v & 1]
            assert ids == tuple(v for v in range(9) if mask >> v & 1)
            assert sub.edges == tuple((new_id[u], new_id[v]) for u, v in inside)


@pytest.mark.parametrize("seed", range(6))
def test_connected_sets_match_brute_force(seed):
    g = random_graph(7, 0.4, seed=seed)
    for min_size in (1, 2):
        got = [mask for mask, _, _ in enumerate_connected_sets(g, 5, min_size)]
        assert len(got) == len(set(got))
        assert set(got) == brute_connected_sets(g, 5, min_size)


@pytest.mark.parametrize("seed", range(6))
def test_connected_masks_inside_a_mask_match_brute_force(seed):
    """connected_masks gives each connected set of at most max_size
    vertices inside the mask once, and no other set."""
    g = random_graph(9, 0.4, seed=seed)
    rng = random.Random(seed)
    for max_size in (1, 2, 4, 9):
        want = brute_connected_sets(g, max_size)
        for within in [rng.getrandbits(9) for _ in range(8)] + [0, g.vertex_mask()]:
            got = list(connected_masks(g, within, max_size))
            assert len(got) == len(set(got))
            assert set(got) == {mask for mask in want if mask & within == mask}, within


@pytest.mark.parametrize(
    "g",
    [
        petersen_graph(),
        complete_graph(4),
        cycle_graph(6),
        random_connected_graph(16, 3, seed=3, max_degree=3),
        random_graph(9, 0.4, seed=11),
        random_graph(10, 0.3, seed=12),
    ],
    ids=["petersen", "k4", "c6", "dense16", "random9", "random10"],
)
def test_connected_sets_carry_neighbourhood_and_code(g):
    for mask, nbr, code in enumerate_connected_sets(g, 7):
        expect = 0
        for v in bits(mask):
            expect |= g.adj_mask[v]
        assert nbr == expect
        assert len(code) == mask.bit_count()
        assert all(row < 1 << i for i, row in enumerate(code))
        sub = g.induced_subgraph(mask)[0]
        h = graph_from_code(code)
        assert h.m == sub.m
        assert canonical_form(h) == canonical_form(sub)


@pytest.mark.parametrize(
    "g,max_sizes",
    [
        # n = 0 and n + 2 = 2 are among the small caps
        (Graph(0, []), (0, 1, 2, 5)),
        (Graph(9, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 7)]), (0, 1, 2, 5, 9, 11)),
        (petersen_graph(), (0, 1, 2, 5, 10, 12)),
        (random_connected_graph(16, 3, seed=3, max_degree=3), (0, 1, 2, 5, 16, 18)),
        # every connected set of 200 vertices is out of reach, so the two
        # largest caps stop at 7
        (random_connected_graph(200, 60, seed=1, max_degree=3), (0, 1, 2, 5, 6, 7)),
    ],
    ids=["empty", "isolated", "petersen", "dense16", "sparse200"],
)
@pytest.mark.parametrize("min_size", [1, 2, 3])
def test_connected_sets_match_recursive_search(g, max_sizes, min_size):
    """The flat enumerator yields the recursive search's (mask, nbr, code)
    tuples, element by element and in its order."""
    for max_size in max_sizes:
        got = list(enumerate_connected_sets(g, max_size, min_size))
        assert got == list(recursive_connected_sets(g, max_size, min_size)), max_size


def _weight_rules(g: Graph, cap: int) -> dict:
    """The three weights by (set size s, boundary size b) that the pipeline
    sums per code below the cap: assemble_a's w(C), written as
    (-1)^m binom(b-1, m) with m = min(b, cap - s), or 1 when b = 0, or 0
    when m = b; pattern_gamma's (-1)^{n-s} on the sets with N[C] = V(g);
    and pattern_counts' 1."""

    def boundary(s, b):
        m = min(b, cap - s)
        if b == 0:
            return 1
        return (-1) ** m * comb(b - 1, m) if m < b else 0

    return {
        "boundary": boundary,
        "gamma": lambda s, b: (-1) ** (g.n - s) if s + b == g.n else 0,
        "count": lambda s, b: 1,
    }


def _reference_sets(g: Graph, cap: int) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """(mask, size, boundary size, code) of each connected set of 2 to cap
    vertices, in the order of enumerate_connected_sets, with the boundary
    counted vertex by vertex."""
    out = []
    for mask, _, code in enumerate_connected_sets(g, cap, min_size=2):
        inside = list(bits(mask))
        boundary = {u for v in inside for u in bits(g.adj_mask[v])} - set(inside)
        out.append((mask, len(inside), len(boundary), code))
    return out


def _expected_code_table(cap: int, weight, sets) -> dict[int, list[int]]:
    """{packed code: [summed weight, first mask]} summed set by set over
    _reference_sets, every set of cap vertices weighing 1 and a smaller
    one weight(size, boundary size)."""
    table: dict[int, list[int]] = {}
    for mask, size, b, code in sets:
        w = 1 if size == cap else weight(size, b)
        if w:
            table.setdefault(pack_code(code), [0, mask])[0] += w
    return table


@pytest.mark.parametrize(
    "g",
    [
        Graph(0, []),
        Graph(1, []),
        # two components and three isolated vertices
        Graph(9, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 7)]),
        cycle_graph(7),
        petersen_graph(),
        complete_graph(6),
        random_connected_graph(10, 14, seed=4, max_degree=5),
        random_connected_graph(11, 12, seed=5, max_degree=4),
        random_graph(10, 0.4, seed=8),
    ],
    ids=["empty", "single", "isolated", "c7", "petersen", "k6", "deg5", "deg4", "random10"],
)
def test_code_table_matches_brute_force(g):
    """code_table gives, for caps 1 to 7 and a cap above n and for each of
    the pipeline's three weight rules, the table summed set by set over
    the connected sets found by testing every subset of at most cap
    vertices, with the codes and set order of enumerate_connected_sets
    (first masks included); every key unpacks to its code."""
    assert g.max_degree() <= 5
    for cap in (*range(1, 8), g.n + 1):
        found = brute_connected_sets(g, cap, min_size=2)
        sets = _reference_sets(g, cap)
        assert {mask for mask, *_ in sets} == found and len(sets) == len(found)
        codes = {code for *_, code in sets}
        for name, weight in _weight_rules(g, cap).items():
            got = code_table(g, cap, weight)
            assert got == _expected_code_table(cap, weight, sets), (cap, name)
            assert {unpack_code(key) for key in got} <= codes, (cap, name)


def test_code_table_matches_reference_on_sparse1000():
    """On the sparse_large graph at caps 2 to 6, code_table equals the
    table summed over enumerate_connected_sets for each weight rule."""
    g = sparse1000()
    for cap in range(2, 7):
        sets = _reference_sets(g, cap)
        for name, weight in _weight_rules(g, cap).items():
            assert code_table(g, cap, weight) == _expected_code_table(cap, weight, sets), (cap, name)


def test_unpack_code_inverts_packing():
    """unpack_code gives back the rows of every connected code, and each
    row it gives has bits only below its own position."""
    for g in (petersen_graph(), random_connected_graph(12, 8, seed=2, max_degree=5)):
        for _, _, code in enumerate_connected_sets(g, 6):
            assert unpack_code(pack_code(code)) == code
    for key in range(1 << 10):
        assert all(row >> i == 0 for i, row in enumerate(unpack_code(key)))


def test_row_code_roundtrip():
    for g in (petersen_graph(), path_graph(5), Graph(0, []), Graph(3, [(0, 2)])):
        back = graph_from_code(row_code(g))
        assert back.n == g.n and set(back.edges) == set(g.edges)


@pytest.mark.parametrize(
    "g,count",
    [
        (complete_graph(4), 16),
        (cycle_graph(5), 5),
        (path_graph(6), 1),
        (petersen_graph(), 2000),
    ],
)
def test_spanning_tree_counts(g, count):
    ranks = [t.edge_ranks for t in spanning_trees(g)]
    assert len(ranks) == count
    assert ranks == _brute_force_trees(g)


def _brute_force_trees(g: Graph) -> list[tuple[int, ...]]:
    """The (n-1)-subsets of edge ranks whose edges form a connected graph,
    in itertools.combinations order."""
    return [
        sub
        for sub in itertools.combinations(range(g.m), g.n - 1)
        if Graph(g.n, [g.edges[r] for r in sub]).is_connected()
    ]


def test_spanning_trees_lexicographic_on_small_graphs():
    """Every connected graph on at most 6 vertices, in its own edge order
    and reversed: the trees are the brute-force subsets, in their order."""
    for g in connected_graphs_upto(6):
        for h in (g, Graph(g.n, g.edges[::-1])):
            assert [t.edge_ranks for t in spanning_trees(h)] == _brute_force_trees(h)


def test_spanning_trees_requires_connected():
    with pytest.raises(ValueError):
        list(spanning_trees(Graph(4, [(0, 1), (2, 3)])))


def test_tree_from_edges_validates():
    g = complete_graph(4)
    t = tree_from_edges(g, (0, 1))
    assert t.size == 3
    with pytest.raises(ValueError):
        tree_from_edges(g, (0, 1, 3))  # 0-1, 0-2, 1-2 is a triangle
    with pytest.raises(ValueError, match="cycle"):
        tree_from_edges(g, (0, 1, 3, 4))  # that triangle plus 1-3
    with pytest.raises(ValueError, match="not connected"):
        tree_from_edges(Graph(4, [(0, 1), (2, 3)]), (0, 1))


def test_tree_from_edges_rejects_ranks_naming_no_edge():
    """-1 would index the last edge and m would raise IndexError; a repeated
    rank names one edge twice.  Each is a ValueError."""
    k2 = Graph(2, [(0, 1)])
    for ranks in ((-1,), (1,), (0, 0)):
        with pytest.raises(ValueError):
            tree_from_edges(k2, ranks)
    with pytest.raises(ValueError, match=r"out of range: \[-1, 6\]"):
        tree_from_edges(complete_graph(4), (-1, 0, 6))
    with pytest.raises(ValueError, match="repeated"):
        tree_from_edges(complete_graph(4), (0, 1, 1))


def _fundamental_cycle(g: Graph, tree: Tree, rank: int) -> list[int]:
    """Edge ranks on the tree path between the endpoints of a chord."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for r in tree.edge_ranks:
        u, v = g.edges[r]
        adj.setdefault(u, []).append((v, r))
        adj.setdefault(v, []).append((u, r))
    src, dst = g.edges[rank]
    seen = {src}
    stack = [(src, [])]
    while stack:
        node, path = stack.pop()
        if node == dst:
            return path
        for nxt, r in adj.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, path + [r]))
    raise AssertionError("chord endpoints not connected in tree")


@pytest.mark.parametrize("seed", range(8))
def test_broken_edges_are_cycle_maxima(seed):
    g = random_graph(7, 0.5, seed=seed + 100)
    if not g.is_connected():
        pytest.skip("disconnected draw")
    for tree in spanning_trees(g):
        broken = set(broken_edges(g, tree))
        in_tree = set(tree.edge_ranks)
        for rank in range(g.m):
            if rank in in_tree:
                continue
            cycle = _fundamental_cycle(g, tree, rank)
            is_max = all(rank > r for r in cycle)
            assert (rank in broken) == is_max


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(2, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (0, 1)])


def _outcome(make, *args):
    """What make(*args) gives: the graph, or the error's type and text."""
    try:
        return make(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("max_degree", [None, 1, 2, 3, 4])
def test_random_connected_graph_matches_pool_reference(max_degree):
    """The rank pool shuffles and decodes to the same graphs, and raises
    the same errors, as the tuple pool it replaced."""
    for n in range(-2, 41):
        for seed in range(6):
            for extra in (-1, 0, 1, 3, 10, 1000):
                args = (n, extra, seed, max_degree)
                assert _outcome(random_connected_graph, *args) == _outcome(
                    pool_random_connected_graph, *args
                ), args


@pytest.mark.parametrize("n", [1000, 2000])
def test_random_connected_graph_matches_pool_reference_large(n):
    args = (n, 300, 0, 3)
    assert random_connected_graph(*args) == pool_random_connected_graph(*args)


@pytest.mark.parametrize(
    "g, digest",
    [
        (random_connected_graph(16, 3, seed=3, max_degree=3), "2670555aa4ed3730"),
        (sparse1000(), "767ab68c7a687ed3"),
    ],
    ids=["dense16", "sparse1000"],
)
def test_benchmark_graphs_pinned(g, digest):
    assert hashlib.sha256(format_graph(g).encode()).hexdigest()[:16] == digest


def test_random_connected_graph_memory():
    """One 4-byte rank per pair: sparse1000's pool of 498,501 pairs peaks
    at about 2.4 MB, where a list of pair tuples took 32.6 MB."""
    tracemalloc.start()
    try:
        random_connected_graph(1000, 300, seed=0, max_degree=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 10**6
