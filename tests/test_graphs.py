import itertools
import random

import pytest

from forestvol.canon import canonical_form
from forestvol.errors import GraphParseError
from forestvol.graphs import (
    Graph,
    Tree,
    bits,
    broken_edges,
    connected_masks,
    enumerate_connected_sets,
    MAX_GRAPH_VERTICES,
    format_graph,
    parse_graph,
    row_code,
    spanning_trees,
    tree_from_edges,
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
    recursive_connected_sets,
    shuffled_edges,
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
