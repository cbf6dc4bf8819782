import random

import pytest

from forestvol import kernel
from forestvol.canon import canonical_form, code_key, colored_canonical_form, peel_key
from forestvol.graphs import Graph, enumerate_connected_sets, row_code
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

from conftest import sparse1000


def _permuted(g: Graph, perm: list[int]) -> Graph:
    edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges)
    return Graph(g.n, edges)


@pytest.mark.parametrize("seed", range(10))
def test_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    g = random_graph(8, 0.45, seed=seed)
    perm = list(range(8))
    rng.shuffle(perm)
    assert canonical_form(g) == canonical_form(_permuted(g, perm))


@pytest.mark.parametrize(
    "a,b",
    [
        (cycle_graph(6), Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])),
        # same degree sequence (two cubic graphs on 6 vertices)
        (complete_graph(4), Graph(4, [(0, 1), (1, 2), (2, 3)])),
        (path_graph(4), Graph(4, [(0, 1), (0, 2), (0, 3)])),
        # K3,3 vs the prism: both cubic on 6 vertices
        (
            Graph(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]),
            Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]),
        ),
    ],
)
def test_distinguishes_nonisomorphic(a, b):
    assert canonical_form(a) != canonical_form(b)


def test_class_counts_small():
    # canonical_form is the deduper inside graphs_upto, so the known class
    # counts double as a correctness check for it
    per_n = {}
    for g in graphs_upto(5):
        per_n[g.n] = per_n.get(g.n, 0) + 1
    assert per_n == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}


@pytest.mark.parametrize("seed", range(8))
def test_colored_invariance(seed):
    rng = random.Random(seed)
    g = random_graph(7, 0.5, seed=200 + seed)
    colored = [(u, v, 1 + (u + v) % 3) for u, v in g.edges]
    perm = list(range(7))
    rng.shuffle(perm)
    moved = []
    for u, v, c in colored:
        a, b = sorted((perm[u], perm[v]))
        moved.append((a, b, c))
    assert colored_canonical_form(7, colored) == colored_canonical_form(7, moved)


def test_colors_matter():
    base = [(0, 1, 1), (1, 2, 1)]
    recol = [(0, 1, 1), (1, 2, 2)]
    assert colored_canonical_form(3, base) != colored_canonical_form(3, recol)
    # but swapping which edge carries color 2 is an isomorphism
    other = [(0, 1, 2), (1, 2, 1)]
    assert colored_canonical_form(3, recol) == colored_canonical_form(3, other)


def test_colored_validation():
    with pytest.raises(ValueError):
        colored_canonical_form(2, [(0, 1, 0)])
    with pytest.raises(ValueError):
        colored_canonical_form(2, [(0, 1, 256)])
    with pytest.raises(ValueError):
        colored_canonical_form(33, [])


def test_regular_pairs_with_same_refinement():
    # two 2-regular graphs on 6 vertices: C6 vs C3+C3; colour refinement
    # alone cannot split these, so this exercises individualization
    c6 = cycle_graph(6)
    two_triangles = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert canonical_form(c6) != canonical_form(two_triangles)


# Keys name the classes coeffs expands and the forestvol coeffs table
# prints, so a change to the labelling search must not re-key them; these
# bytes were recorded before canonical_form labelled graphs from row codes.
PINNED_KEYS = [
    (
        petersen_graph(),
        "0a010000000001000001010001000000000000000100000100010000000101"
        "000001000000010001010100000000",
    ),
    (path_graph(6), "06010000000000010000000101010000"),
    (complete_graph(4), "04010101010101"),
    # a tree with two branch points
    (Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]), "06000100000000010000010001010000"),
]


@pytest.mark.parametrize("g,key", PINNED_KEYS, ids=["petersen", "p6", "k4", "tree6"])
def test_pinned_keys(g, key):
    assert canonical_form(g).hex() == key


def test_pinned_colored_key():
    edges = [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 3), (0, 4, 2), (1, 3, 3)]
    assert colored_canonical_form(5, edges).hex() == "0500010002020100030003"


# The labelling search as it stood before automorphism pruning: it visits
# every leaf of the refinement tree.  Kept verbatim as the reference the
# pruned kernel.canon_key must agree with byte for byte.
def _unpruned_key(n: int, flat: bytes) -> bytes:
    if n == 0:
        return b"\x00"
    if n == 1:
        return b"\x01"
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    nbrs = [[u for u in range(n) if rows[v][u]] for v in range(n)]

    def refine(colors: list[int]) -> list[int]:
        while True:
            # every value is below 2^24, so these tuples sort exactly as
            # their fixed-width 3-byte big-endian strings would
            sigs = [
                (colors[v], *sorted((rows[v][u] << 16) | colors[u] for u in nbrs[v]))
                for v in range(n)
            ]
            index = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = [index[s] for s in sigs]
            # sig leads with the old color, so ids are stable at a fixed point
            if new == colors:
                return colors
            colors = new

    best: bytes | None = None

    def leaf_key(colors: list[int]) -> bytes:
        order = sorted(range(n), key=colors.__getitem__)
        tri = bytearray()
        for i in range(n):
            ri = rows[order[i]]
            for j in range(i + 1, n):
                tri.append(ri[order[j]])
        return bytes(tri)

    def search(colors: list[int]) -> None:
        nonlocal best
        colors = refine(colors)
        counts = [0] * (n + 1)
        for c in colors:
            counts[c] += 1
        target = -1
        for c in range(n):
            if counts[c] > 1:
                target = c
                break
        if target < 0:
            key = leaf_key(colors)
            if best is None or key < best:
                best = key
            return
        for v in range(n):
            if colors[v] == target:
                child = colors.copy()
                child[v] = n  # fresh id: existing ids are < n
                search(child)

    search([0] * n)
    assert best is not None
    return bytes([n]) + best


def _flat(n: int, colored_edges) -> bytes:
    flat = bytearray(n * n)
    for u, v, c in colored_edges:
        flat[u * n + v] = flat[v * n + u] = c
    return bytes(flat)


def _frucht_graph() -> Graph:
    # cubic on 12 vertices with no automorphism but the identity, so every
    # leaf of its search gives a different key (LCF [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2])
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    edges = {tuple(sorted((i, (i + 1) % 12))) for i in range(12)}
    edges |= {tuple(sorted((i, (i + d) % 12))) for i, d in enumerate(lcf)}
    return Graph(12, sorted(edges))


_SYMMETRIC = {
    "petersen": petersen_graph(),
    "q3": Graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]),
    "k33": Graph(6, [(u, v) for u in range(3) for v in range(3, 6)]),
    "prism": Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)]),
    "c12": cycle_graph(12),
    # the complement of C3 + C4: pruning by automorphisms that move the
    # node's colouring, instead of only those that keep it, changes its key
    "co-c3c4": Graph(
        7,
        [(u, v) for u in range(7) for v in range(u + 1, 7)
         if (u, v) not in {(0, 1), (0, 6), (1, 6), (2, 3), (3, 4), (4, 5), (2, 5)}],
    ),
}


def test_pruned_keys_equal_unpruned_search():
    rng = random.Random(12)
    cases = []
    for g in graphs_upto(6):
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            cases.append((g.n, [(perm[u], perm[v], 1) for u, v in g.edges]))
    for i in range(300):
        n = rng.randint(6, 9)
        g = random_graph(n, rng.uniform(0.2, 0.8), seed=1000 + i)
        top = 3 if i % 2 else 1
        cases.append((n, [(u, v, rng.randint(1, top)) for u, v in g.edges]))
    for g in _SYMMETRIC.values():
        cases.append((g.n, [(u, v, 1) for u, v in g.edges]))
    for n, edges in cases:
        flat = _flat(n, edges)
        assert kernel.canon_key(n, flat) == _unpruned_key(n, flat), (n, edges)


def test_pinned_frucht_key():
    # recorded before the search pruned by automorphisms; with every leaf
    # distinct, a search that took any leaf but the least would move it
    key = (
        "0c010001010000000000000001000001000000000000000101000000000000000001"
        "010000000000000001000000000000010000010100000000000100000001010101"
    )
    assert canonical_form(_frucht_graph()).hex() == key


def test_complete_graph_labels_in_few_leaves(monkeypatch):
    # unpruned, K9 has 9! = 362,880 leaves, every one with the same key
    leaves = []
    leaf_key = kernel._leaf_key

    def counted(rows, order):
        leaves.append(order)
        return leaf_key(rows, order)

    monkeypatch.setattr(kernel, "_leaf_key", counted)
    key = canonical_form(complete_graph(9))
    assert key == bytes([9]) + b"\x01" * 36
    assert len(leaves) <= 9 * 9


def test_code_key_refuses_oversized_code():
    with pytest.raises(ValueError, match="at most 32"):
        code_key(tuple(range(33)))
    with pytest.raises(ValueError):
        code_key((0, 0b10))  # position 1 cannot be adjacent to position 1


def test_code_key_matches_colored_form():
    for g in list(_SYMMETRIC.values()) + [_frucht_graph(), path_graph(5)]:
        plain = colored_canonical_form(g.n, [(u, v, 1) for u, v in g.edges])
        assert code_key(row_code(g)) == plain


def _same_partition(codes) -> int:
    """Assert that peel_key names every code and that two codes get equal
    strings exactly when their code_keys are equal; return the classes."""
    by_peel: dict[str, set[bytes]] = {}
    by_key: dict[bytes, set[str]] = {}
    for code in codes:
        peeled, key = peel_key(code), code_key(code)
        assert peeled is not None, code
        by_peel.setdefault(peeled, set()).add(key)
        by_key.setdefault(key, set()).add(peeled)
    assert all(len(keys) == 1 for keys in by_peel.values())
    assert all(len(strings) == 1 for strings in by_key.values())
    return len(by_key)


def test_peel_key_exact_on_trees_and_one_cycle_graphs():
    """Every connected graph of at most 8 vertices with m <= n, under 4
    relabellings each: 48 trees and 143 one-cycle graphs (OEIS A000055 and
    A001429 summed over n <= 8), one peeled string per class."""
    graphs = list(connected_graphs_upto(8, max_cycle_rank=1))
    assert len(graphs) == 191
    assert sum(len(g.edges) < g.n for g in graphs) == 48
    codes = [
        row_code(_permuted(g, random.Random(seed).sample(range(g.n), g.n)))
        for g in graphs
        for seed in range(4)
    ]
    assert _same_partition(codes) == 191


def test_connected_graphs_upto_cycle_rank_filter():
    """max_cycle_rank prunes the augmentation without losing a class."""
    for rank in (0, 1, 2):
        pruned = {canonical_form(g) for g in connected_graphs_upto(6, max_cycle_rank=rank)}
        full = {
            canonical_form(g)
            for g in connected_graphs_upto(6)
            if len(g.edges) - g.n + 1 <= rank
        }
        assert pruned == full


@pytest.mark.parametrize(
    "g, cap",
    [
        (sparse1000(), 7),
        (random_connected_graph(16, 3, seed=3, max_degree=3), 9),
    ],
    ids=["sparse1000", "dense16"],
)
def test_peel_key_exact_on_enumerated_codes(g, cap):
    """Every code the enumerator gives with at most as many edges as
    vertices gets a string, and the strings split the codes as code_key
    does; every other code gets None."""
    codes = {code for _, _, code in enumerate_connected_sets(g, cap, min_size=2)}
    low = [c for c in codes if sum(r.bit_count() for r in c) <= len(c)]
    assert all(peel_key(c) is None for c in codes.difference(low))
    assert _same_partition(low) > 0


def test_peel_key_none_past_one_cycle_or_disconnected():
    """Codes with two or more independent cycles, and disconnected codes,
    get no string."""
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    theta = Graph(5, [(0, 1), (1, 2), (0, 3), (2, 3), (0, 4), (2, 4)])
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    split = [
        Graph(4, [(0, 1), (1, 2), (0, 2)]),  # a triangle and a lone vertex
        Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),  # a triangle and an edge
        Graph(3, [(0, 1)]),
    ]
    for g in [complete_graph(4), bowtie, theta, two_triangles, *split]:
        for seed in range(3):
            perm = random.Random(seed).sample(range(g.n), g.n)
            assert peel_key(row_code(_permuted(g, perm))) is None, g.edges
    assert peel_key(()) is None


def test_peel_key_refuses_malformed_code():
    """peel_key checks each row as code_key does, so a bad code raises."""
    with pytest.raises(ValueError, match="at most 32"):
        peel_key((0,) * 33)
    for bad in ((0, 0b10), (0, 1, 0b101), (0, -1)):
        with pytest.raises(ValueError, match="bad row code"):
            peel_key(bad)
