import random

import pytest

from forestvol.canon import canonical_form, colored_canonical_form
from forestvol.graphs import Graph
from forestvol.families import (
    complete_graph,
    cycle_graph,
    graphs_upto,
    path_graph,
    petersen_graph,
    random_graph,
)


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


# Keys are WeightCache.series keys, so a change to the labelling search or
# to the code cache must not re-key them; these bytes were recorded before
# canonical_form looked graphs up by row code.
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
