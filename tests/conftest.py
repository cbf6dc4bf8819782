"""Shared helpers: brute-force reference implementations kept deliberately
dumb so the package's cleverness is checked against something obvious.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from forestvol.graphs import Graph

try:
    from hypothesis import settings

    settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True)
    settings.load_profile("suite")
except ImportError:
    pass


def brute_connected_sets(g: Graph, max_size: int, min_size: int = 1) -> set[int]:
    """All vertex masks of connected induced subgraphs, by filtering every
    subset."""
    out = set()
    for size in range(min_size, max_size + 1):
        for combo in itertools.combinations(range(g.n), size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            sub, _ = g.induced_subgraph(mask)
            if sub.is_connected():
                out.add(mask)
    return out


def is_forest(g: Graph, ranks: tuple[int, ...]) -> bool:
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in ranks:
        u, v = g.edges[r]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def forest_component_ranks(g: Graph, ranks: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Split a forest's edge ranks by connected component."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r in ranks:
        u, v = g.edges[r]
        parent[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for r in ranks:
        groups.setdefault(find(g.edges[r][0]), []).append(r)
    return [tuple(sorted(rs)) for _, rs in sorted(groups.items())]


def clear_caches() -> None:
    """Empty every process-global memo, so the next query runs cold."""
    from forestvol.canon import clear_cache
    from forestvol.treeweight import default_cache

    clear_cache()
    default_cache().clear()


def shuffled_edges(g: Graph, seed: int) -> Graph:
    """g with its edge list (hence its edge ranks) in a seeded random order."""
    edges = list(g.edges)
    random.Random(seed).shuffle(edges)
    return Graph(g.n, edges)


def relabelled(g: Graph, seed: int) -> Graph:
    """g under a seeded vertex permutation, edges re-sorted by new label."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))


def p3_volume(delta: Fraction) -> Fraction:
    """Slice integration for the 3-path: integrate out the middle
    coordinate against min(b, 1-x)^2."""
    b = Fraction(1, 2) + delta
    # x_mid in [0, 1-b]: both neighbors free in [0, b]
    # x_mid in [1-b, b]: neighbors limited to [0, 1-x_mid]
    first = b**2 * (1 - b)
    # integral of (1-x)^2 from 1-b to b = [(1-x)^3 / -3]
    second = (b**3 - (1 - b) ** 3) / 3
    return first + second


def k2_volume(delta: Fraction) -> Fraction:
    b = Fraction(1, 2) + delta
    return b**2 - 2 * delta**2


@pytest.fixture
def delta_quarter() -> Fraction:
    return Fraction(1, 4)
