"""Shared helpers: brute-force reference implementations kept deliberately
dumb so the package's cleverness is checked against something obvious.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from math import factorial, lcm
from typing import Iterator

import pytest

from forestvol.graphs import Graph, bits

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


def recursive_connected_sets(
    g: Graph, max_size: int, min_size: int = 1
) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """The recursive enumerator graphs.enumerate_connected_sets replaced,
    kept verbatim as the reference for its output and order.

    All vertex subsets inducing a connected subgraph, as (mask, nbr, code).

    Sizes run from min_size to max_size.  Each set is produced exactly once:
    sets are rooted at their smallest vertex and grown only through
    neighbors above the root, with an exclusion mask preventing revisits.

    nbr is the OR of the adjacency masks over mask, so the set's outer
    boundary is nbr & ~mask and its closed neighbourhood is mask | nbr.
    code is the row code of g[mask] with its vertices numbered in the order
    they were added, the root first: code[i] is the bitmask of the
    positions j < i whose vertices are adjacent to the vertex at position
    i, so code[0] = 0 and len(code) = |mask|.  It is an exact labelled copy
    of g[mask] (graph_from_code), in the format row_code gives a whole
    graph.  Adding a vertex u updates all three in O(deg u).
    """
    if max_size <= 0:
        return
    adj_mask = g.adj_mask
    # position of each vertex of the current set in its code; entries of
    # vertices outside the set are stale and never read
    pos = [0] * g.n
    for root in range(g.n):
        above = ~((1 << (root + 1)) - 1)

        def grow(
            sset: int, nbr: int, code: tuple[int, ...], cand: int, banned: int
        ) -> Iterator[tuple[int, int, tuple[int, ...]]]:
            size = len(code)
            if size >= min_size:
                yield sset, nbr, code
            if size == max_size:
                return
            while cand:
                low = cand & -cand
                cand ^= low
                banned |= low
                u = low.bit_length() - 1
                au = adj_mask[u]
                row = 0
                inside = au & sset
                while inside:
                    b = inside & -inside
                    inside ^= b
                    row |= 1 << pos[b.bit_length() - 1]
                pos[u] = size
                new_cand = cand | (au & above & ~banned & ~sset)
                yield from grow(sset | low, nbr | au, code + (row,), new_cand, banned)

        pos[root] = 0
        yield from grow(1 << root, adj_mask[root], (0,), adj_mask[root] & above, 0)


def graph_from_code(code: tuple[int, ...]) -> Graph:
    """The graph a row code (graphs.row_code) describes, edges in row-major
    order."""
    return Graph(
        len(code), sorted((j, i) for i, row in enumerate(code) for j in bits(row))
    )


@functools.cache
def sparse1000() -> Graph:
    """The 1000-vertex degree-3 graph of the sparse_large workload, built
    once per test run: Graph is immutable, so every test may share it."""
    from forestvol.families import random_connected_graph

    return random_connected_graph(1000, 300, seed=0, max_degree=3)


def pool_random_connected_graph(
    n: int,
    extra_edges: int,
    seed: int,
    max_degree: int | None = None,
) -> Graph:
    """The tuple-pool body families.random_connected_graph replaced, kept
    verbatim as the reference for its output and its errors."""
    if max_degree is not None and max_degree < 2 and n > 2:
        raise ValueError("max_degree < 2 cannot support a spanning tree")
    rng = random.Random(seed)
    deg = [0] * n
    chosen = set()
    for v in range(1, n):
        candidates = [u for u in range(v) if max_degree is None or deg[u] < max_degree]
        if not candidates:
            raise ValueError("degree cap too tight for a spanning tree")
        u = rng.choice(candidates)
        chosen.add((u, v))
        deg[u] += 1
        deg[v] += 1
    pool = [e for e in itertools.combinations(range(n), 2) if e not in chosen]
    rng.shuffle(pool)
    added = 0
    for u, v in pool:
        if added >= extra_edges:
            break
        if max_degree is not None and (deg[u] >= max_degree or deg[v] >= max_degree):
            continue
        chosen.add((u, v))
        deg[u] += 1
        deg[v] += 1
        added += 1
    return Graph(n, sorted(chosen))


def brute_polymer_series(g: Graph, K: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(E, D) of coeffs.polymer_series from its definition: every family of
    pairwise-disjoint connected sets of 2..K+1 vertices, each weighed by
    polymer_weights as c(S) = U(S)/|S|!.  D is the lcm of the reduced
    denominators of the c(S), and E[j][r] = D^r times the sum of prod c(S)
    over the families of r polymers of total degree j."""
    from forestvol.treeweight import polymer_weights

    weight = {s: Fraction(u, factorial(s.bit_count())) for s, u in polymer_weights(g, K + 1)}
    polymers = sorted(brute_connected_sets(g, K + 1, min_size=2))
    assert sorted(weight) == polymers
    D = lcm(*(c.denominator for c in weight.values()))
    E = [[Fraction(0)] * (K + 1) for _ in range(K + 1)]
    # r polymers of total degree j <= K: each has degree >= 1, so r <= K
    for r in range(min(K, g.n // 2) + 1):
        # the other r - 1 polymers take at least 2 vertices each
        room = [s for s in polymers if s.bit_count() <= g.n - 2 * (r - 1)]
        for family in itertools.combinations(room, r):
            cover = sum(s.bit_count() for s in family)
            if cover != functools.reduce(int.__or__, family, 0).bit_count():
                continue  # two polymers share a vertex
            j = cover - r
            if j <= K:
                term = Fraction(D**r)
                for s in family:
                    term *= weight[s]
                E[j][r] += term
    assert all(v.denominator == 1 for row in E for v in row)
    return tuple(tuple(int(v) for v in row) for row in E), D


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
    from forestvol.treeweight import default_cache

    default_cache().clear()


def eps_reaching_order(n: int, radius: Fraction, K: int) -> tuple[Fraction, int]:
    """(eps, order) for the largest eps = 2^-j whose truncation order on n
    vertices at this radius is at least K."""
    from forestvol.interpolate import truncation_order

    eps = Fraction(1, 2)
    while (order := truncation_order(n, eps, radius)) < K:
        eps /= 2
    return eps, order


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
