"""Named graph families plus seeded random graphs and exhaustive
enumeration of small graphs up to isomorphism.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

from .canon import canonical_form
from .graphs import Graph


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append(tuple(sorted((i, (i + 1) % 5))))
        edges.append((i, i + 5))
        edges.append(tuple(sorted((5 + i, 5 + (i + 2) % 5))))
    return Graph(10, sorted(set(edges)))


def random_graph(
    n: int,
    p: float,
    seed: int,
    max_degree: int | None = None,
) -> Graph:
    """Seeded Erdos-Renyi draw; edges violating a degree cap are skipped
    in a fixed pair order, so the result is deterministic in (n, p, seed).
    """
    rng = random.Random(seed)
    deg = [0] * n
    edges = []
    for u, v in combinations(range(n), 2):
        if rng.random() >= p:
            continue
        if max_degree is not None and (deg[u] >= max_degree or deg[v] >= max_degree):
            continue
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return Graph(n, edges)


def random_connected_graph(
    n: int,
    extra_edges: int,
    seed: int,
    max_degree: int | None = None,
) -> Graph:
    """Random tree (random parent choice) plus up to extra_edges chords,
    honoring an optional degree cap. Deterministic in its arguments.
    """
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
    pool = [e for e in combinations(range(n), 2) if e not in chosen]
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


def connected_graphs_upto(
    max_n: int,
    max_degree: int | None = None,
    max_cycle_rank: int | None = None,
) -> Iterator[Graph]:
    """All connected graphs with at most max_n vertices, one per
    isomorphism class, by vertex augmentation.

    Every connected graph on n >= 2 vertices has a non-cut vertex, so it
    arises from a connected graph on n-1 vertices by attaching one new
    vertex to a nonempty subset of the old ones; deduplication by
    canonical form makes the sweep exhaustive and irredundant.

    max_cycle_rank bounds m - n + 1 (0 gives the trees, 1 the trees and
    one-cycle graphs).  Attaching a vertex to s old ones raises the rank
    by s - 1, so every graph within the bound has a parent within it.
    """
    if max_n < 1:
        return
    layer = [Graph(1, [])]
    yield layer[0]
    for n in range(2, max_n + 1):
        seen: set[bytes] = set()
        nxt: list[Graph] = []
        for g in layer:
            rank = len(g.edges) - g.n + 1
            for size in range(1, n):
                if max_degree is not None and size > max_degree:
                    break
                if max_cycle_rank is not None and rank + size - 1 > max_cycle_rank:
                    break
                for subset in combinations(range(n - 1), size):
                    if max_degree is not None and any(
                        g.degree(u) >= max_degree for u in subset
                    ):
                        continue
                    h = Graph(n, g.edges + tuple((u, n - 1) for u in subset))
                    key = canonical_form(h)
                    if key in seen:
                        continue
                    seen.add(key)
                    nxt.append(h)
        layer = nxt
        yield from layer


def graphs_upto(max_n: int, max_degree: int | None = None) -> Iterator[Graph]:
    """All graphs (connected or not) with at most max_n vertices, one per
    isomorphism class, by edge augmentation from the empty graph.
    """
    for n in range(1, max_n + 1):
        layer = [Graph(n, [])]
        seen = {canonical_form(layer[0])}
        yield layer[0]
        while layer:
            nxt = []
            for g in layer:
                present = set(g.edges)
                for e in combinations(range(n), 2):
                    if e in present:
                        continue
                    if max_degree is not None and (
                        g.degree(e[0]) >= max_degree or g.degree(e[1]) >= max_degree
                    ):
                        continue
                    h = Graph(n, sorted(present | {e}))
                    key = canonical_form(h)
                    if key in seen:
                        continue
                    seen.add(key)
                    nxt.append(h)
            yield from nxt
            layer = nxt
