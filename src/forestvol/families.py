"""Named graph families plus seeded random graphs and exhaustive
enumeration of small graphs up to isomorphism.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, bisect_right
from itertools import combinations
from collections.abc import Iterator

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


def _shuffle(rng: random.Random, x) -> None:
    """Shuffle the sequence x in place exactly as rng.shuffle(x) does.

    rng.shuffle swaps x[i] with x[r] for i from len(x) - 1 down to 1, where
    r = rng._randbelow(i + 1) draws getrandbits((i + 1).bit_length()) until
    the draw is at most i. This loop makes the same draws and swaps, binds
    the bit length once per block of positions that share it, and makes no
    call but getrandbits per draw. It is kept out of its caller's body:
    tracemalloc looks up a line number for every int the loop allocates,
    which costs more in a long function.
    """
    getrandbits = rng.getrandbits
    hi = len(x) - 1
    while hi > 0:
        k = (hi + 1).bit_length()
        lo = (1 << (k - 1)) - 1  # the least i with (i + 1).bit_length() == k
        for i in range(hi, lo - 1, -1):
            r = getrandbits(k)
            while r > i:
                r = getrandbits(k)
            x[i], x[r] = x[r], x[i]
        hi = lo - 1


def random_connected_graph(
    n: int,
    extra_edges: int,
    seed: int,
    max_degree: int | None = None,
) -> Graph:
    """Random tree (random parent choice) plus up to extra_edges chords,
    honoring an optional degree cap. Deterministic in its arguments.

    Vertex v >= 1 picks its parent uniformly among the vertices below it
    with room under the cap. The chords are tried in the order of one
    shuffle of every non-tree pair, skipping pairs at the cap. The pool
    holds each pair's rank in combinations(range(n), 2) order, 4 bytes a
    pair (8 past 2^32 pairs), and only the pairs tried are decoded. The
    shuffle is _shuffle's Fisher-Yates loop, which makes rng.shuffle's
    draws: for each position i from the last down to 1, getrandbits of
    (i + 1).bit_length() bits until one is at most i. That is at least
    one draw per pair, so time stays quadratic in n.
    """
    if max_degree is not None and max_degree < 2 and n > 2:
        raise ValueError("max_degree < 2 cannot support a spanning tree")
    rng = random.Random(seed)
    deg = [0] * n
    chosen = []
    # the vertices below v with room under the cap, ascending
    open_below: list[int] = []
    for v in range(1, n):
        if max_degree is None or deg[v - 1] < max_degree:
            open_below.append(v - 1)
        if not open_below:
            raise ValueError("degree cap too tight for a spanning tree")
        u = rng.choice(open_below)
        chosen.append((u, v))
        deg[u] += 1
        deg[v] += 1
        if max_degree is not None and deg[u] >= max_degree:
            del open_below[bisect_left(open_below, u)]
    # start[u] is the rank of the pair (u, u + 1)
    start = [u * (2 * n - u - 1) // 2 for u in range(n)]
    pairs = n * (n - 1) // 2 if n > 1 else 0
    pool = array("I" if pairs <= 1 << 32 else "Q")
    done = 0
    for rank in sorted(start[u] + v - u - 1 for u, v in chosen):
        pool.extend(range(done, rank))
        done = rank + 1
    pool.extend(range(done, pairs))
    _shuffle(rng, pool)
    added = 0
    for rank in pool:
        if added >= extra_edges:
            break
        u = bisect_right(start, rank) - 1
        v = rank - start[u] + u + 1
        if max_degree is not None and (deg[u] >= max_degree or deg[v] >= max_degree):
            continue
        chosen.append((u, v))
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
