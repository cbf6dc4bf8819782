"""Checks on the certified pipeline: Monte Carlo volume, exact enumeration,
the interval-partition property of broken-edge sets, and root location.

Only Monte Carlo shares no code with the interpolation pipeline.
exact_volume, exact_p1 and root_check expand p with small_e, the same tree
weights and polymer DP the pipeline uses, so they check the interpolation
and the certificate but not the weights themselves; ROADMAP item 4 plans an
exact oracle that needs no tree weights.  penrose_check uses the graph
module's spanning-tree and broken-edge routines.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .coeffs import small_e
from .errors import SizeGuardError
from .graphs import Graph, spanning_trees, broken_edges
from .treeweight import DeltaParams, WeightCache

MC_CHUNK = 1 << 16
EXACT_VERTEX_LIMIT = 12
EXACT_EDGE_LIMIT = 16
PENROSE_EDGE_LIMIT = 20


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int
    accepted: int
    box_volume: float

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.samples if self.samples else 0.0


def mc_volume(
    g: Graph,
    delta: Fraction,
    samples: int,
    seed: int = 0,
    threads: int = 1,
) -> McEstimate:
    """Monte Carlo volume estimate with a fixed chunked sample layout.

    Chunk i draws from Philox(key=seed) at counter block i, so the accepted
    count (hence the estimate) is independent of thread count.
    """
    delta = Fraction(delta)
    if samples <= 0:
        raise ValueError("samples must be positive")
    n = g.n
    hi = float(Fraction(1, 2) + delta)
    edges = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    chunks = [
        (i, min(MC_CHUNK, samples - i * MC_CHUNK))
        for i in range((samples + MC_CHUNK - 1) // MC_CHUNK)
    ]

    def run(chunk: tuple[int, int]) -> int:
        idx, count = chunk
        bitgen = np.random.Philox(key=seed, counter=[0, 0, idx, 0])
        rng = np.random.Generator(bitgen)
        x = rng.random((count, n)) * hi if n else np.zeros((count, 0))
        ok = np.ones(count, dtype=bool)
        for u, v in edges:
            ok &= x[:, u] + x[:, v] <= 1.0
        return int(ok.sum())

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            accepted = sum(pool.map(run, chunks))
    else:
        accepted = sum(run(c) for c in chunks)
    box_volume = hi**n
    rate = accepted / samples
    return McEstimate(
        mean=rate * box_volume,
        stderr=box_volume * sqrt(max(rate * (1.0 - rate), 0.0) / samples),
        samples=samples,
        seed=seed,
        accepted=accepted,
        box_volume=box_volume,
    )


def _guard_exact(g: Graph, max_vertices: int, max_edges: int) -> None:
    if g.n > max_vertices or g.m > max_edges:
        raise SizeGuardError(
            f"full forest enumeration is capped at {max_vertices} vertices / "
            f"{max_edges} edges (got n={g.n}, m={g.m}); use `volume` instead"
        )


def exact_p1(
    g: Graph,
    dp: DeltaParams,
    cache: WeightCache | None = None,
    max_vertices: int = EXACT_VERTEX_LIMIT,
    max_edges: int = EXACT_EDGE_LIMIT,
) -> Fraction:
    """p(1) = sum_k e_k by full forest enumeration; exponential in g."""
    _guard_exact(g, max_vertices, max_edges)
    e = small_e(g, dp, max(g.n - 1, 0), cache=cache).e
    return sum(e, Fraction(0))


def exact_volume(
    g: Graph,
    dp: DeltaParams,
    cache: WeightCache | None = None,
    max_vertices: int = EXACT_VERTEX_LIMIT,
    max_edges: int = EXACT_EDGE_LIMIT,
) -> Fraction:
    return dp.box_hi**g.n * exact_p1(
        g, dp, cache=cache, max_vertices=max_vertices, max_edges=max_edges
    )


@dataclass(frozen=True)
class PenroseReport:
    tree_count: int
    marked: int
    connected_spanning: int
    duplicates: tuple[tuple[int, ...], ...]
    missed: tuple[tuple[int, ...], ...]
    extras: tuple[tuple[int, ...], ...]
    mst_violations: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not (self.duplicates or self.missed or self.extras or self.mst_violations)


def penrose_check(g: Graph, edge_order: tuple[int, ...] | None = None) -> PenroseReport:
    """Verify that intervals [T, T + broken(T)] over spanning trees T
    partition the connected spanning edge subsets of a connected graph,
    and that rank-minimal spanning trees retract each interval onto its
    bottom element.

    edge_order permutes the edge ranks before the check (the partition is
    order-dependent; the property holds for every order).
    """
    if not g.is_connected():
        raise ValueError("penrose_check requires a connected graph")
    if g.m > PENROSE_EDGE_LIMIT:
        raise SizeGuardError(
            f"subset sweep capped at {PENROSE_EDGE_LIMIT} edges (got {g.m})"
        )
    if edge_order is not None:
        if sorted(edge_order) != list(range(g.m)):
            raise ValueError("edge_order must be a permutation of the edge ranks")
        g = Graph(g.n, [g.edges[i] for i in edge_order])
    marked: dict[int, int] = {}
    duplicates: list[tuple[int, ...]] = []
    mst_violations: list[tuple[int, ...]] = []
    tree_count = 0
    for tree in spanning_trees(g):
        tree_count += 1
        base = 0
        for r in tree.edge_ranks:
            base |= 1 << r
        extra = broken_edges(g, tree)
        sub = 0
        while True:
            f = base | _spread(sub, extra)
            if f in marked:
                duplicates.append(_mask_to_ranks(f))
            else:
                marked[f] = base
            if _min_spanning_tree(g, f) != base:
                mst_violations.append(_mask_to_ranks(f))
            if sub == (1 << len(extra)) - 1:
                break
            sub += 1
    target = set(_connected_spanning_masks(g))
    missed = sorted(target - marked.keys())
    extras = sorted(marked.keys() - target)
    return PenroseReport(
        tree_count=tree_count,
        marked=len(marked),
        connected_spanning=len(target),
        duplicates=tuple(duplicates),
        missed=tuple(_mask_to_ranks(f) for f in missed),
        extras=tuple(_mask_to_ranks(f) for f in extras),
        mst_violations=tuple(mst_violations),
    )


def _min_spanning_tree(g: Graph, mask: int) -> int:
    """Kruskal over the edges in mask with rank as weight; returns the
    tree's edge mask (ranks are distinct, so it is unique)."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = 0
    for r in range(g.m):
        if not (mask >> r) & 1:
            continue
        u, v = g.edges[r]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            out |= 1 << r
    return out


def _spread(sub: int, ranks: tuple[int, ...]) -> int:
    out = 0
    for i, r in enumerate(ranks):
        if (sub >> i) & 1:
            out |= 1 << r
    return out


def _mask_to_ranks(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _connected_spanning_masks(g: Graph):
    n, m = g.n, g.m
    ends = g.edges
    for f in range(1 << m):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        parts = n
        mask = f
        while mask:
            low = mask & -mask
            mask ^= low
            u, v = ends[low.bit_length() - 1]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                parts -= 1
        if parts == 1:
            yield f


@dataclass(frozen=True)
class RootReport:
    degree: int
    radius: Fraction | None
    min_modulus: float
    roots: tuple[complex, ...]

    def margin(self, radius: Fraction | None = None) -> float:
        r = self._radius(radius)
        return self.min_modulus / float(r) - 1.0

    def clears(self, radius: Fraction | None = None, slack: float = 0.0) -> bool:
        """min root modulus exceeds the radius; slack relaxes the bar to
        (1 - slack)*R to keep double-precision root finding from flaking."""
        r = self._radius(radius)
        return self.degree == 0 or self.min_modulus > float(r) * (1.0 - slack)

    def _radius(self, radius: Fraction | None) -> Fraction:
        r = radius if radius is not None else self.radius
        if r is None:
            raise ValueError("no radius to compare against")
        return r


def root_check(
    g: Graph,
    dp: DeltaParams,
    radius: Fraction | None = None,
    cache: WeightCache | None = None,
    max_vertices: int = EXACT_VERTEX_LIMIT,
    max_edges: int = EXACT_EDGE_LIMIT,
) -> RootReport:
    """Locate the roots of the exact forest polynomial of g numerically
    (companion-matrix solve plus a few Newton polishing steps)."""
    _guard_exact(g, max_vertices, max_edges)
    e = small_e(g, dp, max(g.n - 1, 0), cache=cache).e
    coeffs = [float(c) for c in e]
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    degree = len(coeffs) - 1 if coeffs else 0
    if degree < 1:
        return RootReport(degree=0, radius=radius, min_modulus=float("inf"), roots=())
    roots = [_polish(complex(r), coeffs) for r in np.roots(coeffs[::-1])]
    return RootReport(
        degree=degree,
        radius=radius,
        min_modulus=float(min(abs(r) for r in roots)),
        roots=tuple(roots),
    )


def _polish(z: complex, coeffs: list[float], steps: int = 3) -> complex:
    for _ in range(steps):
        p = dp_ = 0.0
        for c in reversed(coeffs):
            dp_ = dp_ * z + p
            p = p * z + c
        if dp_ == 0:
            break
        step = p / dp_
        if abs(step) > 0.5 * max(abs(z), 1.0):
            break
        z -= step
    return z
