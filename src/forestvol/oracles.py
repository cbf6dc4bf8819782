"""Checks on the certified pipeline: Monte Carlo volume, the exact volume,
the interval-partition property of broken-edge sets, and root location.

mc_volume and exact_volume share no code with the interpolation pipeline.
mc_volume draws fixed chunks of Philox samples in one loop on one thread,
so its estimate depends only on the graph, delta, the sample count and the
seed.  exact_volume integrates over the independent set of coordinates
above 1/2 and needs no trees, canonical forms or poset integrals, so it
checks the tree weights and class weights as well as the interpolation.
exact_p1 is exact_volume over the box volume.  root_check needs every
coefficient e_k of p, so it expands p with small_e, the pipeline's own
polymer DP.  penrose_check checks the graph module's spanning-tree and
broken-edge routines against its own Kruskal, which shares no code with
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .coeffs import small_e
from .errors import SizeGuardError
from .graphs import Graph, bits, spanning_trees, broken_edges
from .treeweight import DeltaParams

MC_CHUNK = 1 << 16
EXACT_SET_LIMIT = 1 << 12
ROOT_VERTEX_LIMIT = 12
ROOT_EDGE_LIMIT = 16
PENROSE_EDGE_LIMIT = 20


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int
    accepted: int
    box_volume: float


def mc_volume(g: Graph, delta: Fraction, samples: int, seed: int = 0) -> McEstimate:
    """Monte Carlo volume estimate with a fixed chunked sample layout.

    Chunk i holds min(MC_CHUNK, samples left) points and draws them from
    Philox(key=seed) at counter block i, so the accepted count (hence the
    estimate) depends only on g, delta, samples and seed.  The chunks are
    drawn one after another on one thread and never listed up front, so
    memory stays at one chunk whatever samples is.  delta must lie in
    [0, 1/2), as everywhere else (a ValueError from DeltaParams otherwise).
    """
    # imported here, not at module level: numpy is most of the import
    # time and memory of the package, and only the oracles use it
    import numpy as np

    hi = float(DeltaParams(delta).box_hi)
    if samples <= 0:
        raise ValueError("samples must be positive")
    n = g.n
    edges = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    accepted = 0
    for idx in range((samples + MC_CHUNK - 1) // MC_CHUNK):
        count = min(MC_CHUNK, samples - idx * MC_CHUNK)
        bitgen = np.random.Philox(key=seed, counter=[0, 0, idx, 0])
        rng = np.random.Generator(bitgen)
        x = rng.random((count, n)) * hi if n else np.zeros((count, 0))
        ok = np.ones(count, dtype=bool)
        for u, v in edges:
            ok &= x[:, u] + x[:, v] <= 1.0
        accepted += int(ok.sum())
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


def exact_p1(g: Graph, dp: DeltaParams) -> Fraction:
    """p(1) = Vol(P) / (1/2+delta)^n, by the independent-set DP of
    exact_volume; exponential in g."""
    return exact_volume(g, dp) / dp.box_hi**g.n


def exact_volume(g: Graph, dp: DeltaParams) -> Fraction:
    """Vol(P) exactly, by a subset DP over the independent sets of g.

    The vertices with x_v > 1/2 form an independent set I.  With
    u_w = 1 - x_w in [1/2-delta, 1/2) for w in I, a vertex v outside I
    ranges over [0, min(1/2, u_w for w in N(v) & I)], and every edge
    between two vertices outside I holds.  So Vol(P) is the sum over I of
    F[I](1/2) * (1/2)^{n-|I|-|N(I)|}, where F[U](w) integrates, over
    1/2-delta < u_j < w for j in U, the product over v in N(U) of the
    smallest u of v's neighbours in U.  Splitting off the j in U with the
    largest u gives F[{}] = 1 and

        F[U](w) = sum over j in U of Int_{1/2-delta}^w u^c F[U-j](u) du,

    with c = |N(j) - N(U-j)| the neighbours whose smallest u is u_j.  Each
    F[U] is an exact univariate polynomial in w (coefficient lists of
    Fractions).  Nothing here touches tree weights, canonical forms or
    poset integrals, so it checks the pipeline from outside.  Raises
    SizeGuardError, before any polynomial work, when g has more than
    EXACT_SET_LIMIT independent sets.
    """
    n = g.n
    half = Fraction(1, 2)
    lo = half - dp.delta
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    # ascending masks, so each U - j is listed before U
    sets = [0]
    for v in range(n):
        sets += [s | (1 << v) for s in sets if not nbr[v] & s]
        if len(sets) > EXACT_SET_LIMIT:
            raise SizeGuardError(
                f"the exact independent-set DP is capped at {EXACT_SET_LIMIT} "
                f"independent sets; the first {v + 1} of the n={g.n} vertices "
                f"already have {len(sets)}; use `volume` instead"
            )
    lo_pow = [lo**e for e in range(n + 2)]
    half_pow = [half**e for e in range(n + 2)]
    poly: dict[int, list[Fraction]] = {0: [Fraction(1)]}
    cover = {0: 0}
    total = Fraction(0)
    for umask in sets:
        if umask:
            acc: list[Fraction] = []
            cov = 0
            rest = umask
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                prev = poly[umask ^ low]
                c = (nbr[j] & ~cover[umask ^ low]).bit_count()
                cov |= nbr[j]
                # u^c * prev(u) integrated from lo to w
                step = [Fraction(0)] * (c + 1)
                step += [f / (i + c + 1) for i, f in enumerate(prev)]
                step[0] = -sum(q * lo_pow[e] for e, q in enumerate(step))
                if len(step) > len(acc):
                    acc += [Fraction(0)] * (len(step) - len(acc))
                for e, q in enumerate(step):
                    acc[e] += q
            poly[umask] = acc
            cover[umask] = cov
        at_half = sum(q * half_pow[e] for e, q in enumerate(poly[umask]))
        free = n - umask.bit_count() - cover[umask].bit_count()
        total += at_half * half_pow[free]
    return total


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

    The intervals come from graphs.spanning_trees and graphs.broken_edges;
    the reference is the oracle's own Kruskal, run once on every edge
    subset f: f is connected spanning exactly when its minimum spanning
    tree has n - 1 edges, and that tree is the one a marked f must retract
    onto.  A subset marked by two trees is listed under duplicates and
    compared only with the first tree that marked it; missed, extras and
    mst_violations are in ascending subset-mask order.
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
    tree_count = 0
    for tree in spanning_trees(g):
        tree_count += 1
        base = 0
        for r in tree.edge_ranks:
            base |= 1 << r
        extra = broken_edges(g, tree)
        for sub in range(1 << len(extra)):
            f = base | _spread(sub, extra)
            if f in marked:
                duplicates.append(tuple(bits(f)))
            else:
                marked[f] = base
    connected_spanning = 0
    missed: list[tuple[int, ...]] = []
    extras: list[tuple[int, ...]] = []
    mst_violations: list[tuple[int, ...]] = []
    for f in range(1 << g.m):
        mst = _min_spanning_tree(g, f)
        spanning = mst.bit_count() == g.n - 1
        connected_spanning += spanning
        base = marked.get(f)
        if base is None:
            if spanning:
                missed.append(tuple(bits(f)))
            continue
        if not spanning:
            extras.append(tuple(bits(f)))
        if base != mst:
            mst_violations.append(tuple(bits(f)))
    return PenroseReport(
        tree_count=tree_count,
        marked=len(marked),
        connected_spanning=connected_spanning,
        duplicates=tuple(duplicates),
        missed=tuple(missed),
        extras=tuple(extras),
        mst_violations=tuple(mst_violations),
    )


def _min_spanning_tree(g: Graph, mask: int) -> int:
    """Kruskal over the edges in mask with rank as weight; returns the
    edge mask of its spanning forest (ranks are distinct, so it is unique),
    a spanning tree exactly when mask connects all n vertices."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = 0
    for r in bits(mask):
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


@dataclass(frozen=True)
class RootReport:
    degree: int
    min_modulus: float
    roots: tuple[complex, ...]

    def margin(self, radius: Fraction) -> float:
        return self.min_modulus / float(radius) - 1.0

    def clears(self, radius: Fraction, slack: float = 0.0) -> bool:
        """min root modulus exceeds the radius; slack relaxes the bar to
        (1 - slack)*R to keep double-precision root finding from flaking."""
        return self.degree == 0 or self.min_modulus > float(radius) * (1.0 - slack)


def root_check(g: Graph, dp: DeltaParams) -> RootReport:
    """Locate the roots of the exact forest polynomial of g numerically
    (companion-matrix solve plus a few Newton polishing steps).  p is
    expanded whole with small_e, so g is capped at ROOT_VERTEX_LIMIT
    vertices / ROOT_EDGE_LIMIT edges."""
    if g.n > ROOT_VERTEX_LIMIT or g.m > ROOT_EDGE_LIMIT:
        raise SizeGuardError(
            f"root_check is capped at {ROOT_VERTEX_LIMIT} vertices / "
            f"{ROOT_EDGE_LIMIT} edges (got n={g.n}, m={g.m})"
        )
    coeffs = [float(c) for c in small_e(g, dp, max(g.n - 1, 0))]
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    degree = len(coeffs) - 1 if coeffs else 0
    if degree < 1:
        return RootReport(degree=0, min_modulus=float("inf"), roots=())
    import numpy as np

    roots = [_polish(complex(r), coeffs) for r in np.roots(coeffs[::-1])]
    return RootReport(
        degree=degree,
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
