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
polymer DP.  Where the zeros of p lie is then decided exactly:
zero_free_disk runs the Schur-Cohn test on integer coefficients, with no
root finding and no tolerance, so RootReport.clears(R) is the certified
disk's own condition and RootReport.nearest_zero brackets the nearest
zero's modulus by bisection on it.  penrose_check checks the graph
module's spanning-tree and broken-edge routines against its own Kruskal,
which shares no code with them.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm, sqrt

from .coeffs import small_e
from .errors import SizeGuardError
from .graphs import Graph, bits, spanning_trees, broken_edges
from .record import Record
from .treeweight import DeltaParams

MC_CHUNK = 1 << 16
EXACT_SET_LIMIT = 1 << 12
ROOT_VERTEX_LIMIT = 12
ROOT_EDGE_LIMIT = 16
PENROSE_EDGE_LIMIT = 20


class McEstimate(Record):
    __slots__ = ("mean", "stderr", "samples", "seed", "accepted", "box_volume")

    def __init__(
        self,
        mean: float,
        stderr: float,
        samples: int,
        seed: int,
        accepted: int,
        box_volume: float,
    ):
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "stderr", stderr)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "accepted", accepted)
        object.__setattr__(self, "box_volume", box_volume)


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
    # time and memory of the package, and nothing else uses it
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


class PenroseReport(Record):
    __slots__ = (
        "tree_count", "marked", "connected_spanning",
        "duplicates", "missed", "extras", "mst_violations",
    )

    def __init__(
        self,
        tree_count: int,
        marked: int,
        connected_spanning: int,
        duplicates: tuple[tuple[int, ...], ...],
        missed: tuple[tuple[int, ...], ...],
        extras: tuple[tuple[int, ...], ...],
        mst_violations: tuple[tuple[int, ...], ...],
    ):
        object.__setattr__(self, "tree_count", tree_count)
        object.__setattr__(self, "marked", marked)
        object.__setattr__(self, "connected_spanning", connected_spanning)
        object.__setattr__(self, "duplicates", duplicates)
        object.__setattr__(self, "missed", missed)
        object.__setattr__(self, "extras", extras)
        object.__setattr__(self, "mst_violations", mst_violations)

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


class RootReport(Record):
    """The forest polynomial p(z) = sum e_k z^k of a graph, held exactly:
    e is trimmed of zero top coefficients, and e[0] = p(0) = 1."""

    __slots__ = ("e",)

    def __init__(self, e: tuple[Fraction, ...]):
        object.__setattr__(self, "e", e)

    @property
    def degree(self) -> int:
        return len(self.e) - 1

    def clears(self, radius: Fraction) -> bool:
        """p has no zero in |z| <= radius, decided exactly by zero_free_disk."""
        return zero_free_disk(self.e, radius)

    def nearest_zero(self) -> tuple[Fraction, Fraction] | None:
        """A rational bracket (lo, hi] on the smallest modulus of a zero of
        p, with hi - lo <= lo / 2^40; None when p is constant.

        The moduli of the zeros have geometric mean |e_0/e_d|^(1/d), so the
        nearest zero lies at most that far out.  hi starts at the power of
        two above that mean and is halved until its half clears; 40
        bisection steps then narrow [hi/2, hi].  Each step is one
        zero_free_disk call, so the walk is as long as log2 of the mean
        over the nearest modulus, whatever the scale of the coefficients.
        """
        if self.degree < 1:
            return None
        ratio = abs(self.e[0] / self.e[-1])
        bits = ratio.numerator.bit_length() - ratio.denominator.bit_length() + 1
        hi = Fraction(2) ** -(-bits // self.degree)
        while not self.clears(hi / 2):
            hi /= 2
        lo = hi / 2
        for _ in range(40):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if self.clears(mid) else (lo, mid)
        return lo, hi


def root_check(g: Graph, dp: DeltaParams) -> RootReport:
    """The exact forest polynomial of g, for exact tests of where its zeros
    lie (RootReport.clears, RootReport.nearest_zero).  p is expanded whole
    with small_e, so g is capped at ROOT_VERTEX_LIMIT vertices /
    ROOT_EDGE_LIMIT edges."""
    if g.n > ROOT_VERTEX_LIMIT or g.m > ROOT_EDGE_LIMIT:
        raise SizeGuardError(
            f"root_check is capped at {ROOT_VERTEX_LIMIT} vertices / "
            f"{ROOT_EDGE_LIMIT} edges (got n={g.n}, m={g.m})"
        )
    e = small_e(g, dp, max(g.n - 1, 0))
    return RootReport(e=e[: max(k for k, x in enumerate(e) if x) + 1])


def zero_free_disk(e: Sequence[Fraction], radius: Fraction) -> bool:
    """True exactly when p(z) = sum e_k z^k has no zero in |z| <= radius.

    The Schur-Cohn test (Schur 1917, Cohn 1922; Henrici, Applied and
    Computational Complex Analysis I, section 6.8), run in integers with no
    tolerance.  With radius = P/Q and L the lcm of the denominators of the
    e_k, h(z) = L Q^d p(radius z) has the integer coefficients
    c_k = L e_k P^k Q^(d-k).  A polynomial h = sum_{k<=m} c_k z^k is free of
    zeros in the closed unit disk exactly when |c_0| > |c_m| and
    Th = c_0 h - c_m z^m h(1/z), whose z^m term cancels, is free of them
    too (by Rouche's theorem, since |z^m h(1/z)| = |h(z)| on |z| = 1); the
    test repeats down to a constant, which must be nonzero.  Each Th is
    divided by the gcd of its coefficients, which keeps their size linear
    in the number of steps.  The zero polynomial has zeros everywhere.
    """
    p, q = radius.as_integer_ratio()
    den = lcm(*(x.denominator for x in e))
    c = [x.numerator * (den // x.denominator) for x in e]
    c = [a * p**k * q ** (len(c) - 1 - k) for k, a in enumerate(c)]
    while len(c) > 1 and abs(c[0]) > abs(c[-1]):
        c = [c[0] * c[k] - c[-1] * c[-1 - k] for k in range(len(c) - 1)]
        common = gcd(*c)
        c = [x // common for x in c]
    return len(c) == 1 and c[0] != 0
