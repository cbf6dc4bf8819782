"""Exact tree and class weights for the truncated-box cell decomposition.

For a tree T spanning H = G[V(T)] with broken edge set E_T, the normalized
cell measure is

    hat_w(T) = integral over the box I^{V(T)}, I = [0, 1/2+delta], of
               prod_{uv in T} 1[x_u+x_v > 1] * prod_{st in E_T} 1[x_s+x_t <= 1]

and the signed weight is w_T = (-1)^{#edges(T)} hat_w / (1/2+delta)^{|V(T)|}.

Substituting x = 1/2 + delta*z gives hat_w = delta^{|V(T)|} * W with W
delta-free.  Every vertex of T has a tree edge, so every z lies in (-1, 1],
and z_u + z_v has the sign of the endpoint of larger |z|: a tree edge holds
iff its later endpoint in |z| order is positive, a broken edge iff that
endpoint is non-positive.  Each (|z| order, signs) region has volume 1/n!,
so W is an integer count over n!, taken by a memoized recurrence over the
|z| order (_region_counts), which gives the count N[U] of any mask U.
tree_weight reads N[V]/n!, memoized under the labelled local shape
(n, tree edges, broken edges) of (T, E_T), so the memo serves every delta
at once without labelling the shape canonically.
The coefficient pipeline reads only polymer_weights, which takes the
integer |S|! c(h[S]) for every connected S inside a list of vertex masks
of a graph h (in a query, the masks of all its classes on the input
graph) from one table of the same recurrence with every edge of h broken,
read from h.adj_mask and keyed by h's own masks (proof there): a region
count or a weight that two masks share is found once, no Fraction,
spanning tree, broken edge, label or induced subgraph is built for a
polymer, and no weight is kept past the call.

The tests check the DP against a brute-force region count and Monte Carlo
samples of the box, the class weights against the spanning-tree sums, and
every c(H) through oracles.exact_volume, which needs no tree weights.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from math import comb, factorial

# not called here: perfbench/tracer.py traces treeweight.colored_canonical_form
# and raises on a missing target
from .canon import colored_canonical_form  # noqa: F401
from .graphs import Graph, Tree, broken_edges, connected_masks
from .record import Record


class DeltaParams(Record):
    """Truncation parameter; the box is [0, 1/2+delta]^V with delta in [0, 1/2)."""

    __slots__ = ("delta",)

    def __init__(self, delta: Fraction):
        d = Fraction(delta)
        if not (0 <= d < Fraction(1, 2)):
            raise ValueError("delta must lie in [0, 1/2)")
        object.__setattr__(self, "delta", d)

    @property
    def box_hi(self) -> Fraction:
        return Fraction(1, 2) + self.delta


class TreeWeightRecord(Record):
    __slots__ = ("tree", "broken", "hat_w", "w")

    def __init__(self, tree: Tree, broken: tuple[int, ...], hat_w: Fraction, w: Fraction):
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "broken", broken)
        object.__setattr__(self, "hat_w", hat_w)
        object.__setattr__(self, "w", w)


class WeightCache:
    """Process-wide memo of delta-free weights.

    normalized maps the labelled local shape (nv, tree edges, broken edges)
    of a tree to W with hat_w = delta^{|V|} * W; only tree_weight reads it.
    whole is one slot for the last input graph coeffs.assemble_a answered:
    (G, K, N, L) with a_k(G) = sum_r N[k][r] t^{k+r} / (k L^r) for k <= K,
    t = delta/(1/2+delta), or None.  A query on an equal graph (same n and
    ordered edge list) at any delta and any order up to K only evaluates
    it; any other query replaces it, so the slot never holds more than one
    graph.  It is the only memo of the coefficient path that outlives a
    query: class series live in a dict the caller of coeffs._class_sum owns.
    A miss is one class series expanded: coeffs._class_sum expands every
    class its dict lacks in one coeffs.polymer_tables call on the graph's
    own vertex masks and counts one miss per class.  A hit is one
    whole-graph series read from the slot, which expands nothing.  A G of
    at most 2K vertices is expanded whole as one class, so a cold query on
    it counts one miss whether G is connected, disconnected or edgeless.
    """

    def __init__(self):
        self.normalized: dict[
            tuple[int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]],
            Fraction,
        ] = {}
        self.whole: tuple[Graph, int, tuple[tuple[int, ...], ...], int] | None = None
        self.hits = 0
        self.misses = 0

    def normalized_weight(
        self,
        nv: int,
        tedges: tuple[tuple[int, int], ...],
        bedges: tuple[tuple[int, int], ...],
    ) -> Fraction:
        key = (nv, tedges, bedges)
        w = self.normalized.get(key)
        if w is None:
            count, _ = _region_counts(_adjacency(nv, tedges), _adjacency(nv, bedges))
            w = Fraction(count((1 << nv) - 1), factorial(nv))
            self.normalized[key] = w
        return w

    def clear(self) -> None:
        self.normalized.clear()
        self.whole = None
        self.hits = 0
        self.misses = 0


_default_cache = WeightCache()


def default_cache() -> WeightCache:
    return _default_cache


def hat_w(
    g: Graph, tree: Tree, dp: DeltaParams, cache: WeightCache | None = None
) -> Fraction:
    return tree_weight(g, tree, dp, cache=cache).hat_w


def tree_weight(
    g: Graph, tree: Tree, dp: DeltaParams, cache: WeightCache | None = None
) -> TreeWeightRecord:
    """Weight record for a tree with host g[V(tree)]."""
    if not tree.edge_ranks:
        raise ValueError("tree weights are defined for trees with >= 1 edge")
    broken = broken_edges(g, tree)
    nv = tree.size
    if dp.delta == 0:
        # hat_w = delta^nv * W vanishes; skip the DP
        zero = Fraction(0)
        return TreeWeightRecord(tree=tree, broken=broken, hat_w=zero, w=zero)
    if cache is None:
        cache = _default_cache
    local = {v: i for i, v in enumerate(tree.vertices())}
    tl = tuple(_local_pair(g, r, local) for r in tree.edge_ranks)
    bl = tuple(_local_pair(g, r, local) for r in broken)
    hat = cache.normalized_weight(nv, tl, bl) * dp.delta**nv
    sign = -1 if len(tree.edge_ranks) % 2 else 1
    return TreeWeightRecord(
        tree=tree, broken=broken, hat_w=hat, w=sign * hat / dp.box_hi**nv
    )


def _local_pair(
    g: Graph, rank: int, local: Mapping[int, int]
) -> tuple[int, int]:
    u, v = g.edges[rank]
    a, b = local[u], local[v]
    return (a, b) if a < b else (b, a)


def polymer_weights(
    h: Graph, size: int, masks: Iterable[int] | None = None
) -> list[tuple[int, int]]:
    """(S, U(S)) for every connected S of h with 2 <= |S| <= size that lies
    inside one of the vertex masks (V(h) when masks is None), in ascending
    mask order, with the integer U(S) = |S|! c(h[S]) unreduced.  A set
    inside several masks is weighed once.
    c(H) = sum over spanning trees T of H of (-1)^{|T|} W(T), so the w_T of
    the spanning trees of H sum to c(H) t^{|V(H)|}, t = delta/(1/2+delta).
    Every weight comes from one memoized table of the region counts N of h
    with every edge broken (_region_counts on h.adj_mask, with no tree
    edge): N[U]/|U|! is the volume of the z in (-1, 1]^U with
    z_u + z_v <= 0 on h[U].  N[U] and U(S) depend only on h[U] and h[S],
    so one table of each, keyed by h's own masks, serves every mask at
    once.

    By Penrose's identity c(B) integrates over z <= 1 the sum over the
    connected spanning edge sets A of h[B] of prod_{uv in A} f_uv, with
    f_uv = -1[z_u + z_v > 0].  A term vanishes unless every z > -1 (every
    vertex has an edge of A, and z <= 1), so the integral may be taken over
    (-1, 1]^B.  The Mayer formula, prod_{uv in h[S]} (1 + f_uv) = sum over
    the set partitions of S of prod over blocks B of that sum, integrated
    over (-1, 1]^S gives N[S]/|S|! = sum over the partitions of
    prod_B c(B), with c({v}) = 2 and c(B) = 0 for a disconnected h[B].
    Splitting off the block T of min S, U(T) = |T|! c(h[T]) solves
        U(S) = N[S] - sum over min S in T < S of binom(|S|, |T|) U(T) N[S - T],
    and U vanishes unless h[T] is connected.  Such a T is a connected set
    inside the same mask as S and below S in mask order, so it is solved
    before S.  Every step is an integer product, and binom(n, |T|) U(T) is
    kept per T for each n, so the loop over the submasks of S only looks
    values up.
    """
    found: set[int] = set()
    for within in (h.vertex_mask(),) if masks is None else masks:
        found.update(connected_masks(h, within, size))
    count, memo = _region_counts((0,) * h.n, h.adj_mask)
    # scaled[T][m] = binom(m, |T|) U(T), the factor a set S of m vertices
    # needs; by_size[j][m] = binom(m, j)
    scaled: dict[int, list[int]] = {}
    by_size = [[comb(m, j) for m in range(size + 1)] for j in range(size + 1)]
    out = []
    for s in sorted(found):
        root, rest, n = s & -s, s & (s - 1), s.bit_count()
        u = count(s)
        sub = rest
        while sub:
            # proper submasks of rest, 0 included
            sub = (sub - 1) & rest
            ut = scaled.get(sub | root)
            if ut:
                # most masks are filled by now: look before calling count
                nt = memo.get(rest ^ sub)
                if nt is None:
                    nt = count(rest ^ sub)
                u -= ut[n] * nt
        if u:
            scaled[s] = [b * u for b in by_size[n]]
        if n >= 2:
            out.append((s, u))
    return out


def _adjacency(nv: int, edges: tuple[tuple[int, int], ...]) -> list[int]:
    """Per-vertex neighbour masks of an edge list on nv vertices."""
    adj = [0] * nv
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _region_counts(
    tadj: Sequence[int], badj: Sequence[int]
) -> tuple[Callable[[int], int], dict[int, int]]:
    """Memoized region counts N[U] of the edges inside a vertex mask U, by a
    recurrence over the order of |z|, given per-vertex neighbour masks of
    the tree edges (tadj) and of the broken edges (badj); W = N[V] / nv!
    with hat_w = delta^nv * W.  Returns (count, memo): count(U) gives N[U],
    and memo holds the N[U] filled so far, for callers that look a mask up
    before calling count.  The masks are read as they are, so a large host
    graph costs nothing to set up.

    With x = 1/2 + delta*z, every vertex has a tree edge, so every z lies in
    (-1, 1]; z_u + z_v then has the sign of the endpoint of larger |z|.  A
    tree edge holds iff that later endpoint is positive and a broken edge
    iff it is non-positive.  Each (|z| order, signs) region has volume 1/nv!
    in z, so W = N[V] / nv!, where N counts the admissible pairs: N[{}] = 1 and
    N[U] = sum over v in U, the last of U in |z| order, of N[U - v] * f(v),
    with f = 2 when v has no tree or broken neighbour in U, 1 when its
    neighbours in U are all of one kind (the sign of v is forced), and 0
    when they are of both kinds.  Only the masks a query reaches are
    filled, never all 2^nv.
    """
    memo = {0: 1}
    get = memo.get

    def count(umask: int) -> int:
        c = get(umask)
        if c is None:
            c = 0
            rest = umask
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                t = tadj[v] & umask
                b = badj[v] & umask
                if t and b:
                    continue
                below = umask ^ low
                sub = get(below)
                if sub is None:
                    sub = count(below)
                c += sub if t or b else 2 * sub
            memo[umask] = c
        return c

    return count, memo
