"""Exact tree weights for the truncated-box cell decomposition.

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
so W is an integer count over n!, taken by a subset DP over the |z| order
(_normalized_weight_dp).  W depends only on the isomorphism type of
(T, E_T) and is memoized by a canonical key of that edge-bicolored graph,
so the memo serves every delta at once.  The coefficient pipeline reads W
only through WeightCache.class_weight, once per spanning tree of each
connected pattern class; tree_weight is the route for a single tree in a
host.

The tests check the DP against a brute-force count of the (|z| order,
sign) regions and against Monte Carlo samples of the box, and every class
weight c(H) through oracles.exact_volume, which needs no tree weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping

from .canon import colored_canonical_form, graph_from_key
from .graphs import Graph, Tree, broken_edges, spanning_trees


@dataclass(frozen=True)
class DeltaParams:
    """Truncation parameter; the box is [0, 1/2+delta]^V with delta in [0, 1/2)."""

    delta: Fraction

    def __post_init__(self):
        d = Fraction(self.delta)
        object.__setattr__(self, "delta", d)
        if not (0 <= d < Fraction(1, 2)):
            raise ValueError("delta must lie in [0, 1/2)")

    @property
    def box_hi(self) -> Fraction:
        return Fraction(1, 2) + self.delta


@dataclass(frozen=True)
class TreeWeightRecord:
    tree: Tree
    broken: tuple[int, ...]
    iso_key: bytes
    hat_w: Fraction
    w: Fraction


class WeightCache:
    """Process-wide memo of delta-free weights.

    normalized maps the canonical key of the bicolored (tree, broken) graph
    to W with hat_w = delta^{|V|} * W.  classes maps the plain canonical key
    of a connected graph H to its class weight c(H) (see class_weight).
    series maps the same key to (K, B, D), the integer log-series of H that
    coeffs expands once and evaluates at each delta: a_k(H) =
    sum_r B[k][r] t^{k+r} / (k D^r) for k <= K, t = delta/(1/2+delta).
    """

    def __init__(self):
        self.normalized: dict[bytes, Fraction] = {}
        self.classes: dict[bytes, Fraction] = {}
        self.series: dict[bytes, tuple[int, tuple[tuple[int, ...], ...], int]] = {}
        self.hits = 0
        self.misses = 0

    def normalized_weight(
        self,
        nv: int,
        tedges: tuple[tuple[int, int], ...],
        bedges: tuple[tuple[int, int], ...],
    ) -> tuple[bytes, Fraction]:
        key = colored_canonical_form(
            nv,
            [(u, v, 1) for u, v in tedges] + [(u, v, 2) for u, v in bedges],
        )
        w = self.normalized.get(key)
        if w is None:
            self.misses += 1
            w = _normalized_weight_dp(nv, tedges, bedges)
            self.normalized[key] = w
        else:
            self.hits += 1
        return key, w

    def class_weight(self, key: bytes) -> Fraction:
        """c(H) = sum over spanning trees T of H of (-1)^{|T|} W(T) for the
        connected graph H with plain canonical key `key`, so that the w_T of
        the spanning trees of H sum to c(H) t^{|V(H)|}, t = delta/(1/2+delta).

        c is H's Mayer connected function, independent of the edge order
        that splits off each tree's broken edges.  It is computed on the
        representative decoded from the key, so the (T, broken) shapes
        weighed do not depend on which occurrence of H is met first.
        """
        c = self.classes.get(key)
        if c is None:
            h = graph_from_key(key)
            c = Fraction(0)
            for tree in spanning_trees(h):
                c += self.normalized_weight(
                    h.n,
                    tuple(h.edges[r] for r in tree.edge_ranks),
                    tuple(h.edges[r] for r in broken_edges(h, tree)),
                )[1]
            if h.n % 2 == 0:  # a spanning tree has n - 1 edges
                c = -c
            self.classes[key] = c
        return c

    def clear(self) -> None:
        self.normalized.clear()
        self.classes.clear()
        self.series.clear()
        self.hits = 0
        self.misses = 0


_default_cache = WeightCache()


def default_cache() -> WeightCache:
    return _default_cache


def hat_w(
    g: Graph,
    tree: Tree,
    dp: DeltaParams,
    broken: tuple[int, ...] | None = None,
    cache: WeightCache | None = None,
) -> Fraction:
    return tree_weight(g, tree, dp, broken=broken, cache=cache).hat_w


def tree_weight(
    g: Graph,
    tree: Tree,
    dp: DeltaParams,
    broken: tuple[int, ...] | None = None,
    cache: WeightCache | None = None,
) -> TreeWeightRecord:
    """Weight record for a tree with host g[V(tree)]."""
    if not tree.edge_ranks:
        raise ValueError("tree weights are defined for trees with >= 1 edge")
    if broken is None:
        broken = broken_edges(g, tree)
    if cache is None:
        cache = _default_cache
    ids = tree.vertices()
    nv = len(ids)
    local = {v: i for i, v in enumerate(ids)}
    tl = tuple(_local_pair(g, r, local) for r in tree.edge_ranks)
    bl = tuple(_local_pair(g, r, local) for r in broken)
    if dp.delta == 0:
        # hat_w = delta^nv * W vanishes; skip the DP
        key = colored_canonical_form(
            nv, [(u, v, 1) for u, v in tl] + [(u, v, 2) for u, v in bl]
        )
        hat = Fraction(0)
        w = Fraction(0)
    else:
        key, wnorm = cache.normalized_weight(nv, tl, bl)
        hat = wnorm * dp.delta**nv
        sign = -1 if len(tree.edge_ranks) % 2 else 1
        w = sign * hat / dp.box_hi**nv
    return TreeWeightRecord(
        tree=tree, broken=tuple(broken), iso_key=key, hat_w=hat, w=w
    )


def _local_pair(
    g: Graph, rank: int, local: Mapping[int, int]
) -> tuple[int, int]:
    u, v = g.edges[rank]
    a, b = local[u], local[v]
    return (a, b) if a < b else (b, a)


def _normalized_weight_dp(
    nv: int,
    tedges: tuple[tuple[int, int], ...],
    bedges: tuple[tuple[int, int], ...],
) -> Fraction:
    """W with hat_w = delta^nv * W, by a subset DP over the order of |z|.

    With x = 1/2 + delta*z, every vertex has a tree edge, so every z lies in
    (-1, 1]; z_u + z_v then has the sign of the endpoint of larger |z|.  A
    tree edge holds iff that later endpoint is positive and a broken edge
    iff it is non-positive.  Each (|z| order, signs) region has volume 1/nv!
    in z, so W = N / nv!, where N counts the admissible pairs: N[{}] = 1 and
    N[U + v] += N[U] * f(v, U), with f = 2 when v has no tree or broken
    neighbour in U, 1 when its neighbours in U are all of one kind (the
    sign of v is forced), and 0 when they are of both kinds.
    """
    tadj = [0] * nv
    badj = [0] * nv
    for u, v in tedges:
        tadj[u] |= 1 << v
        tadj[v] |= 1 << u
    for u, v in bedges:
        badj[u] |= 1 << v
        badj[v] |= 1 << u
    full = (1 << nv) - 1
    count = [0] * (full + 1)
    count[0] = 1
    # ascending masks: U is final before any U + v is reached from it
    for umask in range(full):
        c = count[umask]
        if not c:
            continue
        rest = full & ~umask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            t = tadj[v] & umask
            b = badj[v] & umask
            if not t and not b:
                count[umask | low] += 2 * c
            elif not (t and b):
                count[umask | low] += c
    return Fraction(count[full], factorial(nv))
