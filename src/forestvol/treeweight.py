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

hat_w_cellwise is an independent cross-check in the original coordinates:
it splits the box into cells P_S over "nice" vertex sets S, enumerates the
admissible (s, t) maps on the complement, and integrates the resulting
polynomial over the order polytope of the comparability digraph D_(s,t)
via the F_U subset recursion (kernel.poset_integral_packed).  It shares no
code with the DP and drives `forestvol weights --trace`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Iterator, Mapping

from . import kernel
from .canon import colored_canonical_form, graph_from_key
from .graphs import Graph, Tree, bits, broken_edges, spanning_trees
from .polynomials import MultiPoly

PLUS = -3  # sentinel value x = 1/2 (top of J)
MINUS = -4  # sentinel value x = 1/2 - delta (bottom of J)

_SHIFT = 6


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

    @property
    def j_lo(self) -> Fraction:
        return Fraction(1, 2) - self.delta


@dataclass(frozen=True)
class Poset:
    """Comparability digraph on a vertex set; arc (u, v) means x_u < x_v."""

    elements: tuple[int, ...]
    arcs: frozenset[tuple[int, int]]
    acyclic: bool = field(init=False)

    def __post_init__(self):
        elems = tuple(sorted(self.elements))
        object.__setattr__(self, "elements", elems)
        eset = set(elems)
        for u, v in self.arcs:
            if u not in eset or v not in eset:
                raise ValueError(f"arc ({u}, {v}) leaves the element set")
            if u == v:
                raise ValueError(f"self-loop at {u}")
        object.__setattr__(self, "acyclic", self._kahn())

    def _kahn(self) -> bool:
        remaining = set(self.elements)
        preds = {v: set() for v in self.elements}
        for u, v in self.arcs:
            preds[v].add(u)
        while remaining:
            free = [v for v in remaining if not (preds[v] & remaining)]
            if not free:
                return False
            remaining.difference_update(free)
        return True

    def min_elements(self, subset: set[int] | frozenset[int]) -> list[int]:
        """Minimal elements of a subset under the arc order."""
        return sorted(
            v
            for v in subset
            if not any(u in subset for u, w in self.arcs if w == v)
        )


@dataclass(frozen=True)
class TreeWeightRecord:
    tree: Tree
    host: Graph
    broken: tuple[int, ...]
    iso_key: bytes
    hat_w: Fraction
    w: Fraction


def nice_sets(g: Graph, tree: Tree, broken: tuple[int, ...]) -> Iterator[int]:
    """Vertex masks S with S independent among tree edges and V(T) \\ S
    independent among broken edges."""
    tadj = _local_adjacency(g, tree.edge_ranks)
    badj = _local_adjacency(g, broken)
    vset = tree.vset
    for s_mask in _independent_subsets(vset, tadj):
        comp = vset & ~s_mask
        if _is_independent(comp, badj):
            yield s_mask


def st_maps(
    g: Graph, tree: Tree, broken: tuple[int, ...], s_mask: int
) -> Iterator[tuple[dict[int, int], dict[int, int]]]:
    """All (s, t) assignments on V(T) \\ S.

    s(v) is a tree neighbor of v inside S, or PLUS if there is none;
    t(v) is a broken-edge neighbor inside S, or MINUS.
    """
    tadj = _local_adjacency(g, tree.edge_ranks)
    badj = _local_adjacency(g, broken)
    comp = sorted(bits(tree.vset & ~s_mask))
    s_choices = [sorted(bits(tadj.get(v, 0) & s_mask)) or [PLUS] for v in comp]
    t_choices = [sorted(bits(badj.get(v, 0) & s_mask)) or [MINUS] for v in comp]
    for s_pick in itertools.product(*s_choices):
        for t_pick in itertools.product(*t_choices):
            yield dict(zip(comp, s_pick)), dict(zip(comp, t_pick))


def build_poset(
    g: Graph,
    tree: Tree,
    broken: tuple[int, ...],
    s_mask: int,
    smap: Mapping[int, int],
    tmap: Mapping[int, int],
) -> Poset:
    """Comparability digraph of one (S, s, t) cell; sentinel endpoints drop out."""
    tadj = _local_adjacency(g, tree.edge_ranks)
    badj = _local_adjacency(g, broken)
    arcs: set[tuple[int, int]] = set()
    for v in bits(tree.vset & ~s_mask):
        sv = smap[v]
        tv = tmap[v]
        if sv != PLUS and tv != MINUS:
            arcs.add((tv, sv))
        if sv != PLUS:
            for w in bits(tadj.get(v, 0) & s_mask):
                if w != sv:
                    arcs.add((sv, w))
        if tv != MINUS:
            for w in bits(badj.get(v, 0) & s_mask):
                if w != tv:
                    arcs.add((w, tv))
    return Poset(tuple(bits(s_mask)), frozenset(arcs))


def poset_integral(
    poset: Poset, p: MultiPoly, a: Fraction | int, b: Fraction | int
) -> Fraction:
    """Integral of p over {a < x_v < b, v in elements; x_u < x_v per arc}."""
    if not poset.acyclic:
        raise ValueError("cyclic comparability digraph; the cell is empty")
    a = Fraction(a)
    b = Fraction(b)
    elems = poset.elements
    k = len(elems)
    index = {v: i for i, v in enumerate(elems)}
    stray = p.variables() - set(elems)
    if stray:
        raise ValueError(f"polynomial variables {sorted(stray)} outside the poset")
    den = 1
    for coef in p.terms.values():
        den = den * coef.denominator // _gcd(den, coef.denominator)
    terms: dict[int, int] = {}
    for mono, coef in p.terms.items():
        key = 0
        for v, e in mono:
            if e >= 63:
                raise ValueError("exponent too large for the packed kernel")
            key += e << (_SHIFT * index[v])
        terms[key] = terms.get(key, 0) + int(coef * den)
    preds = [0] * k
    for u, v in poset.arcs:
        preds[index[v]] |= 1 << index[u]
    num, dnm = kernel.poset_integral_packed(
        k,
        tuple(preds),
        terms,
        den,
        a.numerator,
        a.denominator,
        b.numerator,
        b.denominator,
    )
    return Fraction(num, dnm)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


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
    return tree_weight(g, tree, dp, broken=broken, cache=cache, with_host=False).hat_w


def hat_w_cellwise(
    g: Graph,
    tree: Tree,
    dp: DeltaParams,
    broken: tuple[int, ...] | None = None,
    trace=None,
) -> Fraction:
    """hat_w recomputed cell by cell in original coordinates, without the
    delta factorization or the memo; slower, kept as a cross-check.

    trace, when given, receives one line of text per cell.
    """
    if broken is None:
        broken = broken_edges(g, tree)
    lo, hi = dp.j_lo, Fraction(1, 2)
    consts = {PLUS: hi, MINUS: lo}
    total = Fraction(0)
    for s_mask in nice_sets(g, tree, broken):
        for smap, tmap in st_maps(g, tree, broken, s_mask):
            p = MultiPoly.constant(1)
            for v in sorted(smap):
                sv, tv = smap[v], tmap[v]
                ps = (
                    MultiPoly.constant(consts[sv])
                    if sv in consts
                    else MultiPoly.variable(sv)
                )
                pt = (
                    MultiPoly.constant(consts[tv])
                    if tv in consts
                    else MultiPoly.variable(tv)
                )
                p = p * (ps - pt)
            poset = build_poset(g, tree, broken, s_mask, smap, tmap)
            label = "S={%s} s=%s t=%s" % (
                ",".join(map(str, bits(s_mask))),
                _map_str(smap),
                _map_str(tmap),
            )
            if not poset.acyclic:
                if trace is not None:
                    trace(f"{label}: cyclic, cell empty")
                continue
            cell = poset_integral(poset, p, lo, hi)
            total += cell
            if trace is not None:
                trace(f"{label}: integrand {p} -> {cell}")
    return total


def _map_str(m: Mapping[int, int]) -> str:
    sym = {PLUS: "+", MINUS: "-"}
    return "{" + ",".join(f"{v}:{sym.get(x, x)}" for v, x in sorted(m.items())) + "}"


def tree_weight(
    g: Graph,
    tree: Tree,
    dp: DeltaParams,
    broken: tuple[int, ...] | None = None,
    cache: WeightCache | None = None,
    with_host: bool = True,
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
        # the window J collapses to a point; skip the DP
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
    host = g.induced_subgraph(tree.vset)[0] if with_host else Graph(0, ())
    return TreeWeightRecord(
        tree=tree, host=host, broken=tuple(broken), iso_key=key, hat_w=hat, w=w
    )


def _local_pair(
    g: Graph, rank: int, local: Mapping[int, int]
) -> tuple[int, int]:
    u, v = g.edges[rank]
    a, b = local[u], local[v]
    return (a, b) if a < b else (b, a)


def _local_adjacency(g: Graph, ranks: tuple[int, ...]) -> dict[int, int]:
    adj: dict[int, int] = {}
    for r in ranks:
        u, v = g.edges[r]
        adj[u] = adj.get(u, 0) | (1 << v)
        adj[v] = adj.get(v, 0) | (1 << u)
    return adj


def _independent_subsets(vset: int, adj: Mapping[int, int]) -> list[int]:
    """Subsets of vset with no edge of adj inside, ascending recursion order."""
    out = [0]
    for v in bits(vset):
        av = adj.get(v, 0)
        out.extend([s | (1 << v) for s in out if not (av & s)])
    return out


def _is_independent(mask: int, adj: Mapping[int, int]) -> bool:
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        if adj.get(low.bit_length() - 1, 0) & mask:
            return False
    return True


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
