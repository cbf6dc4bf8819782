"""Series coefficients of the forest partition function.

e_k(G) sums prod w_T over k-edge forests; a_k are the Taylor coefficients
of log p at 0, obtained by Newton's identity.  Grouping forests by the
vertex sets of their trees makes p a hard-core polymer gas: a polymer is a
connected set S with weight c(G[S]) t^{|S|} z^{|S|-1}, t = delta/(1/2+delta),
where the delta-free class weight c lives in the WeightCache (small_e).
For graphs too large to enumerate, a_k is assembled from connected induced
patterns:
a_k(G) = sum over connected H with 2 <= |V(H)| <= 2k of gamma_{H,k} ind(H,G),
where gamma is defined by Moebius-style inversion over the pattern order and
additivity of a_k across disjoint unions makes the expansion exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .canon import canonical_form
from .graphs import Graph, enumerate_connected_sets
from .treeweight import DeltaParams, WeightCache, default_cache


@dataclass(frozen=True)
class CoeffVector:
    graph: Graph
    e: tuple[Fraction, ...]  # e[0..K]


@dataclass(frozen=True)
class TaylorCoeffs:
    a: tuple[Fraction, ...]  # a[0] = 0 placeholder; a[1..K] meaningful

    def __getitem__(self, k: int) -> Fraction:
        return self.a[k]

    @property
    def order(self) -> int:
        return len(self.a) - 1


@dataclass
class GammaTable:
    gamma: dict[tuple[bytes, int], Fraction]
    representatives: dict[bytes, Graph]


def small_e(
    g: Graph, dp: DeltaParams, K: int, cache: WeightCache | None = None
) -> CoeffVector:
    """e_j for j <= K, with p(z) summed as a hard-core polymer gas on g.

    Polymers are connected sets S with 2 <= |S| <= K+1 and weight
    phi(S) z^{|S|-1}, phi(S) = c(g[S]) t^{|S|}; e_j collects the families
    of pairwise disjoint polymers of total degree j.  The subset DP
    P[W] = P[W - v] + sum over polymers S with v in S, S in W, of
    phi(S) z^{|S|-1} P[W - S], v = min W, runs over the sets W reachable from V(g).
    """
    cache = cache or default_cache()
    t = dp.delta / dp.box_hi
    # polymers by their lowest vertex bit, which is where the DP meets them
    polymers: dict[int, list[tuple[int, int, Fraction]]] = {}
    if t:
        for mask in enumerate_connected_sets(g, K + 1, min_size=2):
            sub, _ = g.induced_subgraph(mask)
            phi = cache.class_weight(canonical_form(sub)) * t**sub.n
            polymers.setdefault(mask & -mask, []).append((mask, sub.n - 1, phi))
    # every set the recursion reaches; a state's successors have a higher
    # lowest vertex, so evaluating by descending lowest bit is bottom-up
    todo = [g.vertex_mask()]
    reached = {0}
    while todo:
        w = todo.pop()
        if w in reached:
            continue
        reached.add(w)
        low = w & -w
        todo.append(w ^ low)
        todo.extend(w ^ s for s, _, _ in polymers.get(low, ()) if s & w == s)
    poly: dict[int, list[Fraction]] = {0: [Fraction(1)] + [Fraction(0)] * K}
    for w in sorted(reached, key=lambda w: w & -w, reverse=True):
        if not w:
            continue
        low = w & -w
        out = list(poly[w ^ low])
        for s, deg, phi in polymers.get(low, ()):
            if s & w == s:
                rest = poly[w ^ s]
                for j in range(K + 1 - deg):
                    if rest[j]:
                        out[j + deg] += phi * rest[j]
        poly[w] = out
    return CoeffVector(graph=g, e=tuple(poly[g.vertex_mask()]))


def lambda_coeff(
    h: Graph, k: int, dp: DeltaParams, cache: WeightCache | None = None
) -> Fraction:
    """Coefficient of the induced count of h in the forest expansion.

    Nonzero only when |V(h)| = k + #components and every component has at
    least two vertices; then it is the product over components C of the
    polymer weight phi(C) = c(C) t^{|C|}, the sum of w_T over spanning
    trees T of C.
    """
    cache = cache or default_cache()
    comps = h.components()
    if any(c.bit_count() < 2 for c in comps):
        return Fraction(0)
    if h.n != k + len(comps):
        return Fraction(0)
    t = dp.delta / dp.box_hi
    total = Fraction(1)
    for comp in comps:
        sub, _ = h.induced_subgraph(comp)
        total *= cache.class_weight(canonical_form(sub)) * t**sub.n
    return total


def newton_log(e: CoeffVector | Sequence[Fraction], K: int) -> TaylorCoeffs:
    """a_1..a_K with k e_k = sum_{j<=k} j a_j e_{k-j}."""
    evec = list(e.e if isinstance(e, CoeffVector) else e)
    if not evec or evec[0] != 1:
        raise ValueError("series must start with e_0 = 1")
    evec += [Fraction(0)] * (K + 1 - len(evec))
    a = [Fraction(0)] * (K + 1)
    for k in range(1, K + 1):
        s = Fraction(0)
        for j in range(1, k):
            s += j * a[j] * evec[k - j]
        a[k] = evec[k] - s / k
    return TaylorCoeffs(a=tuple(a))


def newton_exp(a: TaylorCoeffs | Sequence[Fraction], K: int) -> tuple[Fraction, ...]:
    """Inverse of newton_log: coefficients of exp(sum a_k x^k) up to x^K."""
    avec = list(a.a if isinstance(a, TaylorCoeffs) else a)
    avec += [Fraction(0)] * (K + 1 - len(avec))
    e = [Fraction(0)] * (K + 1)
    e[0] = Fraction(1)
    for k in range(1, K + 1):
        s = Fraction(0)
        for j in range(1, k + 1):
            s += j * avec[j] * e[k - j]
        e[k] = s / k
    return tuple(e)


def pattern_counts(g: Graph, max_size: int) -> dict[bytes, tuple[int, Graph]]:
    """Connected induced patterns of size 2..max_size: key -> (count, representative)."""
    out: dict[bytes, tuple[int, Graph]] = {}
    for mask in enumerate_connected_sets(g, max_size, min_size=2):
        sub, _ = g.induced_subgraph(mask)
        key = canonical_form(sub)
        hit = out.get(key)
        if hit is None:
            out[key] = (1, sub)
        else:
            out[key] = (hit[0] + 1, hit[1])
    return out


class CoefficientEngine:
    """Per-delta store of pattern coefficients gamma_{H,k}."""

    def __init__(self, dp: DeltaParams, cache: WeightCache | None = None):
        self.dp = dp
        self.cache = cache or default_cache()
        self.gamma: dict[tuple[bytes, int], Fraction] = {}
        self.representatives: dict[bytes, Graph] = {}
        self._done_upto: dict[bytes, int] = {}
        self._subpatterns: dict[bytes, dict[bytes, int]] = {}

    def ensure(self, key: bytes, rep: Graph, K: int) -> None:
        if self._done_upto.get(key, 0) >= K:
            return
        self.representatives.setdefault(key, rep)
        rep = self.representatives[key]
        subs = self._subpatterns.get(key)
        if subs is None:
            counts = pattern_counts(rep, rep.n)
            for sk, (cnt, srep) in counts.items():
                if sk != key:
                    self.representatives.setdefault(sk, srep)
            subs = {sk: cnt for sk, (cnt, _) in counts.items() if sk != key}
            self._subpatterns[key] = subs
        for sk in subs:
            self.ensure(sk, self.representatives[sk], K)
        a = newton_log(small_e(rep, self.dp, K, self.cache), K)
        for k in range(1, K + 1):
            val = a[k]
            for sk, cnt in subs.items():
                gs = self.gamma.get((sk, k))
                if gs is not None:
                    val -= gs * cnt
            self.gamma[(key, k)] = val
        self._done_upto[key] = K

    def gamma_at(self, key: bytes, k: int) -> Fraction:
        return self.gamma.get((key, k), Fraction(0))


_engines: dict[tuple[Fraction, int], CoefficientEngine] = {}


def engine_for(dp: DeltaParams, cache: WeightCache | None = None) -> CoefficientEngine:
    ck = (dp.delta, id(cache) if cache is not None else 0)
    eng = _engines.get(ck)
    if eng is None:
        eng = CoefficientEngine(dp, cache)
        _engines[ck] = eng
    return eng


def clear_engines() -> None:
    _engines.clear()


def gamma_table(
    patterns: Iterable[Graph],
    dp: DeltaParams,
    K: int,
    cache: WeightCache | None = None,
) -> GammaTable:
    """Gamma coefficients for an explicit pattern family.

    The family must be closed under connected induced subpatterns with >= 2
    vertices (up to isomorphism); otherwise the expansion would silently
    misattribute weight, so closure violations raise.
    """
    pats = list(patterns)
    keyed: dict[bytes, Graph] = {}
    for h in pats:
        if not h.is_connected() or h.n < 2:
            raise ValueError("patterns must be connected with >= 2 vertices")
        if h.n > 2 * K:
            raise ValueError(f"pattern on {h.n} vertices exceeds the 2K = {2*K} bound")
        keyed.setdefault(canonical_form(h), h)
    for key, rep in keyed.items():
        for sk in pattern_counts(rep, rep.n):
            if sk not in keyed:
                raise ValueError(
                    "pattern family is not closed under connected induced subpatterns"
                )
    eng = engine_for(dp, cache)
    for key, rep in sorted(keyed.items()):
        eng.ensure(key, rep, K)
    table = GammaTable(gamma={}, representatives={})
    for key, rep in keyed.items():
        table.representatives[key] = eng.representatives[key]
        for k in range(1, K + 1):
            table.gamma[(key, k)] = eng.gamma_at(key, k)
    return table


def assemble_a(
    g: Graph,
    dp: DeltaParams,
    K: int,
    cache: WeightCache | None = None,
) -> TaylorCoeffs:
    """a_k(G) for k <= K from pattern coefficients and induced counts."""
    if K < 1:
        raise ValueError("K must be >= 1")
    counts = pattern_counts(g, min(2 * K, g.n))
    eng = engine_for(dp, cache)
    items = sorted(counts.items())
    for key, (_, rep) in items:
        eng.ensure(key, rep, K)
    a = [Fraction(0)] * (K + 1)
    for key, (cnt, _) in items:
        for k in range(1, K + 1):
            gk = eng.gamma.get((key, k))
            if gk is not None and gk:
                a[k] += gk * cnt
    return TaylorCoeffs(a=tuple(a))
