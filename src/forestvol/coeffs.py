"""Series coefficients of the forest partition function.

e_k(G) sums prod w_T over k-edge forests; a_k are the Taylor coefficients
of log p at 0, obtained by Newton's identity.  Grouping forests by the
vertex sets of their trees makes p a hard-core polymer gas: a polymer is a
connected set S with weight c(G[S]) t^{|S|} z^{|S|-1}, t = delta/(1/2+delta),
where the delta-free weights c(G[S]) of all polymers of G come from one
region table (treeweight.polymer_weights).

For graphs too large to expand whole, a_k is assembled from connected
induced subgraphs (Patel-Regts).  a_k is additive over disjoint unions, so
the Moebius inversion over vertex sets
    gamma_k(U) = sum over D in U of (-1)^{|U-D|} a_k(G[D])
vanishes unless G[U] is connected.  It also vanishes when |U| > k+1.  By
the cluster expansion (Kotecky-Preiss), a_k(G[D]) sums over the clusters
of polymers in D of total degree k, and the inversion keeps exactly the
clusters whose polymers cover U and nothing else.  Two polymers are
compatible when they are vertex-disjoint, and a cluster's overlap graph
is connected, so its r polymers S_1..S_r can be listed so that each meets
the union of the ones before it.  Each S_i after the first then adds at
most |S_i| - 1 new vertices, and with sum (|S_i| - 1) = k the cluster
covers at most |S_1| + sum_{i>1} (|S_i| - 1) = k + 1 vertices.  Hence, for every k <= K
and every size cap c with K+1 <= c <= n,
    a_k(G) = sum over connected U with 2 <= |U| <= c of gamma_k(U).
Split each a_k(G[D]) over the components C of G[D]: the D having C as a
component are C plus any subset of U - N[C], whose signs cancel unless
N[C] covers U, so (pattern_gamma)
    gamma_k(U) = sum over connected C in U with N[C] = U of
                 (-1)^{|U|-|C|} a_k(G[C]).
Sum this over U.  The U with N[C] = U are the sets C + X for X a subset
of the outer boundary dC of C in G, all of them connected, so (assemble_a)
    a_k(G) = sum over connected C with 2 <= |C| <= c of w(C) a_k(G[C]),
    w(C) = sum over X in dC, |X| <= c-|C|, of (-1)^{|X|}.
With b = |dC| and m = min(b, c-|C|), w(C) = sum_{j<=m} (-1)^j binom(b, j),
which is 1 when b = 0 and (-1)^m binom(b-1, m) otherwise; it is 0 when
m = b, i.e. when the whole boundary fits under the size cap.  With c = n
every boundary fits, so only the components of G keep a weight (of 1).

All delta-dependence enters through t.  A family of r disjoint polymers of
total degree j covers j + r vertices, so (polymer_series)
    e_j(t) = sum_r E[j][r] D^{-r} t^{j+r},
with D the lcm of the denominators of the class weights c of g's polymers
and E[j][r] = D^r times the sum of prod c(S) over such families, an integer
table the subset DP fills over the index pair (degree j, polymer count r).
Newton's identity for b_k = k a_k, b_k = k e_k - sum_{j<k} b_j e_{k-j},
multiplies t^j by t^{k-j} and convolves the (t/D)^r series, so
    B[k] = k E[k] - sum_{j<k} B[j] * E[k-j]   (convolution over r)
stays integer, with no division, and a_k(t) = sum_r B[k][r] t^{k+r} / (k D^r).
Each class's (K, B, D) is computed once, on the representative decoded
from its key, and kept in WeightCache.series; a query at another delta only
evaluates it at the new t.  An entry built at K' >= K also serves K: e_j
and hence b_j for j <= K only involve polymers of degree at most j, i.e.
with at most j+1 vertices, and the larger polymers seen at K' only make D a
multiple of what K alone needs, which leaves the rational values unchanged.

Connected sets are classified without building their induced subgraphs:
graphs.enumerate_connected_sets carries each set's neighbourhood (for the
boundary dC and the closed neighbourhood N[C]) and its row code, an exact
labelled copy of G[C] in the order the set was grown.  Sets are summed per
code, and each distinct code is mapped once to its plain canonical key
(canon.code_key), which names the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Sequence

# canonical_form is not called here: perfbench/tracer.py traces
# coeffs.canonical_form and raises on a missing target
from .canon import canonical_form, code_key, graph_from_key  # noqa: F401
from .graphs import Graph, enumerate_connected_sets, graph_from_code
from .treeweight import DeltaParams, default_cache, polymer_weights


@dataclass(frozen=True)
class TaylorCoeffs:
    a: tuple[Fraction, ...]  # a[0] = 0 placeholder; a[1..K] meaningful

    def __getitem__(self, k: int) -> Fraction:
        return self.a[k]

    @property
    def order(self) -> int:
        return len(self.a) - 1


def polymer_series(g: Graph, K: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The delta-free table (E, D) with e_j(t) = sum_r E[j][r] D^{-r} t^{j+r}
    for j <= K, where t = delta/(1/2+delta) and E is integer.

    Polymers are connected sets S with 2 <= |S| <= K+1, weighed together by
    polymer_weights(g, K+1) on g's own vertex masks; a family of r disjoint
    polymers of total degree j covers j + r vertices, so it carries t^{j+r}
    and E[j][r] sums D^r prod c(g[S]) over such families, D the lcm of the
    denominators of the c(g[S]).  The subset DP
    P[W] = P[W - v] + sum over polymers S with v in S, S in W, of
    c(S) D z^{|S|-1} y P[W - S], v = min W, runs over the sets W reachable
    from V(g), with y counting polymers.
    """
    found = polymer_weights(g, K + 1)
    D = lcm(*(c.denominator for _, c in found))
    # polymers by their lowest vertex bit, which is where the DP meets them
    polymers: dict[int, list[tuple[int, int, int]]] = {}
    for mask, c in found:
        polymers.setdefault(mask & -mask, []).append(
            (mask, mask.bit_count() - 1, c.numerator * (D // c.denominator))
        )
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
    # a state's table is flat, entry (j, r) at j*R + r; r <= j < K when a
    # polymer is added, so (j + deg, r + 1) stays in range
    R = K + 1
    poly: dict[int, list[int]] = {0: [1] + [0] * (R * R - 1)}
    for w in sorted(reached, key=lambda w: w & -w, reverse=True):
        if not w:
            continue
        low = w & -w
        out = list(poly[w ^ low])
        for s, deg, c in polymers.get(low, ()):
            if s & w == s:
                rest = poly[w ^ s]
                shift = deg * R + 1
                for i in range((R - deg) * R):
                    if rest[i]:
                        out[i + shift] += c * rest[i]
        poly[w] = out
    flat = poly[g.vertex_mask()]
    return tuple(tuple(flat[j * R : (j + 1) * R]) for j in range(R)), D


def _at(row: Sequence[int], D: int, t: Fraction, k: int) -> Fraction:
    """sum_r row[r] D^{-r} t^{k+r}, reduced once."""
    p, q = t.numerator, t.denominator
    dq = D * q
    top = len(row) - 1
    num = sum(v * p ** (k + r) * dq ** (top - r) for r, v in enumerate(row) if v)
    return Fraction(num, q**k * dq**top)


def small_e(g: Graph, dp: DeltaParams, K: int) -> tuple[Fraction, ...]:
    """e_j for j <= K, with p(z) summed as a hard-core polymer gas on g:
    the polymer_series table evaluated at t.  At t = 0 every polymer weighs
    0, so e = (1, 0, ..., 0) without enumerating (or weighing) any."""
    t = dp.delta / dp.box_hi
    if not t:
        return (Fraction(1),) + (Fraction(0),) * K
    E, D = polymer_series(g, K)
    return tuple(_at(E[j], D, t, j) for j in range(K + 1))


def lambda_coeff(h: Graph, k: int, dp: DeltaParams) -> Fraction:
    """Coefficient of the induced count of h in the forest expansion.

    Nonzero only when |V(h)| = k + #components and every component has at
    least two vertices; then it is the product over components C of the
    polymer weight phi(C) = c(C) t^{|C|}, the sum of w_T over spanning
    trees T of C.  c(C) is the entry of C, a connected set of h, in
    polymer_weights(h, h.n).
    """
    comps = h.components()
    if any(c.bit_count() < 2 for c in comps):
        return Fraction(0)
    if h.n != k + len(comps):
        return Fraction(0)
    t = dp.delta / dp.box_hi
    weights = dict(polymer_weights(h, h.n))
    total = Fraction(1)
    for comp in comps:
        total *= weights[comp] * t ** comp.bit_count()
    return total


def newton_log(e: Sequence[Fraction], K: int) -> TaylorCoeffs:
    """a_1..a_K with k e_k = sum_{j<=k} j a_j e_{k-j}."""
    evec = list(e)
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
    """Connected induced patterns of size 2..max_size: key -> (count,
    representative), the representative decoded from one of the class's
    row codes."""
    by_code: dict[tuple[int, ...], int] = {}
    for _, _, code in enumerate_connected_sets(g, max_size, min_size=2):
        by_code[code] = by_code.get(code, 0) + 1
    out: dict[bytes, tuple[int, Graph]] = {}
    for code, count in by_code.items():
        key = code_key(code)
        hit = out.get(key)
        if hit is None:
            out[key] = (count, graph_from_code(code))
        else:
            out[key] = (hit[0] + count, hit[1])
    return out


def _log_series(E: Sequence[Sequence[int]], K: int) -> tuple[tuple[int, ...], ...]:
    """B with b_k = k a_k = t^k sum_r B[k][r] (t/D)^r, from Newton's identity
    b_k = k e_k - sum_{j<k} b_j e_{k-j}: the t^k factors multiply out and
    the (t/D)^r series convolve, so B stays integer."""
    B = [(0,) * (K + 1)]
    for k in range(1, K + 1):
        row = [k * v for v in E[k]]
        for j in range(1, k):
            ekj = E[k - j]
            for r1, x in enumerate(B[j]):
                if x:
                    for r2, y in enumerate(ekj[: k + 1 - r1]):
                        if y:
                            row[r1 + r2] -= x * y
        B.append(tuple(row))
    return tuple(B)


def _class_series(key: bytes, K: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(B, D) of the class a plain canonical key names, rows 0..K' for some
    K' >= K, from the default WeightCache's series (a hit) or expanded once
    on the decoded representative (a miss)."""
    cache = default_cache()
    hit = cache.series.get(key)
    if hit is None or hit[0] < K:
        cache.misses += 1
        E, D = polymer_series(graph_from_key(key), K)
        hit = cache.series[key] = (K, _log_series(E, K), D)
    else:
        cache.hits += 1
    return hit[1], hit[2]


def _class_a(key: bytes, dp: DeltaParams, K: int) -> TaylorCoeffs:
    """a_1..a_K of the graph class a plain canonical key names."""
    t = dp.delta / dp.box_hi
    if not t:
        return TaylorCoeffs(a=(Fraction(0),) * (K + 1))
    B, D = _class_series(key, K)
    return TaylorCoeffs(
        a=(Fraction(0),) + tuple(_at(B[k], D, t, k) / k for k in range(1, K + 1))
    )


def pattern_gamma(h: Graph, dp: DeltaParams, K: int) -> tuple[Fraction, ...]:
    """gamma_1..gamma_K of the pattern h, indexed 1..K (index 0 holds 0):
    the sum over connected C in V(h) with N[C] = V(h) of
    (-1)^{|h|-|C|} a(h[C]).  gamma_k is 0 when h is disconnected and when
    |V(h)| > k+1, since a cluster of polymers of total degree k covers at
    most k+1 vertices (module docstring).  The class a-vectors come from
    the series in the default WeightCache."""
    full = h.vertex_mask()
    gamma = [Fraction(0)] * (K + 1)
    for mask, nbr, code in enumerate_connected_sets(h, h.n, min_size=2):
        if mask | nbr != full:
            continue
        a = _class_a(code_key(code), dp, K)
        sign = -1 if (h.n - mask.bit_count()) & 1 else 1
        for k in range(1, K + 1):
            gamma[k] += sign * a[k]
    return tuple(gamma)


def assemble_a(g: Graph, dp: DeltaParams, K: int) -> TaylorCoeffs:
    """a_k(G) for k <= K as the sum of w(C) a_k(G[C]) over connected sets C
    of at most c vertices (module docstring): one pass over those sets,
    then the delta-free series of each class whose summed weight is
    nonzero, summed over the classes and evaluated at t once.

    Sets are classified by the row code the enumerator carries: w(C) is
    summed per code, and each code with a nonzero sum is labelled once.

    Any cap c with K+1 <= c <= n gives the same a.  When n > 2K, c = K+1.
    When n <= 2K, c = n, which leaves a weight only on the components of
    G, so each is expanded whole as one class.  A graph that small is
    cheaper whole than as the many classes of at most K+1 vertices:
    random_connected_graph(16, 3, seed=3, max_degree=3) at K = 8 expands
    113 classes with c = 9 in 0.38 s, against 0.13 s whole (CPython 3.11.7,
    one core, cold caches).  Above 2K it turns: at K = 6,
    random_connected_graph(20, 5, seed=0, max_degree=3) takes 0.08 s with
    c = 7 (33 classes) and 0.74 s whole."""
    if K < 1:
        raise ValueError("K must be >= 1")
    t = dp.delta / dp.box_hi
    if not t:
        return TaylorCoeffs(a=(Fraction(0),) * (K + 1))
    cap = g.n if g.n <= 2 * K else K + 1
    by_code: dict[tuple[int, ...], int] = {}
    for mask, nbr, code in enumerate_connected_sets(g, cap, min_size=2):
        b = (nbr & ~mask).bit_count()
        m = min(b, cap - len(code))
        if b == 0:
            w = 1
        elif m < b:
            w = (-1) ** m * comb(b - 1, m)
        else:
            continue
        by_code[code] = by_code.get(code, 0) + w
    weights: dict[bytes, int] = {}
    for code, w in by_code.items():
        if w:
            key = code_key(code)
            weights[key] = weights.get(key, 0) + w
    # A[k][r] = sum over classes of w B[k][r] / (k D^r), kept as the
    # integer N[k][r] = k L^r A[k][r] over the common denominator L
    series = [(w, *_class_series(key, K)) for key, w in weights.items() if w]
    L = lcm(*(D for _, _, D in series))
    N = [[0] * (K + 1) for _ in range(K + 1)]
    for w, B, D in series:
        for k in range(1, K + 1):
            for r, v in enumerate(B[k]):
                if v:
                    N[k][r] += w * v * (L // D) ** r
    return TaylorCoeffs(
        a=(Fraction(0),) + tuple(_at(N[k], L, t, k) / k for k in range(1, K + 1))
    )
