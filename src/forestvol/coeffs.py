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
m = b, i.e. when the whole boundary fits under the size cap.  A set of
exactly c vertices has m = 0 and so weighs 1 whatever its boundary; most
sets are of that size, and their boundary is never counted.  With c = n
every boundary fits, so only the components of G keep a weight (of 1),
and their a_k sum to a_k(G): G is expanded whole as one class, coded by
row_code, with no set enumerated.  polymer_series needs no split, since
no polymer crosses two components.

All delta-dependence enters through t.  A family of r disjoint polymers of
total degree j covers j + r vertices, so (polymer_series)
    e_j(t) = sum_r E[j][r] D^{-r} t^{j+r},
with D the lcm of the reduced denominators of the class weights c of g's
polymers and E[j][r] = D^r times the sum of prod c(S) over such families.
The subset DP fills it in integers only: treeweight.polymer_weights gives
each |S|! c(S) as an integer, each polymer enters as the integer c(S) D,
and each DP state keeps only its nonzero (j, r) entries with j <= K.
Newton's identity for b_k = k a_k, b_k = k e_k - sum_{j<k} b_j e_{k-j},
multiplies t^j by t^{k-j} and convolves the (t/D)^r series, so
    B[k] = k E[k] - sum_{j<k} B[j] * E[k-j]   (convolution over r)
stays integer, with no division, and a_k(t) = sum_r B[k][r] t^{k+r} / (k D^r).
Each class's (B, D) is expanded on the graph of one of its own codes
(graph_from_code) into a {class name: (B, D)} dict that the caller of
_class_sum owns, so nothing of a class outlives the call that made the
dict.  The weighted sum of the class series is itself an integer table
(N, L) for the input graph, a_k(G) = sum_r N[k][r] t^{k+r} / (k L^r),
kept in WeightCache.whole for the last graph asked: a query on that graph
at another delta enumerates, labels and expands nothing and only
evaluates it at the new t.

Connected sets are classified without building their induced subgraphs:
graphs.enumerate_connected_sets carries each set's neighbourhood (for the
boundary dC and the closed neighbourhood N[C]) and its row code, an exact
labelled copy of G[C] in the order the set was grown.

assemble_a and pattern_gamma compute one sum, sum over connected sets C of
w(C) a_k(G[C]), with two weight rules: the boundary weight w(C) above over
the sets of at most c vertices of G (assemble_a), and (-1)^{|U|-|C|} over
the sets of h = G[U] with N[C] = U (pattern_gamma).  Both take one route:
the weights are summed per row code into a {code: weight} table, codes
whose sum is 0 are dropped, and the rest are folded into classes, each
named by what already identifies it (_classes): a tree or one-cycle code
by its exact peeled string (canon.peel_key), and any other code by its
plain canonical key (canon.code_key) when the table holds another such
code, or by itself when it is the only one.  Almost every code with a
nonzero weight is a tree or has one cycle, so a query seldom labels
anything (the dense16, sparse1000 and Petersen queries label nothing).
Then w B of every class series with a nonzero summed weight w, expanded
from the class's first code, is added over the common denominator into a
delta-free table (N, L) (_class_sum), which is evaluated once at t
(_taylor).  pattern_counts folds its per-code set counts into classes by the same
_classes step and labels each class's first code once for its key.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Sequence

# canonical_form is not called here: perfbench/tracer.py traces
# coeffs.canonical_form and raises on a missing target
from .canon import MAX_VERTICES, canonical_form, code_key, graph_from_key, peel_key  # noqa: F401
from .errors import SizeGuardError
from .graphs import Graph, enumerate_connected_sets, graph_from_code, row_code
from .treeweight import DeltaParams, default_cache, polymer_weights


@dataclass(frozen=True)
class TaylorCoeffs:
    a: tuple[Fraction, ...]  # a[0] = 0 placeholder; a[1..K] meaningful

    def __getitem__(self, k: int) -> Fraction:
        return self.a[k]


def polymer_series(g: Graph, K: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The delta-free table (E, D) with e_j(t) = sum_r E[j][r] D^{-r} t^{j+r}
    for j <= K, where t = delta/(1/2+delta) and E is integer.

    Polymers are connected sets S with 2 <= |S| <= K+1, weighed together by
    polymer_weights(g, K+1) on g's own vertex masks as c(g[S]) = U(S)/|S|!;
    a family of r disjoint polymers of total degree j covers j + r
    vertices, so it carries t^{j+r} and E[j][r] sums D^r prod c(g[S]) over
    such families, D the lcm of the reduced denominators of the c(g[S]).
    The subset DP
    P[W] = P[W - v] + sum over polymers S with v in S, S in W, of
    c(S) D z^{|S|-1} y P[W - S], v = min W, runs over the sets W reachable
    from V(g), with y counting polymers.  Each P[W] is a {j (K+1) + r:
    integer} dict of its nonzero entries with j <= K, built once, after
    the sets it reads, in a post-order walk from V(g) on an explicit stack:
    no Python recursion grows with g, and no state is visited that V(g)
    does not reach.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    found = [(s, u, factorial(s.bit_count())) for s, u in polymer_weights(g, K + 1)]
    D = lcm(*(f // gcd(u, f) for _, u, f in found))
    # slot j*R + r holds E[j][r]; r <= j, so slots end below R*R, and a
    # polymer of degree deg moves slot x to x + deg*R + 1, which stays
    # below R*R exactly when j + deg <= K
    R = K + 1
    # polymers by their lowest vertex bit, which is where the DP meets them,
    # as (mask, slot shift, slot limit, c(S) D)
    polymers: dict[int, list[tuple[int, int, int, int]]] = {}
    for s, u, f in found:
        if u:
            shift = (s.bit_count() - 1) * R + 1
            polymers.setdefault(s & -s, []).append((s, shift, R * R - shift, u * D // f))
    full = g.vertex_mask()
    tables: dict[int, dict[int, int]] = {0: {0: 1}}
    # sets seen but not built yet, with the polymers that fit them
    fits: dict[int, list[tuple[int, int, int, int]]] = {}
    stack = [full]
    while stack:
        w = stack[-1]
        fit = fits.pop(w, None)
        if fit is None:
            if w in tables:
                stack.pop()
                continue
            # first visit: build the sets w reads, then come back to w
            low = w & -w
            fit = fits[w] = [p for p in polymers.get(low, ()) if p[0] & w == p[0]]
            stack.append(w ^ low)
            stack.extend([w ^ p[0] for p in fit])
            continue
        stack.pop()
        out = dict(tables[w ^ (w & -w)])
        get = out.get
        for s, shift, limit, c in fit:
            for x, v in tables[w ^ s].items():
                if x < limit:
                    out[x + shift] = get(x + shift, 0) + c * v
        tables[w] = out
    top = tables[full]
    return tuple(tuple(top.get(j * R + r, 0) for r in range(R)) for j in range(R)), D


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
    if K < 0:
        raise ValueError("K must be >= 0")
    t = dp.delta / dp.box_hi
    if not t:
        return (Fraction(1),) + (Fraction(0),) * K
    E, D = polymer_series(g, K)
    return tuple(_at(E[j], D, t, j) for j in range(K + 1))


def newton_log(e: Sequence[Fraction], K: int) -> TaylorCoeffs:
    """a_1..a_K with k e_k = sum_{j<=k} j a_j e_{k-j}."""
    if K < 0:
        raise ValueError("K must be >= 0")
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
    if K < 0:
        raise ValueError("K must be >= 0")
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
    representative).  Sets are counted per row code and the codes folded
    into classes by _classes, the step assemble_a and pattern_gamma use;
    each class's first code is then labelled once (canon.code_key) for its
    plain canonical key, and the representative is the one the key
    encodes (graph_from_key)."""
    by_code: dict[tuple[int, ...], int] = {}
    for _, _, code in enumerate_connected_sets(g, max_size, min_size=2):
        by_code[code] = by_code.get(code, 0) + 1
    out: dict[bytes, tuple[int, Graph]] = {}
    for code, count in _classes(by_code).values():
        key = code_key(code)
        out[key] = (count, graph_from_key(key))
    return out


# a class's name: its peeled string, its plain canonical key or its own code
Name = str | bytes | tuple[int, ...]


def _classes(by_code: dict[tuple[int, ...], int]) -> dict[Name, list]:
    """Fold a {row code: integer weight} table into {name: [first code,
    summed weight]}, one entry per class.  A code whose weight is 0 is
    dropped.  A tree or one-cycle code is named by its exact peeled string
    (canon.peel_key).  The other codes are named by their plain canonical
    key (canon.code_key) when there are two or more of them, since two may
    then be isomorphic; a lone one names itself, an exact labelled graph
    that no other code of the table can share a class with.  So only codes
    with no peeled string are labelled, and never a lone one.  Peeled
    strings and canonical keys name a class exactly across tables too."""
    weighed = [(code, w, peel_key(code)) for code, w in by_code.items() if w]
    lone = sum(name is None for _, _, name in weighed) == 1
    classes: dict[Name, list] = {}
    for code, w, name in weighed:
        if name is None:
            name = code if lone else code_key(code)
        classes.setdefault(name, [code, 0])[1] += w
    return classes


def _log_series(E: Sequence[Sequence[int]], K: int) -> tuple[tuple[int, ...], ...]:
    """B with b_k = k a_k = t^k sum_r B[k][r] (t/D)^r, from Newton's identity
    b_k = k e_k - sum_{j<k} b_j e_{k-j}: the t^k factors multiply out and
    the (t/D)^r series convolve, so B stays integer.  A class of s vertices
    has no forest of s or more edges, so E is zero past row s-1 and only
    the j with k-j up to E's last nonzero row contribute."""
    top = max((j for j, row in enumerate(E) if any(row)), default=0)
    B = [(0,) * (K + 1)]
    for k in range(1, K + 1):
        row = [k * v for v in E[k]]
        for j in range(max(1, k - top), k):
            ekj = E[k - j]
            for r1, x in enumerate(B[j]):
                if x:
                    for r2, y in enumerate(ekj[: k + 1 - r1]):
                        if y:
                            row[r1 + r2] -= x * y
        B.append(tuple(row))
    return tuple(B)


def _class_sum(
    by_code: dict[tuple[int, ...], int],
    K: int,
    series: dict[Name, tuple[tuple[tuple[int, ...], ...], int]],
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(N, L) with sum over codes C of by_code[C] a_k(class of C) =
    sum_r N[k][r] t^{k+r} / (k L^r) for k <= K: the codes folded into
    named classes (_classes), then w B[k][r] / (k D^r) of every class
    series with a nonzero summed weight w, kept as the integer N[k][r] over
    the common denominator L.  A class missing from the caller's series
    {name: (B, D)} is expanded into it from the graph of its first code
    (graph_from_code), one miss of the default WeightCache: (E, D) and B
    are isomorphism invariants, so any code of the class gives the same
    series."""
    terms = []
    for name, (code, w) in _classes(by_code).items():
        if w:
            hit = series.get(name)
            if hit is None:
                default_cache().misses += 1
                E, D = polymer_series(graph_from_code(code), K)
                hit = series[name] = (_log_series(E, K), D)
            terms.append((w, *hit))
    L = lcm(*(D for _, _, D in terms))
    N = [[0] * (K + 1) for _ in range(K + 1)]
    for w, B, D in terms:
        for k in range(1, K + 1):
            for r, v in enumerate(B[k]):
                if v:
                    N[k][r] += w * v * (L // D) ** r
    return tuple(map(tuple, N)), L


def _taylor(dp: DeltaParams, K: int, series) -> TaylorCoeffs:
    """a_1..a_K from the delta-free table (N, L) = series(), evaluated at
    t.  At t = 0 every a_k is 0 and series is not called."""
    t = dp.delta / dp.box_hi
    if not t:
        return TaylorCoeffs(a=(Fraction(0),) * (K + 1))
    N, L = series()
    return TaylorCoeffs(
        a=(Fraction(0),) + tuple(_at(N[k], L, t, k) / k for k in range(1, K + 1))
    )


def pattern_gamma(h: Graph, dp: DeltaParams, K: int) -> tuple[Fraction, ...]:
    """gamma_1..gamma_K of the pattern h, indexed 1..K (index 0 holds 0):
    the sum over connected C in V(h) with N[C] = V(h) of
    (-1)^{|h|-|C|} a(h[C]).  gamma_k is 0 when h is disconnected and when
    |V(h)| > k+1, since a cluster of polymers of total degree k covers at
    most k+1 vertices (module docstring).

    The signs are summed per row code (_gamma_codes) and go through the
    class sum assemble_a uses (_class_sum).  At delta = 0 nothing is
    enumerated, labelled or expanded."""
    return _taylor(dp, K, lambda: _class_sum(_gamma_codes(h), K, {})).a


def _gamma_codes(h: Graph) -> dict[tuple[int, ...], int]:
    """{row code: summed (-1)^{|h|-|C|}} over the connected sets C of h
    with 2 <= |C| and N[C] = V(h)."""
    full = h.vertex_mask()
    by_code: dict[tuple[int, ...], int] = {}
    for mask, nbr, code in enumerate_connected_sets(h, h.n, min_size=2):
        if mask | nbr == full:
            by_code[code] = by_code.get(code, 0) + (-1) ** (h.n - len(code))
    return by_code


def guard_order(n: int, K: int) -> None:
    """Raise SizeGuardError when coefficients of order K on an n-vertex
    graph need patterns above MAX_VERTICES: min(2K, n) > 32, i.e. K > 16
    on a graph of more than 32 vertices.  The patterns would still fit the
    cap up to K = 31, but nothing yet bounds the work of enumerating them,
    so assemble_a and pattern_table refuse such an order before they
    enumerate a connected set."""
    if min(2 * K, n) > MAX_VERTICES:
        raise SizeGuardError(
            f"truncation order K={K} is refused on a graph of {n} > "
            f"{MAX_VERTICES} vertices: orders above {MAX_VERTICES // 2} have "
            f"no bound on their work yet; use a smaller order (raise eps or lower delta)"
        )


def pattern_table(
    g: Graph, dp: DeltaParams, K: int
) -> tuple[list[tuple[bytes, int, Graph, tuple[Fraction, ...]]], TaylorCoeffs]:
    """Rows (key, count, representative, pattern_gamma) of the classes in
    pattern_counts(g, min(K+1, n)), sorted by key, and a = sum of count *
    gamma over them, which is assemble_a's a (module docstring).  g is
    enumerated once, and the rows' class sums share one {name: (B, D)}
    dict, so a class named by its peeled string or its canonical key is
    expanded once for the whole table; one named by its own code, in a
    table where it is the only code with no peeled string, may be expanded
    again under another name in another row.  Raises SizeGuardError first
    when guard_order refuses K on g."""
    guard_order(g.n, K)
    series: dict[Name, tuple[tuple[tuple[int, ...], ...], int]] = {}
    rows = []
    a = [Fraction(0)] * (K + 1)
    for key, (count, rep) in sorted(pattern_counts(g, min(K + 1, g.n)).items()):
        gamma = _taylor(dp, K, lambda: _class_sum(_gamma_codes(rep), K, series)).a
        rows.append((key, count, rep, gamma))
        for k in range(1, K + 1):
            a[k] += count * gamma[k]
    return rows, TaylorCoeffs(a=tuple(a))


def _graph_series(g: Graph, K: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(N, L) with a_k(g) = sum_r N[k][r] t^{k+r} / (k L^r) for k <= K, from
    the default WeightCache's whole-graph slot or built by summing w(C) per
    row code over the connected sets C of at most c vertices (assemble_a),
    and then the class sum (_class_sum).

    With c = n only the components of g keep a weight, 1 each, and their
    a_k sum to a_k(g), so g's own row code is the one entry of the table
    and no set is enumerated.  With c = K+1 every set is enumerated, and a
    set of exactly c vertices has m = 0, so it weighs 1 whatever its
    boundary."""
    cache = default_cache()
    whole = cache.whole
    if whole is not None and whole[1] >= K and whole[0] == g:
        cache.hits += 1
        return whole[2], whole[3]
    if g.n <= 2 * K:
        by_code = {row_code(g): 1}
    else:
        by_code = {}
        cap = K + 1
        for mask, nbr, code in enumerate_connected_sets(g, cap, min_size=2):
            w = 1
            m = cap - len(code)
            if m:
                # below the cap the weight depends on the boundary
                b = (nbr & ~mask).bit_count()
                if m < b:
                    w = -comb(b - 1, m) if m & 1 else comb(b - 1, m)
                elif b:
                    continue
            by_code[code] = by_code.get(code, 0) + w
    N, L = _class_sum(by_code, K, {})
    cache.whole = (g, K, N, L)
    return N, L


def assemble_a(g: Graph, dp: DeltaParams, K: int) -> TaylorCoeffs:
    """a_k(G) for k <= K as the sum of w(C) a_k(G[C]) over connected sets C
    of at most c vertices (module docstring): one pass over those sets,
    then the delta-free series of each class whose summed weight is
    nonzero, summed over the classes into one delta-free table (N, L) for G
    (_graph_series), evaluated at t.

    Sets are classified by the row code the enumerator carries: w(C) is
    summed per code, the codes with a nonzero sum are folded into named
    classes (_classes), and each class series is expanded from the graph
    of the class's first code.  A code is labelled only when it has no
    peeled string and another such code shares its table.

    (N, L) is kept in the default WeightCache's whole-graph slot.  A later
    query on an equal graph at any delta and any order up to the slot's K
    counts one hit and only evaluates the table: a slot built at K' >= K
    holds the exact a_k(G) for k <= K, since any cap in [k+1, n] gives the
    same rational.  Any other query builds its table as above and then
    replaces the slot, so a failed query leaves it as it was.

    Any cap c with K+1 <= c <= n gives the same a.  When n > 2K, c = K+1.
    When n <= 2K, c = n, which leaves a weight of 1 only on the components
    of G, whose a_k sum to a_k(G): G is expanded whole from its own row
    code as one class, with no set enumerated, whether it is connected or
    not.  A graph that small is cheaper whole than as the many classes of
    at most K+1 vertices: random_connected_graph(16, 3, seed=3,
    max_degree=3) at K = 8 expands 113 classes with c = 9 in 0.38 s,
    against 0.13 s whole (CPython 3.11.7, one core, cold caches).  Above
    2K it turns: at K = 6,
    random_connected_graph(20, 5, seed=0, max_degree=3) takes 0.08 s with
    c = 7 (33 classes) and 0.74 s whole.

    Raises SizeGuardError first, before any set is enumerated, when
    guard_order refuses K on G: any order above 16 on a graph of more than
    32 vertices, which covers every G of more than 32 vertices that the
    whole-graph route (n <= 2K) would take."""
    guard_order(g.n, K)
    if K < 1:
        raise ValueError("K must be >= 1")
    return _taylor(dp, K, lambda: _graph_series(g, K))
