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
row_code, with no set enumerated.  polymer_tables needs no split, since
no polymer crosses two components.

All delta-dependence enters through t.  A family of r disjoint polymers of
total degree j covers j + r vertices, so (polymer_tables)
    e_j(t) = sum_r E[j][r] D^{-r} t^{j+r},
with D the lcm of the reduced denominators of the class weights c of the
polymers and E[j][r] = D^r times the sum of prod c(S) over such families.
The subset DP fills it in integers only: treeweight.polymer_weights gives
each |S|! c(S) as an integer, each polymer enters as the integer c(S) D,
and each DP state keeps only its nonzero (j, r) entries with j <= K.
Newton's identity for b_k = k a_k, b_k = k e_k - sum_{j<k} b_j e_{k-j},
multiplies t^j by t^{k-j} and convolves the (t/D)^r series, so
    B[k] = k E[k] - sum_{j<k} B[j] * E[k-j]   (convolution over r)
stays integer, with no division, and a_k(t) = sum_r B[k][r] t^{k+r} / (k D^r).
The classes of one class sum are expanded together by one kernel on the
input graph's own vertex masks (polymer_tables): each class as G[M], for
M the mask of the first connected set that had the class's first code.
E of G[M] depends on G[M] alone, so any set of the class gives the same
a_k.  Region counts, polymer weights U(S) and DP states P[W] depend only
on G[S] or G[W], so each lives in one table keyed by masks of G that all
the classes share: the classes of one query overlap heavily, and a
sub-polymer or DP state two classes share is built once.  The classes
share one D too, the lcm over all their polymers; a_k(t) does not depend
on D.  Their (B, D) go into a {class name: (B, D)} dict that the caller
of _class_sum owns, so nothing of a class outlives the call that made
the dict.  The weighted sum of the class series is itself an integer table
(N, L) for the input graph, a_k(G) = sum_r N[k][r] t^{k+r} / (k L^r),
kept in WeightCache.whole for the last graph asked: a query on that graph
at another delta enumerates, labels and expands nothing and only
evaluates it at the new t.

Connected sets are classified without building their induced subgraphs
or handing any set out: graphs.code_table grows the sets depth-first with
each set's closed neighbourhood N[C] (so |dC| = |N[C]| - |C|) and its row
code, an exact labelled copy of G[C] in the order the set was grown,
packed into one int, and sums a weight of (|C|, |dC|) per code in the
same pass.  No graph is built for a class either: the table keeps, per
code, the summed weight and the mask of the code's first set.

assemble_a, pattern_gamma and pattern_counts compute one kind of sum over
connected sets, with three weight rules of (|C|, |dC|), every set of
exactly the cap weighing 1: the boundary weight w(C) above over the sets
of at most c vertices of G (assemble_a), (-1)^{|U|-|C|} over the sets of
h = G[U] with N[C] = U, i.e. |C| + |dC| = |U| (pattern_gamma, cap |U|),
and 1 (pattern_counts).  All take one route: the weights are summed per
row code into a {packed code: [weight, first mask]} table (code_table),
codes whose sum is 0 are dropped, and the rest are folded into
classes, each named by what already identifies it (_classes): a tree or
one-cycle code by its exact peeled string (canon.peel_key), and any other
code by its plain canonical key (canon.code_key) when the table holds
another such code, or by itself when it is the only one.  Almost every
code with a nonzero weight is a tree or has one cycle, so a query seldom
labels anything (the dense16, sparse1000 and Petersen queries label
nothing).  Then w B of every class series with a nonzero summed weight
w, expanded on the mask of the class's first set, is added over the
common denominator into a delta-free table (N, L) (_class_sum), which is
evaluated once at t (_taylor).  pattern_counts folds its per-code set
counts into classes by the same _classes step and labels each class's
first code once for its key.  Codes stay packed in the table and in
_classes; a code is unpacked into its rows (graphs.unpack_code) only to
be read by peel_key or code_key, and the rows are not kept.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import comb, factorial, gcd, lcm

# canonical_form is not called here: perfbench/tracer.py traces
# coeffs.canonical_form and raises on a missing target
from .canon import MAX_VERTICES, canonical_form, code_key, graph_from_key, peel_key  # noqa: F401
from .errors import SizeGuardError
# enumerate_connected_sets is not called here either (code_table is):
# perfbench/tracer.py wraps coeffs.enumerate_connected_sets and raises on a
# missing target
from .graphs import Graph, code_table, enumerate_connected_sets, row_code, unpack_code  # noqa: F401
from .record import Record
from .treeweight import DeltaParams, default_cache, polymer_weights


class TaylorCoeffs(Record):
    __slots__ = ("a",)

    def __init__(self, a: tuple[Fraction, ...]):
        # a[0] = 0 placeholder; a[1..K] meaningful
        object.__setattr__(self, "a", a)

    def __getitem__(self, k: int) -> Fraction:
        return self.a[k]


def polymer_series(g: Graph, K: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The delta-free table (E, D) with e_j(t) = sum_r E[j][r] D^{-r} t^{j+r}
    for j <= K, where t = delta/(1/2+delta) and E is integer: polymer_tables
    with V(g) as the one mask, so D is the lcm of the reduced denominators
    of the class weights of g's own polymers."""
    [E], D = polymer_tables(g, (g.vertex_mask(),), K)
    return E, D


def polymer_tables(
    g: Graph, masks: Sequence[int], K: int
) -> tuple[list[tuple[tuple[int, ...], ...]], int]:
    """([E of g[M] for each vertex mask M in masks], D): e_j(t) of g[M] is
    sum_r E[j][r] D^{-r} t^{j+r} for j <= K, t = delta/(1/2+delta), with E
    integer over one common denominator D.

    Polymers are connected sets S with 2 <= |S| <= K+1 inside a mask,
    weighed together by polymer_weights(g, K+1, masks) on g's own vertex
    masks as c(g[S]) = U(S)/|S|!; a family of r disjoint polymers of total
    degree j covers j + r vertices, so it carries t^{j+r} and E[j][r] sums
    D^r prod c(g[S]) over such families, D the lcm of the reduced
    denominators of the c(g[S]) of every mask's polymers.  The subset DP
    P[W] = P[W - v] + sum over polymers S with v in S, S in W, of
    c(S) D z^{|S|-1} y P[W - S], v = min W, runs over the sets W reachable
    from the masks, with y counting polymers.  The polymers inside W are
    those of any mask that holds W, so P[W] depends on W alone, and one
    table serves every mask: a state two masks reach is built once.  Each
    P[W] is a {j (K+1) + r: integer} dict of its nonzero entries with
    j <= K, built once, after the sets it reads, in a post-order walk from
    each mask on an explicit stack: no Python recursion grows with g, and
    no state is visited that no mask reaches.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    found = [(s, u, factorial(s.bit_count())) for s, u in polymer_weights(g, K + 1, masks)]
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
    tables: dict[int, dict[int, int]] = {0: {0: 1}}
    # sets seen but not built yet, with the polymers that fit them
    fits: dict[int, list[tuple[int, int, int, int]]] = {}
    out = []
    for full in masks:
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
            row = dict(tables[w ^ (w & -w)])
            get = row.get
            for s, shift, limit, c in fit:
                for x, v in tables[w ^ s].items():
                    if x < limit:
                        row[x + shift] = get(x + shift, 0) + c * v
            tables[w] = row
        top = tables[full]
        out.append(tuple(tuple(top.get(j * R + r, 0) for r in range(R)) for j in range(R)))
    return out, D


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
    representative).  Sets are counted per row code (code_table, every set
    of weight 1) and the codes folded into classes by _classes, the step
    assemble_a and pattern_gamma use; each class's first code is then
    labelled once (canon.code_key) for its plain canonical key, and the
    representative is the one the key encodes (graph_from_key)."""
    table = code_table(g, max_size, lambda size, b: 1)
    for code, entry in table.items():
        # tag each code with itself rather than its first mask
        entry[1] = code
    out: dict[bytes, tuple[int, Graph]] = {}
    for code, count in _classes(table).values():
        key = code_key(unpack_code(code))
        out[key] = (count, graph_from_key(key))
    return out


# a class's name: its peeled string, its plain canonical key or its own
# packed code; a graph expanded whole is named by its row code
Name = str | bytes | int | tuple[int, ...]


def _classes(table: dict[int, list]) -> dict[Name, list]:
    """Fold a {packed row code: [integer weight, tag]} table (code_table)
    into {name: [tag of the class's first code, summed weight]}, one entry
    per class, where the tag is what the caller kept of the code's first
    set: its vertex mask (_graph_series, _gamma_codes) or the code itself
    (pattern_counts).  A code whose weight is 0 is dropped.  A tree or
    one-cycle code is named by its exact peeled string (canon.peel_key).
    The other codes are named by their plain canonical key (canon.code_key)
    when there are two or more of them, since two may then be isomorphic;
    a lone one names itself, an exact labelled graph that no other code of
    the table can share a class with.  So only codes with no peeled string
    are labelled, and never a lone one.  Peeled strings and canonical keys
    name a class exactly across tables too.  Codes stay packed: each is
    unpacked into its rows only to be read, and the rows are not kept."""
    weighed = [
        (code, w, tag, peel_key(unpack_code(code))) for code, (w, tag) in table.items() if w
    ]
    lone = sum(name is None for *_, name in weighed) == 1
    classes: dict[Name, list] = {}
    for code, w, tag, name in weighed:
        if name is None:
            name = code if lone else code_key(unpack_code(code))
        classes.setdefault(name, [tag, 0])[1] += w
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
    g: Graph,
    named: dict[Name, list],
    K: int,
    series: dict[Name, tuple[tuple[tuple[int, ...], ...], int]],
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(N, L) with sum over classes of w a_k(class) =
    sum_r N[k][r] t^{k+r} / (k L^r) for k <= K, from a {name: [vertex mask
    of g, summed weight w]} table (_classes): w B[k][r] / (k D^r) of every
    class series with a nonzero w, kept as the integer N[k][r] over the
    common denominator L.  The classes missing from the caller's series
    {name: (B, D)} are expanded into it together, each as g[M] for the
    mask M of its first set, by one polymer_tables call that shares its
    region counts, polymer weights and DP states between them; each counts
    one miss of the default WeightCache.  (E, D) and B are isomorphism
    invariants, and the a_k they give do not depend on D, so any set of
    the class gives the same a_k."""
    classes = [(name, mask, w) for name, (mask, w) in named.items() if w]
    fresh = [(name, mask) for name, mask, _ in classes if name not in series]
    if fresh:
        default_cache().misses += len(fresh)
        tables, D = polymer_tables(g, [mask for _, mask in fresh], K)
        for (name, _), E in zip(fresh, tables):
            series[name] = (_log_series(E, K), D)
    terms = [(w, *series[name]) for name, _, w in classes]
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
    class sum assemble_a uses (_classes, _class_sum).  At delta = 0
    nothing is enumerated, labelled or expanded."""
    return _taylor(dp, K, lambda: _class_sum(h, _classes(_gamma_codes(h)), K, {})).a


def _gamma_codes(h: Graph) -> dict[int, list]:
    """{packed row code: [summed (-1)^{|h|-|C|}, mask of the code's first
    set]} over the connected sets C of h with 2 <= |C| and N[C] = V(h),
    i.e. |C| + |outer boundary of C| = |h| (code_table with cap |h|, where
    the one set of |h| vertices weighs 1)."""
    n = h.n
    return code_table(h, n, lambda size, b: (-1) ** (n - size) if size + b == n else 0)


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
        gamma = _taylor(
            dp, K, lambda: _class_sum(rep, _classes(_gamma_codes(rep)), K, series)
        ).a
        rows.append((key, count, rep, gamma))
        for k in range(1, K + 1):
            a[k] += count * gamma[k]
    return rows, TaylorCoeffs(a=tuple(a))


def _graph_series(g: Graph, K: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(N, L) with a_k(g) = sum_r N[k][r] t^{k+r} / (k L^r) for k <= K, from
    the default WeightCache's whole-graph slot or built by summing w(C) per
    row code over the connected sets C of at most c vertices (assemble_a)
    into a {packed code: [summed w(C), mask of the code's first set]}
    table in one pass (code_table), then folding the codes into classes
    (_classes) and summing the class series (_class_sum).

    With c = n only the components of g keep a weight, 1 each, and their
    a_k sum to a_k(g), so g itself, named by its own row code with V(g) as
    its mask, is the one class, and no set is enumerated.  With c = K+1
    every set is enumerated, and a set of exactly c vertices has m = 0, so
    it weighs 1 whatever its boundary."""
    cache = default_cache()
    whole = cache.whole
    if whole is not None and whole[1] >= K and whole[0] == g:
        cache.hits += 1
        return whole[2], whole[3]
    if g.n <= 2 * K:
        named: dict[Name, list] = {row_code(g): [g.vertex_mask(), 1]}
    else:
        cap = K + 1

        def weight(size: int, b: int) -> int:
            # w(C) below the cap, with m = cap - |C| >= 1
            m = cap - size
            if m < b:
                return -comb(b - 1, m) if m & 1 else comb(b - 1, m)
            return 0 if b else 1

        named = _classes(code_table(g, cap, weight))
    N, L = _class_sum(g, named, K, {})
    cache.whole = (g, K, N, L)
    return N, L


def assemble_a(g: Graph, dp: DeltaParams, K: int) -> TaylorCoeffs:
    """a_k(G) for k <= K as the sum of w(C) a_k(G[C]) over connected sets C
    of at most c vertices (module docstring): one pass over those sets,
    then the delta-free series of each class whose summed weight is
    nonzero, summed over the classes into one delta-free table (N, L) for G
    (_graph_series), evaluated at t.

    Sets are classified by their row codes: w(C) is summed per code in the
    same pass that grows the sets (code_table), the codes with a nonzero sum are folded into named
    classes (_classes), and the class series are expanded together on G's
    own vertex masks, each from the mask of its class's first set
    (polymer_tables).  A code is labelled only when it has no peeled
    string and another such code shares its table.

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
    max_degree=3) at K = 8 expands 113 classes with c = 9 in 0.050 s,
    against 0.037 s whole (CPython 3.11.7, one core, cold caches, best of
    3).  Above 2K it turns: at K = 6,
    random_connected_graph(20, 5, seed=0, max_degree=3) takes 0.009 s with
    c = 7 (33 classes) and 0.126 s whole.

    Raises SizeGuardError first, before any set is enumerated, when
    guard_order refuses K on G: any order above 16 on a graph of more than
    32 vertices, which covers every G of more than 32 vertices that the
    whole-graph route (n <= 2K) would take."""
    guard_order(g.n, K)
    if K < 1:
        raise ValueError("K must be >= 1")
    return _taylor(dp, K, lambda: _graph_series(g, K))
