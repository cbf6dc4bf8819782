import decimal
import hashlib
import itertools
import math
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from itertools import count, islice

import mpmath
import pytest

from mpmath import iv
from mpmath.libmp import from_rational, round_nearest, to_rational

from forestvol import coeffs, interpolate
from forestvol.errors import CertificateError, DeltaTooLargeError, SizeGuardError
from forestvol.families import (
    complete_graph,
    connected_graphs_upto,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
)
from forestvol.graphs import Graph
from forestvol.interpolate import (
    approximate_volume,
    max_admissible_delta,
    tail_bound,
    truncation_order,
    zero_free_radius,
)
from forestvol.oracles import exact_volume
from forestvol.treeweight import DeltaParams

from conftest import clear_caches, eps_reaching_order, k2_volume, p3_volume, sparse1000


# --- a reference on mpmath.iv ---------------------------------------------------
#
# interpolate works on decimal intervals and Fractions, with no mpmath.
# These helpers are an independent oracle on the mpmath.iv context: the
# 160- and 192-bit walks are the arithmetic interpolate used to run, so the
# tests below can demand the K, lower and upper those gave, and at 1200
# bits they give the exact first K far below where 160 bits resolve.


@contextmanager
def _iv_at(bits: int):
    """Run the block with mpmath.iv at `bits` of precision."""
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def _iv_frac(q: Fraction):
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def _iv_tails(radius: Fraction):
    """sum_{k>K} R^-k / k for K = 0, 1, ... at the current iv precision."""
    rinv = 1 / _iv_frac(radius)
    tail = -iv.log(1 - rinv)
    term = iv.mpf(1)
    for k in count(1):
        yield tail
        term = term * rinv
        tail = tail - term / k


def _reference_truncation_order(n: int, eps: Fraction, radius: Fraction) -> int | None:
    """The old 160-bit search for K; None where it gave up, at the first
    step that left the tail's upper end in place."""
    with _iv_at(160):
        budget = iv.log(1 + _iv_frac(eps)) / (n - 1)
        prev = None
        for K, tail in enumerate(_iv_tails(radius)):
            if K >= 1 and tail.b <= budget.a:
                return K
            if prev is not None and tail.b >= prev:
                return None
            prev = tail.b


def _first_ks(radius: Fraction, plans, bits: int = 1200) -> dict:
    """{(n, eps): the first K >= 1 whose tail's upper end is at most the
    lower end of the budget log(1+eps)/(n-1)} for each plan, from one walk
    on mpmath.iv at `bits` (the tails depend on R alone).  At the default
    1200 bits every comparison must also be decided, so each K is the
    exact first K with (n-1) * sum_{k>K} R^-k / k <= log(1+eps)."""
    with _iv_at(bits):
        budgets = {(n, eps): iv.log(1 + _iv_frac(eps)) / (n - 1) for n, eps in plans}
        # plans meet their budgets in decreasing order of budget
        queue = sorted(budgets.items(), key=lambda item: item[1].a, reverse=True)
        out = {}
        for K, tail in enumerate(_iv_tails(radius)):
            if K == 0:
                continue
            while queue and tail.b <= queue[0][1].a:
                out[queue.pop(0)[0]] = K
            if not queue:
                return out
            assert bits < 1200 or tail.a > queue[0][1].b, "1200 bits do not decide"


def _iv_enclosure(res):
    """The 192-bit interval ends (lo, hi) of box^n exp(S -+ T) for an
    approximate_volume result, as mpmath.iv intervals of width 0."""
    box = DeltaParams(res.delta).box_hi
    total = sum(res.a, Fraction(0))
    with _iv_at(192):
        tail = next(islice(_iv_tails(res.radius), res.K, None)) * (res.n - 1)
        box_iv = _iv_frac(box) ** res.n
        s_iv = _iv_frac(total)
        return (box_iv * iv.exp(s_iv - tail)).a, (box_iv * iv.exp(s_iv + tail)).b


def _exact(x) -> Fraction:
    """The exact rational value of a width-0 mpmath.iv interval."""
    lo, hi = x._mpi_
    assert lo == hi
    return Fraction(*to_rational(lo))


# --- radius certificate -------------------------------------------------------


def test_radius_reference_bands():
    r = zero_free_radius(Fraction(1, 100), 3).radius
    assert Fraction(204, 100) <= r <= Fraction(205, 100)
    r = zero_free_radius(Fraction(1, 1000), 2).radius
    assert Fraction(229, 10) <= r <= Fraction(230, 10)


def test_radius_recheck_runs_on_every_call(monkeypatch):
    """The right-hand side of the radius condition depends on the degree
    alone and is computed once per degree, but the exact re-check runs on
    every call: the radius is the one recorded before the right-hand side
    was cached, and a right-hand side below the left-hand side fails a
    degree whose certificate was issued before."""
    expected = Fraction(469124513792000, 229538494307553)
    for _ in range(2):
        cert = zero_free_radius(Fraction(1, 100), 3)
        assert cert.radius == expected
    e_lo, _ = interpolate._e_bounds()
    fresh = interpolate._radius_rhs.__wrapped__(e_lo, 3)
    assert interpolate._radius_rhs(e_lo, 3) == fresh
    monkeypatch.setattr(interpolate, "_radius_rhs", lambda a, degree: Fraction(0))
    with pytest.raises(CertificateError):
        zero_free_radius(Fraction(1, 100), 3)


def test_radius_rejects_large_delta():
    with pytest.raises(DeltaTooLargeError) as exc:
        zero_free_radius(Fraction(1, 10), 3)
    dmax = exc.value.delta_max
    assert Fraction(2, 100) < dmax < Fraction(21, 1000)
    # anything strictly below the reported bound is admissible...
    assert zero_free_radius(dmax * Fraction(999, 1000), 3).radius > 1
    # ...and the bound itself is not
    with pytest.raises(DeltaTooLargeError):
        zero_free_radius(dmax, 3)


def test_radius_monotonicity():
    r1 = zero_free_radius(Fraction(1, 100), 3).radius
    r2 = zero_free_radius(Fraction(1, 200), 3).radius
    r3 = zero_free_radius(Fraction(1, 100), 4).radius
    assert r2 > r1 > r3


def test_max_admissible_delta_formula():
    # (1 - 1/D) / (4 e D), up to the safety factor just under 1
    for d in (2, 3, 5):
        got = float(max_admissible_delta(d))
        want = (1 - 1 / d) / (4 * math.e * d)
        assert want * 0.999 < got <= want
    # zero_free_radius takes its radius from the same formula, and reports
    # the same delta_max when it refuses
    for delta, d in (
        (Fraction(1, 100), 2),
        (Fraction(1, 100), 3),
        (Fraction(1, 1000), 7),
        (Fraction(1, 50), 2),
    ):
        assert zero_free_radius(delta, d).radius == max_admissible_delta(d) / delta
    for delta, d in ((Fraction(1, 10), 3), (Fraction(1, 37), 2), (Fraction(1, 20), 10)):
        with pytest.raises(DeltaTooLargeError) as exc:
            zero_free_radius(delta, d)
        assert exc.value.delta_max == max_admissible_delta(d)


def test_radius_requires_degree_two():
    with pytest.raises(ValueError):
        zero_free_radius(Fraction(1, 100), 1)


# --- truncation order -----------------------------------------------------------


def test_tail_bound_shrinks():
    r = Fraction(2)
    prev = None
    for k in range(1, 8):
        t = tail_bound(10, r, k)
        assert t > 0
        if prev is not None:
            assert t < prev
        prev = t


def test_truncation_order_minimal():
    r = zero_free_radius(Fraction(1, 100), 3).radius
    for n, eps in [(8, Fraction(1, 100)), (4, Fraction(1, 10)), (50, Fraction(1, 100))]:
        k = truncation_order(n, eps, r)
        budget = math.log1p(float(eps))
        assert float(tail_bound(n, r, k)) <= budget * (1 + 1e-9)
        if k > 1:
            assert float(tail_bound(n, r, k - 1)) > budget * (1 - 1e-9)


def test_truncation_order_reference_points():
    r3 = zero_free_radius(Fraction(1, 100), 3).radius
    assert truncation_order(8, Fraction(1, 100), r3) == 7
    r2 = zero_free_radius(Fraction(1, 1000), 2).radius
    assert truncation_order(200, Fraction(1, 100), r2) == 2
    assert truncation_order(1, Fraction(1, 100), r3) == 1


def test_truncation_order_same_k_down_to_160_bit_floor():
    """K is the 160-bit walk's K down to eps = 10^-40, and the exact first
    K of the 1200-bit reference at every eps.  From about 10^-43 the
    160-bit walk overshoots K (R = 11/10: 1067 for 1063 at n = 1000 and
    eps = 10^-43, and at n = 2 and 10^-46) or refuses (10^-48); K is
    still the exact first K there."""
    radii = [
        Fraction(11, 10),
        Fraction(204, 100),
        zero_free_radius(Fraction(1, 100), 2).radius,
        Fraction(10),
        Fraction(1000),
    ]
    sizes = (2, 3, 1000)
    for r in radii:
        plans = [(n, Fraction(1, 10**e)) for n in sizes for e in (1, 2, 6, 20, 40)]
        old = _first_ks(r, plans, bits=160)
        plans += [(n, Fraction(1, 10**e)) for n in sizes for e in (43, 46, 47, 48, 60)]
        exact = _first_ks(r, plans)
        for n, eps in plans:
            K = truncation_order(n, eps, r)
            assert K == exact[n, eps] == old.get((n, eps), K), (r, n, eps)
    r = Fraction(11, 10)
    assert _reference_truncation_order(2, Fraction(1, 10**46), r) == 1067
    assert truncation_order(2, Fraction(1, 10**46), r) == 1063
    assert _reference_truncation_order(2, Fraction(1, 10**48), r) is None


def test_tail_bound_above_exact_partial_sums():
    """tail_bound is an upper bound on the whole tail, so it is at least
    every exact partial sum (n-1) * sum_{k=K+1}^{K+M} R^-k / k, and within
    (n-1) * 2^-150 of it (a 50-digit enclosure; the partial sums'
    remainder here is below 2^-190).  Rounding the upper end to nearest at
    53 bits would put it below the partial sum in 73 of these 176 cases,
    e.g. (n, R, K) = (2, 2, 3)."""
    for r in (Fraction(2), Fraction(204, 100), Fraction(5, 2), Fraction(10)):
        M = 200
        for n in (2, 3, 10, 1000):
            for K in range(1, 12):
                partial = (n - 1) * sum(
                    (1 / r**k / k for k in range(K + 1, K + M + 1)), Fraction(0)
                )
                bound = tail_bound(n, r, K)
                assert partial <= bound, (n, r, K)
                assert bound - partial <= (n - 1) * Fraction(1, 2**150), (n, r, K)


# --- raw intervals against mpmath.iv ----------------------------------------------


def _iv_ends(x) -> tuple[Fraction, Fraction]:
    """The exact rational ends of an mpmath.iv interval."""
    return tuple(Fraction(*to_rational(end)) for end in x._mpi_)


def test_certificate_matches_mpmath_iv():
    """Against mpmath.iv: the radius re-check's right-hand side is a
    rational lower bound on its 256-bit enclosure, within 2^-48 of it;
    K is the 160-bit walk's K over degrees, deltas, sizes and eps down to
    10^-20, and the exact first K at 10^-46; and every tail interval up to
    the largest K, at 22 and 50 digits, and each scaled tail contain the
    400-bit enclosure and are narrower than 10^-(digits - 5) (times n-1)."""
    e_lo, _ = interpolate._e_bounds()
    for degree in (2, 3, 4, 7):
        with _iv_at(256):
            av = _iv_frac(e_lo)
            rhs = iv.log(av) * _iv_frac(Fraction(degree - 1, degree)) / (av * degree)
        bound = interpolate._radius_rhs(e_lo, degree)
        rhs_lo, _ = _iv_ends(rhs)
        assert rhs_lo - Fraction(1, 2**48) <= bound <= rhs_lo
        for delta in (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10**6)):
            radius = zero_free_radius(delta, degree).radius
            with _iv_at(256):
                assert (4 * _iv_frac(delta) * _iv_frac(radius)).b <= rhs.a
            sizes = (2, 16, 1000, 10**6)
            want = _first_ks(radius, [(n, Fraction(1, 10**e)) for n in sizes for e in (1, 6, 20)], bits=160)
            want.update(_first_ks(radius, [(n, Fraction(1, 10**46)) for n in sizes]))
            plans = []
            for (n, eps), K in want.items():
                assert truncation_order(n, eps, radius) == K, (degree, delta, n, eps)
                plans.append((n, K))
            top = max(K for _, K in plans)
            with _iv_at(400):
                want = [_iv_ends(t) for t in islice(_iv_tails(radius), top + 1)]
            for digits in (22, 50):
                got = list(islice(interpolate._tails(radius, digits), top + 1))
                for (lo, hi), (want_lo, want_hi) in zip(got, want):
                    assert lo <= want_lo and want_hi <= hi, (degree, delta, digits)
                    assert hi - lo <= Fraction(1, 10 ** (digits - 5))
                for n, K in plans:
                    lo, hi = interpolate._scaled_tail(n, radius, K, digits)
                    want_lo, want_hi = want[K]
                    assert lo <= (n - 1) * want_lo and (n - 1) * want_hi <= hi
                    assert hi - lo <= (n - 1) * Fraction(1, 10 ** (digits - 5))


def test_truncation_order_matches_160_bit_walk_on_grid():
    """K is the 160-bit mpmath.iv walk's K on a grid of plans: degrees 2-6,
    delta from 1/2000 to 1/60 (where admissible), n from 2 to 10^6 and eps
    from 1/2 to 10^-6."""
    epsilons = [Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)]
    epsilons += [Fraction(1, 10**e) for e in (3, 4, 5, 6)]
    sizes = (2, 3, 16, 1000, 10**6)
    plans = 0
    for degree in range(2, 7):
        for delta in (
            Fraction(1, 2000),
            Fraction(1, 1000),
            Fraction(1, 300),
            Fraction(1, 150),
            Fraction(1, 100),
            Fraction(1, 80),
            Fraction(1, 60),
        ):
            if delta >= max_admissible_delta(degree):
                continue
            radius = zero_free_radius(delta, degree).radius
            plans_here = [(n, eps) for n in sizes for eps in epsilons]
            got = {(n, eps): truncation_order(n, eps, radius) for n, eps in plans_here}
            assert got == _first_ks(radius, plans_here, bits=160), (degree, delta)
            plans += len(got)
    assert plans == 1155


_WORKLOAD_QUERIES = [
    # (graph, delta, eps) of the benchmark's four workloads: cold_dense,
    # cold_petersen, sparse_large and two delta_sweep points
    ("dense16", Fraction(1, 100), Fraction(1, 10)),
    ("petersen", Fraction(1, 100), Fraction(1, 100)),
    ("sparse1000", Fraction(1, 2000), Fraction(1, 100)),
    ("dense16", Fraction(99, 10000), Fraction(1, 10)),
    ("dense16", Fraction(95, 10000), Fraction(1, 10)),
]


def _workload_graph(name: str) -> Graph:
    if name == "dense16":
        return random_connected_graph(16, 3, seed=3, max_degree=3)
    if name == "petersen":
        return petersen_graph()
    return sparse1000()


def test_enclosure_matches_mpmath_iv():
    """lower and upper are the 192-bit mpmath.iv enclosure's endpoints
    passed through mpmath.mpf, bit for bit, on the benchmark's workload
    queries; also with mpmath.iv left at another precision, which the
    enclosure no longer reads."""
    for name, delta, eps in _WORKLOAD_QUERIES:
        res = approximate_volume(_workload_graph(name), delta, eps)
        lo, hi = _iv_enclosure(res)
        assert res.lower == Fraction(*to_rational(mpmath.mpf(lo)._mpf_)), name
        assert res.upper == Fraction(*to_rational(mpmath.mpf(hi)._mpf_)), name
        with _iv_at(30):
            again = approximate_volume(_workload_graph(name), delta, eps)
        assert (again.lower, again.upper) == (res.lower, res.upper)


# The workload queries, the two exact cases (delta = 0, and a matching) and
# Petersen at eps = 10^-6 with K = 19 and K = 18, whose sums of a_k have
# 274- and 279-bit denominators.  Rounding such a denominator to 192 bits
# before dividing changed the old 192-bit xi at K = 18 (not at K = 19), so
# S must enter exactly.
_ANSWER_QUERIES = _WORKLOAD_QUERIES + [
    ("c4", Fraction(0), Fraction(1, 100)),
    ("matching", Fraction(1, 4), Fraction(1, 100)),
    ("petersen", Fraction(1, 97), Fraction(1, 10**6)),
    ("petersen", Fraction(1, 101), Fraction(1, 10**6)),
]


def _answer_graph(name: str) -> Graph:
    if name == "c4":
        return cycle_graph(4)
    if name == "matching":
        return Graph(5, [(0, 1), (2, 3)])
    return _workload_graph(name)


def _high_level_answer(res):
    """(lower, upper, xi) of res by mpmath's high-level expressions:
    mpmath.mpf of each 192-bit enclosure endpoint at the current mp.prec,
    and for xi, mpf arithmetic under workprec(192) rounded to 53 bits (in
    the exact case, lower correctly rounded to 53 bits)."""
    if res.exact:
        xi = from_rational(res.lower.numerator, res.lower.denominator, 53, round_nearest)
        return res.lower, res.upper, Fraction(*to_rational(xi))
    lo, hi = _iv_enclosure(res)
    lower = Fraction(*to_rational(mpmath.mpf(lo._mpi_[0])._mpf_))
    upper = Fraction(*to_rational(mpmath.mpf(hi._mpi_[1])._mpf_))
    box = DeltaParams(res.delta).box_hi
    total = sum(res.a, Fraction(0))
    with mpmath.workprec(192):
        xi = (mpmath.mpf(box.numerator) / box.denominator) ** res.n * mpmath.exp(
            mpmath.mpf(total.numerator) / total.denominator
        )
    with mpmath.workprec(53):
        xi = mpmath.mpf(xi)
    return lower, upper, Fraction(*to_rational(xi._mpf_))


@pytest.mark.parametrize("prec", [None, 30, 113], ids=["default", "prec30", "prec113"])
def test_answer_matches_high_level_mpmath(prec):
    """lower, upper and xi equal the high-level mpmath expressions bit for
    bit: at the default 53 bits and with mpmath's working precision set to
    30 or 113 bits, which moves lower and upper but not xi.  xi is a
    Fraction, and float(xi) is the float of the old 192-bit mpf."""
    context = mpmath.workprec(prec) if prec else nullcontext()
    with context:
        assert mpmath.mp.prec == (prec or 53)
        for name, delta, eps in _ANSWER_QUERIES:
            res = approximate_volume(_answer_graph(name), delta, eps)
            assert res.exact == (delta == 0 or name == "matching"), name
            assert isinstance(res.xi, Fraction)
            assert (res.lower, res.upper, res.xi) == _high_level_answer(res), (name, delta)
    assert res.K == 18


def test_answers_ignore_thread_decimal_context():
    """The radius, K, the tail bound and every answer are the same under a
    hostile thread decimal context (5 digits, ROUND_UP) as under the
    default one, with interpolate's caches emptied before each run: every
    decimal step names its own context."""

    def run():
        for value in vars(interpolate).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        radius = zero_free_radius(Fraction(1, 100), 3).radius
        out = [radius, truncation_order(1000, Fraction(1, 10**6), radius)]
        out.append(tail_bound(16, radius, 5))
        for name, delta, eps in _ANSWER_QUERIES:
            res = approximate_volume(_answer_graph(name), delta, eps)
            out.append((res.K, res.lower, res.upper, res.xi))
        return out

    want = run()
    with decimal.localcontext() as hostile:
        hostile.prec = 5
        hostile.rounding = decimal.ROUND_UP
        assert run() == want
        assert decimal.getcontext().prec == 5


def test_e_bounds_integer_series():
    """The literal bounds are floor(e * 2^48) and one more, over 2^48: the
    integer series below and mpmath at 256 bits both give that floor, and
    the bounds bracket e.

    s = sum_k floor(2^(48+64) / k!) over the k whose term is nonzero
    undershoots e * 2^(48+64) by less than one per term summed plus a tail
    below 2, so s shifted down 64 bits is the floor when that margin does
    not reach the next multiple of 2^64."""
    scale = 1 << interpolate._E_BITS
    s, term, k = 0, scale << 64, 0
    while term:
        s += term
        k += 1
        term //= k
    assert s >> 64 == (s + k + 2) >> 64, "truncation error could move the floor"
    lo, hi = interpolate._e_bounds()
    assert lo * scale == s >> 64
    assert hi - lo == Fraction(1, scale)
    with mpmath.workprec(256):
        assert lo * scale == int(mpmath.floor(mpmath.e * scale))
        as_mpf = [mpmath.mpf(b.numerator) / b.denominator for b in (lo, hi)]
        assert as_mpf[0] < mpmath.e < as_mpf[1]


@pytest.mark.xfail(
    strict=True,
    reason="lower and upper are rounded to nearest at mpmath's 53-bit mp.prec, "
    "which moves upper inside the 192-bit enclosure (ROADMAP)",
)
def test_bounds_contain_192_bit_enclosure():
    """[lower, upper] should contain the 192-bit enclosure [lo, hi] of
    box^n exp(S -+ T) that approximate_volume computes."""
    res = approximate_volume(petersen_graph(), Fraction(1, 100), Fraction(1, 100))
    lo, hi = _iv_enclosure(res)
    assert res.lower <= _exact(lo) and _exact(hi) <= res.upper


# --- end-to-end -----------------------------------------------------------------


def test_exact_branches():
    res = approximate_volume(Graph(3, []), Fraction(1, 4), Fraction(1, 100))
    assert res.exact and res.lower == res.upper == Fraction(27, 64)
    res = approximate_volume(cycle_graph(4), Fraction(0), Fraction(1, 100))
    assert res.exact and res.lower == Fraction(1, 16)
    res = approximate_volume(Graph(2, [(0, 1)]), Fraction(1, 4), Fraction(1, 100))
    assert res.exact and res.lower == Fraction(7, 16)
    # matching over several components multiplies
    g = Graph(5, [(0, 1), (2, 3)])
    res = approximate_volume(g, Fraction(1, 4), Fraction(1, 100))
    assert res.exact
    assert res.lower == k2_volume(Fraction(1, 4)) ** 2 * Fraction(3, 4)
    # the one closed form box^(n-2m) (box^2 - 2 delta^2)^m against the exact
    # volume, on every labelled graph of maximum degree <= 1 on <= 6 vertices
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        for m in range(n // 2 + 1):
            for edges in itertools.combinations(pairs, m):
                if len({v for e in edges for v in e}) < 2 * m:
                    continue
                g = Graph(n, edges)
                for delta in (Fraction(1, 100), Fraction(1, 4), Fraction(2, 5)):
                    res = approximate_volume(g, delta, Fraction(1, 100))
                    assert res.exact and res.K == 0 and res.a == () and res.radius is None
                    want = exact_volume(g, DeltaParams(delta))
                    assert res.lower == res.upper == want, (n, edges, delta)
    # at delta = 0 it is (1/2)^n, also where the exponent n - 2m is negative
    for g in (
        complete_graph(4),
        petersen_graph(),
        random_connected_graph(16, 3, seed=3, max_degree=3),
    ):
        assert g.n - 2 * g.m < 0
        res = approximate_volume(g, Fraction(0), Fraction(1, 100))
        assert res.exact and res.K == 0 and res.a == () and res.radius is None
        assert res.lower == res.upper == Fraction(1, 2) ** g.n


def test_containment_and_width_small_graphs():
    delta, eps = Fraction(1, 100), Fraction(1, 20)
    for g in connected_graphs_upto(5):
        if g.max_degree() < 2:
            continue
        res = approximate_volume(g, delta, eps)
        exact = exact_volume(g, DeltaParams(delta))
        assert res.lower <= exact <= res.upper, g.edges
        assert float(res.upper) / float(res.lower) <= (1 + float(eps)) ** 2 * (1 + 1e-9)
        # xi lands inside the certified interval
        xi = Fraction(*float(res.xi).as_integer_ratio())
        assert res.lower * (1 - Fraction(1, 10**9)) <= xi
        assert xi <= res.upper * (1 + Fraction(1, 10**9))


def test_relative_error_much_smaller_than_eps():
    delta, eps = Fraction(1, 100), Fraction(1, 100)
    g = star_graph(3)
    res = approximate_volume(g, delta, eps)
    exact = exact_volume(g, DeltaParams(delta))
    rel = abs(float(res.xi) / float(exact) - 1)
    assert rel <= float(eps)


def test_max_degree_cap():
    g = complete_graph(4)  # degree 3
    with pytest.raises(ValueError):
        approximate_volume(g, Fraction(1, 100), Fraction(1, 100), max_degree=2)
    res = approximate_volume(path_graph(3), Fraction(1, 100), Fraction(1, 100), max_degree=3)
    # certificate for the requested family, not the graph's own degree
    assert res.degree == 3
    r3 = zero_free_radius(Fraction(1, 100), 3).radius
    assert res.radius == r3


def test_parameter_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        approximate_volume(g, Fraction(1, 2), Fraction(1, 100))
    with pytest.raises(ValueError):
        approximate_volume(g, Fraction(-1, 100), Fraction(1, 100))
    with pytest.raises(ValueError):
        approximate_volume(g, Fraction(1, 100), Fraction(0))


def test_delta_too_large_via_volume():
    with pytest.raises(DeltaTooLargeError):
        approximate_volume(cycle_graph(5), Fraction(1, 10), Fraction(1, 100), max_degree=3)


def test_size_guard_refuses_before_enumerating(monkeypatch):
    """An order K > 16 on a graph of more than 32 vertices is refused before
    any connected set is enumerated; K = 16 on the same graph passes the
    guard and reaches the enumeration."""

    def boom(*args, **kwargs):
        raise AssertionError("enumerated connected sets")

    g = cycle_graph(33)
    delta = Fraction(1, 100)
    radius = zero_free_radius(delta, 2).radius
    eps16, order = eps_reaching_order(g.n, radius, 16)
    assert order == 16
    eps, order = eps_reaching_order(g.n, radius, 17)
    assert order >= 17
    monkeypatch.setattr(coeffs, "code_table", boom)
    with pytest.raises(SizeGuardError, match=f"K={order} .* 33 > 32 vertices"):
        approximate_volume(g, delta, eps)
    with pytest.raises(AssertionError, match="enumerated"):
        approximate_volume(g, delta, eps16)


def test_repeat_cold_runs_same_bits():
    g = cycle_graph(20)
    delta, eps = Fraction(1, 1000), Fraction(1, 100)
    clear_caches()
    r1 = approximate_volume(g, delta, eps)
    clear_caches()
    r2 = approximate_volume(g, delta, eps)
    assert r1.a == r2.a
    assert r1.lower == r2.lower and r1.upper == r2.upper
    assert r1.xi == r2.xi


def test_p3_against_slice_integration():
    delta = Fraction(1, 100)
    res = approximate_volume(path_graph(3), delta, Fraction(1, 100))
    truth = p3_volume(delta)
    assert res.lower <= truth <= res.upper


def test_frontier_answer_pinned():
    """The 1000-vertex degree-3 graph at eps = 1/100 and delta = 1/500 (K = 4,
    connected sets of at most 5 vertices) or delta = 1/200 (K = 6, sets of
    at most 7 vertices, among them classes with cycles): sha256 prefix of
    (delta, a, lower, upper), joined as the benchmark's answer digest joins
    them."""
    g = sparse1000()
    for delta, K, digest in (
        (Fraction(1, 500), 4, "674a671a8f807fa9"),
        (Fraction(1, 200), 6, "1ab3cf7b47dc86e3"),
    ):
        res = approximate_volume(g, delta, Fraction(1, 100))
        assert res.K == K
        text = "|".join([str(delta), ",".join(map(str, res.a)), str(res.lower), str(res.upper)])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, delta
