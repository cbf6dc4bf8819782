"""Certified volume approximation via Taylor interpolation of log p.

The forest partition function p of a max-degree-Delta graph is nonzero on a
disk of radius R = (1 - 1/Delta) / (4 e Delta delta), up to a safety factor.
Truncating log p at order K with all roots outside R bounds the dropped tail
by (n-1) * sum_{k>K} R^-k / k, so choosing the minimal K that pushes the
tail below ln(1+eps) yields a multiplicative (1 +- eps) guarantee.

Coefficients are exact rationals end to end.  The radius re-check is an
exact Fraction comparison against a rational lower bound on its right-hand
side, which needs no logarithm.  The truncation order and the final
exponential run on the standard library's decimal, in outward-rounded
interval arithmetic: an interval is a pair (lo, hi) of Decimals, every
lower end is computed in a context that rounds toward -inf (ROUND_FLOOR)
and every upper end in one that rounds toward +inf (ROUND_CEILING), and ln
and exp, which decimal rounds correctly to nearest, are widened by one unit
in the last place.  Every operation names its context, so the thread's
decimal context is never read.  Where an enclosure is too wide to decide a
comparison or a rounding, it is recomputed with twice the digits, so K is
the exact first order that meets the budget, and each bound is the exact
value rounded.  lower and upper are box^n * exp(S -+ T) rounded to nearest
at mpmath's working precision mp.prec when mpmath is loaded, else at 53
bits, which is what rounding a 192-bit mpmath.iv enclosure through
mpmath.mpf gave (see approximate_volume).  No mpmath is imported.
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Iterator
from decimal import (
    MAX_EMAX,
    MIN_EMIN,
    ROUND_CEILING,
    ROUND_FLOOR,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
)
from fractions import Fraction
from itertools import count, islice

from .coeffs import assemble_a
from .errors import CertificateError, DeltaTooLargeError
from .graphs import Graph
from .record import Record
from .treeweight import DeltaParams

_SAFETY = Fraction((1 << 20) - 1, 1 << 20)
_E_BITS = 48
_MAX_ORDER = 1_000_000  # truncation_order gives up beyond this K
_GUARD = 20  # decimal digits carried beyond what a comparison or rounding needs
_LOG_DIGITS = 60  # digits, at least, of the one log(R / (R - 1)) per radius
_TAIL_DIGITS = 50  # digits of tail_bound's enclosure
_RETRIES = 4  # times an undecided enclosure doubles its digits before it fails
_XI_BITS = 53

# An interval is a pair (lo, hi) of Decimals with lo <= hi.


_E_BOUNDS = (
    Fraction(765128314358509, 1 << _E_BITS),
    Fraction(765128314358510, 1 << _E_BITS),
)


def _e_bounds() -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds on e, tight to 2^-_E_BITS: floor(e *
    2^_E_BITS) and one more, over 2^_E_BITS.  The tests derive the floor
    from an integer series and check it at 256 bits with mpmath."""
    return _E_BOUNDS


@functools.lru_cache(maxsize=64)
def _contexts(digits: int) -> tuple[Context, Context]:
    """(down, up): contexts of `digits` significant digits rounding toward
    -inf and toward +inf, with the widest exponent range and the usual
    traps, whatever decimal.DefaultContext holds."""
    traps = [DivisionByZero, InvalidOperation, Overflow]
    return tuple(
        Context(prec=digits, rounding=rounding, Emin=MIN_EMIN, Emax=MAX_EMAX, traps=traps)
        for rounding in (ROUND_FLOOR, ROUND_CEILING)
    )


def _digits(bits: int) -> int:
    """Decimal digits that carry at least `bits` bits (log10(2) < 0.302)."""
    return max(bits, 0) * 302 // 1000 + 1


def _ladder(digits: int, what: str) -> Iterator[int]:
    """digits, then twice as many, _RETRIES times over, for an enclosure
    too wide to decide `what`; then CertificateError."""
    for _ in range(_RETRIES + 1):
        yield digits
        digits *= 2
    raise CertificateError(f"{what}: undecided at {digits // 2} digits")


def _frac(q: Fraction, digits: int) -> tuple:
    """An interval enclosing the rational q: its numerator over its
    denominator, each end rounded outward."""
    down, up = _contexts(digits)
    num, den = Decimal(q.numerator), Decimal(q.denominator)
    return down.divide(num, den), up.divide(num, den)


def _ln(x: tuple, digits: int) -> tuple:
    """An interval enclosing log of the positive interval x, from one log:
    log(hi) <= log(lo) + (hi - lo) / lo."""
    down, up = _contexts(digits)
    lo, hi = x
    mid = down.ln(lo)
    gap = up.divide(up.subtract(hi, lo), lo)
    return down.next_minus(mid), up.add(up.next_plus(mid), gap)


def _exp(x: tuple, digits: int) -> tuple:
    """An interval enclosing exp of the interval x, from one exp:
    exp(hi) <= exp(lo) / (1 - (hi - lo)) while hi - lo < 1."""
    down, up = _contexts(digits)
    lo, hi = x
    mid = down.exp(lo)
    shrink = down.subtract(Decimal(1), up.subtract(hi, lo))
    return down.next_minus(mid), up.divide(up.next_plus(mid), shrink)


def _power(x: tuple, n: int, digits: int) -> tuple:
    """An interval enclosing x^n for a positive interval x and n >= 0, by
    squaring; decimal's power is not correctly rounded."""
    down, up = _contexts(digits)
    lo, hi = x
    out_lo = out_hi = Decimal(1)
    while n:
        if n & 1:
            out_lo, out_hi = down.multiply(out_lo, lo), up.multiply(out_hi, hi)
        n >>= 1
        if n:
            lo, hi = down.multiply(lo, lo), up.multiply(hi, hi)
    return out_lo, out_hi


@functools.lru_cache(maxsize=64)
def _log_ratio(radius: Fraction, digits: int) -> tuple:
    """An interval enclosing -log(1 - 1/R) = log(R / (R - 1))."""
    return _ln(_frac(radius / (radius - 1), digits), digits)


def _tails(radius: Fraction, digits: int) -> Iterator[tuple]:
    """Intervals enclosing sum_{k>K} R^-k / k = -log(1 - 1/R) - sum_{k<=K}
    R^-k / k for K = 0, 1, 2, ...: R^-k is carried as an interval
    multiplied by 1/R at each step, so every step costs the same."""
    down, up = _contexts(digits)
    num, den = Decimal(radius.denominator), Decimal(radius.numerator)
    rinv_lo, rinv_hi = down.divide(num, den), up.divide(num, den)
    # one log per R, at _LOG_DIGITS digits or more, which truncation_order
    # and the enclosure share; the walk's first step rounds it to `digits`
    lo, hi = _log_ratio(radius, max(digits, _LOG_DIGITS))
    power_lo = power_hi = Decimal(1)
    for k in count(1):
        yield lo, hi
        power_lo = down.multiply(power_lo, rinv_lo)
        power_hi = up.multiply(power_hi, rinv_hi)
        kd = Decimal(k)
        lo = down.subtract(lo, up.divide(power_hi, kd))
        hi = up.subtract(hi, down.divide(power_lo, kd))


def _scaled_tail(n: int, radius: Fraction, K: int, digits: int) -> tuple:
    """An interval enclosing (n-1) * sum_{k>K} R^-k / k."""
    down, up = _contexts(digits)
    lo, hi = next(islice(_tails(radius, digits), K, None))
    m = Decimal(n - 1)
    return down.multiply(lo, m), up.multiply(hi, m)


class RadiusCertificate(Record):
    __slots__ = ("delta", "degree", "radius", "witness_a", "safety")

    def __init__(
        self,
        delta: Fraction,
        degree: int,
        radius: Fraction,
        witness_a: Fraction,
        safety: Fraction,
    ):
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "witness_a", witness_a)
        object.__setattr__(self, "safety", safety)


@functools.lru_cache(maxsize=64)
def _radius_rhs(witness: Fraction, max_degree: int) -> Fraction:
    """A rational lower bound on the radius condition's right-hand side
    log(a) * (1 - 1/Delta) / (a * Delta) at the witness a > 0, from
    log(a) >= 2 - e_hi / a: log x <= x - 1 at x = e / a, and e < e_hi.
    zero_free_radius always takes a = e_lo, where the bound is within
    2^-48 of log(a) = 1; it is computed once per degree."""
    _, e_hi = _e_bounds()
    return (2 - e_hi / witness) * (max_degree - 1) / (witness * max_degree**2)


def max_admissible_delta(max_degree: int) -> Fraction:
    """Largest delta for which zero_free_radius can exceed 1 at this degree."""
    if max_degree < 2:
        raise ValueError("certificate requires max degree >= 2")
    _, e_hi = _e_bounds()
    return _delta_max(max_degree, e_hi)


@functools.lru_cache(maxsize=64)
def _delta_max(max_degree: int, e_hi: Fraction) -> Fraction:
    """max_admissible_delta at this degree and upper bound on e."""
    return Fraction(max_degree - 1, max_degree) * _SAFETY / (4 * e_hi * max_degree)


def zero_free_radius(delta: Fraction, max_degree: int) -> RadiusCertificate:
    """Certified zero-free disk radius R > 1 for the family of graphs with
    maximum degree <= max_degree at truncation delta.

    R = max_admissible_delta(max_degree) / delta, which is
    (1 - 1/Delta) * safety / (4 e_hi Delta delta): the one formula for the
    radius, so R > 1 exactly when delta is below that delta_max.  The
    radius is re-verified in exact rational arithmetic against the
    sufficient condition
        4 * delta * R <= log(a) * (1 - 1/Delta) / (a * Delta)
    with a rational witness a < e, whose right-hand side is bounded below
    by a rational (_radius_rhs).  Raises ValueError when max_degree < 2 or
    delta is outside (0, 1/2), DeltaTooLargeError when no radius above 1 is
    certifiable, and CertificateError when the re-check fails.
    """
    delta = Fraction(delta)
    delta_max = max_admissible_delta(max_degree)
    if not (0 < delta < Fraction(1, 2)):
        raise ValueError("certificate requires delta in (0, 1/2)")
    radius = delta_max / delta
    if radius <= 1:
        raise DeltaTooLargeError(delta, max_degree, delta_max)
    e_lo, _ = _e_bounds()
    if 4 * delta * radius > _radius_rhs(e_lo, max_degree):
        raise CertificateError("exact re-check of the radius failed")
    return RadiusCertificate(
        delta=delta,
        degree=max_degree,
        radius=radius,
        witness_a=e_lo,
        safety=_SAFETY,
    )


def _round(num: int, den: int, bits: int) -> Fraction:
    """num / den > 0 rounded to nearest at `bits` significant bits, ties to
    even, as mpmath's libmp.normalize rounds with round_nearest."""
    shift = bits - num.bit_length() + den.bit_length()  # num/den * 2^shift < 2^(bits+1)
    if num << max(shift, 0) >= den << max(-shift, 0) + bits:
        shift -= 1
    num, den = num << max(shift, 0), den << max(-shift, 0)
    man, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and man & 1):
        man += 1
    return Fraction(man << max(-shift, 0), 1 << max(shift, 0))


def tail_bound(n: int, radius: Fraction, K: int) -> Fraction:
    """Rational upper bound on (n-1) * sum_{k>K} R^-k / k: the exact upper
    end of its _TAIL_DIGITS-digit enclosure."""
    if radius <= 1:
        raise ValueError("tail bound needs radius > 1")
    if n <= 1 or K < 0:
        return Fraction(0)
    _, hi = _scaled_tail(n, radius, K, _TAIL_DIGITS)
    return max(Fraction(hi), Fraction(0))


@functools.lru_cache(maxsize=64)
def _budget(n: int, eps: Fraction, digits: int) -> tuple:
    """An interval enclosing log(1 + eps) / (n - 1); computed once per
    (n, eps, digits)."""
    down, up = _contexts(digits)
    lo, hi = _ln(_frac(1 + eps, digits), digits)
    m = Decimal(n - 1)
    return down.divide(lo, m), up.divide(hi, m)


def truncation_order(n: int, eps: Fraction, radius: Fraction) -> int:
    """Minimal K >= 1 with (n-1) * sum_{k>K} R^-k / k <= ln(1+eps).

    The tail sum_{k>K} R^-k / k and the budget log(1+eps)/(n-1) are
    enclosed in decimal intervals, at first with enough digits to resolve
    the budget (about eps/(n-1)) and _GUARD more.  K is the first order
    whose tail's upper end is at most the budget's lower end.  Where the
    two intervals overlap before that, the walk starts again with twice
    the digits, so K is the exact first order.  Raises CertificateError
    when no K up to _MAX_ORDER meets the budget, or when the intervals
    still overlap after _RETRIES doublings.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if radius <= 1:
        raise ValueError("truncation needs radius > 1")
    if n <= 1:
        return 1
    scale = eps.denominator.bit_length() - eps.numerator.bit_length()
    start = _GUARD + _digits(scale + (n - 1).bit_length())
    for digits in _ladder(start, "truncation order"):
        budget_lo, budget_hi = _budget(n, eps, digits)
        for K, (lo, hi) in enumerate(islice(_tails(radius, digits), 1, None), 1):
            if hi <= budget_lo:
                return K
            if lo <= budget_hi:
                break  # the intervals overlap: undecided at these digits
            if K >= _MAX_ORDER:
                raise CertificateError("truncation order did not converge")


def certified_order(
    g: Graph, dp: DeltaParams, eps: Fraction, max_degree: int | None = None
) -> tuple[int, Fraction | None, int]:
    """The plan behind a (1 +- eps) answer for G at dp.delta: the degree
    certified, the zero-free radius R and the truncation order K.

    max_degree, when given, is the degree certified, and a graph of larger
    maximum degree is refused (ValueError); otherwise G's own maximum
    degree is.  When delta = 0 or G has maximum degree <= 1 the volume has
    a closed form (approximate_volume), so no radius is needed and the
    plan is (degree, None, 0).  Otherwise R = zero_free_radius(delta,
    degree).radius and K = truncation_order(n, eps, R), which raise
    DeltaTooLargeError or CertificateError when no certificate exists.
    eps must be positive in every case.  approximate_volume and
    `forestvol coeffs --eps` both take their K from here.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    actual = g.max_degree()
    if max_degree is not None and actual > max_degree:
        raise ValueError(
            f"graph has maximum degree {actual} > requested bound {max_degree}"
        )
    degree = actual if max_degree is None else max_degree
    if dp.delta == 0 or actual <= 1:
        return degree, None, 0
    radius = zero_free_radius(dp.delta, degree).radius
    return degree, radius, truncation_order(g.n, eps, radius)


def _mp_prec() -> int:
    """mpmath's working precision mp.prec if a caller has loaded mpmath,
    else its default 53: the bits lower and upper are rounded to."""
    mpmath = sys.modules.get("mpmath")
    return 53 if mpmath is None else mpmath.mp.prec


def _enclose(
    n: int, box: Fraction, total: Fraction, radius: Fraction, K: int, bits: int
) -> tuple[Fraction, Fraction, Fraction]:
    """box^n * exp(S - T), box^n * exp(S + T) and box^n * exp(S), with S =
    total and T = (n-1) * sum_{k>K} R^-k / k, the first two rounded to
    nearest at `bits` bits and the last at _XI_BITS.  Each is enclosed
    with digits enough for its rounding and _GUARD more, and all three are
    enclosed again with twice the digits while the two ends of an enclosure
    round apart."""
    magnitude = abs(total.numerator).bit_length() - total.denominator.bit_length()
    start = _GUARD + _digits(max(bits, _XI_BITS) + max(n.bit_length(), magnitude))
    for digits in _ladder(start, "rounding the bounds"):
        down, up = _contexts(digits)
        box_lo, box_hi = _power(_frac(box, digits), n, digits)
        s_lo, s_hi = _frac(total, digits)
        t_lo, t_hi = _scaled_tail(n, radius, K, digits)
        out = []
        for exponent, prec in (
            ((down.subtract(s_lo, t_hi), up.subtract(s_hi, t_lo)), bits),
            ((down.add(s_lo, t_lo), up.add(s_hi, t_hi)), bits),
            ((s_lo, s_hi), _XI_BITS),
        ):
            exp_lo, exp_hi = _exp(exponent, digits)
            lo = _round(*down.multiply(box_lo, exp_lo).as_integer_ratio(), prec)
            if lo != _round(*up.multiply(box_hi, exp_hi).as_integer_ratio(), prec):
                break
            out.append(lo)
        else:
            return tuple(out)


class InterpolationResult(Record):
    __slots__ = (
        "n", "m", "delta", "eps", "degree", "exact", "radius",
        "K", "a", "xi", "lower", "upper", "wall_ms",
    )

    def __init__(
        self,
        n: int,
        m: int,
        delta: Fraction,
        eps: Fraction,
        degree: int,
        exact: bool,
        radius: Fraction | None,
        K: int,
        a: tuple[Fraction, ...],
        xi: Fraction,
        lower: Fraction,
        upper: Fraction,
        wall_ms: float,
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "wall_ms", wall_ms)


def approximate_volume(
    g: Graph,
    delta: Fraction,
    eps: Fraction,
    max_degree: int | None = None,
) -> InterpolationResult:
    """Volume of the truncated polytope within a factor (1 +- eps).

    certified_order(g, dp, eps, max_degree) decides the degree, R and K;
    max_degree, when given, requests the certificate of that degree family
    and rejects denser inputs.

    Exact when that plan has no radius (delta = 0 or G has maximum degree
    <= 1): then
        lower = upper = box^(n - 2m) * (box^2 - 2 delta^2)^m,  box = 1/2 + delta.
    A graph of maximum degree <= 1 is m disjoint edges, each contributing
    box^2 - 2 delta^2 (the square less its corner x_u + x_v > 1, a
    triangle of legs 2 delta), and n - 2m isolated vertices of box each,
    so an edgeless graph is just the case m = 0.  At delta = 0 every
    factor is a power of 1/2 and the product is (1/2)^n for any graph;
    the exponent n - 2m may then be negative, which Fraction keeps exact.

    Otherwise it takes the first K coefficients of log p
    (coeffs.assemble_a), which come from the connected sets of at
    most K+1 vertices, or from G whole when n <= 2K.  Their delta-free
    table is kept for the last graph asked, so a sweep over delta on one
    graph expands it once: a later point whose K is no larger only
    evaluates the table.  The certificate's constants (the bounds on e,
    delta_max and the radius condition's right-hand side per degree, the
    budget log(1+eps)/(n-1) per (n, eps), log(R/(R-1)) per R) are likewise
    computed once; the exact radius re-check runs on every call.
    assemble_a raises SizeGuardError before any enumeration when K is too
    large for G (coeffs.guard_order).

    With S the sum of the a_k and T the tail (n-1) * sum_{k>K} R^-k / k,
    lower and upper are box^n * exp(S - T) and box^n * exp(S + T) rounded
    to nearest, ties to even, at mpmath's working precision mp.prec when a
    caller has loaded mpmath and at 53 bits otherwise (_enclose).  That is
    the rounding the answers have always had, so they are exact dyadic
    rationals that can lie just inside the true interval (ROADMAP); the
    volume lies in [lower, upper] through the slack between T and the
    true remainder of log p.  xi is box^n * exp(S) rounded to nearest at
    53 bits, a Fraction; in the exact case it is lower so rounded.
    """
    t0 = time.monotonic()
    dp = DeltaParams(delta)
    delta = dp.delta
    degree, radius, K = certified_order(g, dp, eps, max_degree)
    box = dp.box_hi
    exact = radius is None
    if exact:
        a = ()
        lower = upper = box ** (g.n - 2 * g.m) * (box**2 - 2 * delta**2) ** g.m
        xi = _round(lower.numerator, lower.denominator, _XI_BITS)
    else:
        a = tuple(assemble_a(g, dp, K).a[1:])
        total = sum(a, Fraction(0))
        lower, upper, xi = _enclose(g.n, box, total, radius, K, _mp_prec())
    return InterpolationResult(
        n=g.n,
        m=g.m,
        delta=delta,
        eps=Fraction(eps),
        degree=degree,
        exact=exact,
        radius=radius,
        K=K,
        a=a,
        xi=xi,
        lower=lower,
        upper=upper,
        wall_ms=(time.monotonic() - t0) * 1000,
    )
