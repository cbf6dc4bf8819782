"""Certified volume approximation via Taylor interpolation of log p.

The forest partition function p of a max-degree-Delta graph is nonzero on a
disk of radius R = (1 - 1/Delta) / (4 e Delta delta), up to a safety factor.
Truncating log p at order K with all roots outside R bounds the dropped tail
by (n-1) * sum_{k>K} R^-k / k, so choosing the minimal K that pushes the
tail below ln(1+eps) yields a multiplicative (1 +- eps) guarantee.

Coefficients are exact rationals end to end.  The radius re-check, the
truncation order and the final exponential are evaluated in outward-rounded
interval arithmetic on mpmath.libmp interval tuples (lo, hi), each at an
explicit precision: 160 bits for the radius and K, 192 bits for the
enclosure of the answer.  No global interval precision is read or set.  The
steps are the libmp functions mpmath.iv dispatches to, with the operands
mpmath.iv would build, so every endpoint matches an mpmath.iv evaluation at
that precision bit for bit.  The returned bounds are the 192-bit
enclosure's endpoints rounded to nearest at mpmath's global working
precision (mp.prec, 53 bits by default) by libmp.normalize, as
mpmath.mpf(endpoint) rounds them, so they can lie inside that enclosure
(see approximate_volume).  The point estimate xi is likewise built from
libmp mpf functions at 192 bits, rounded to nearest, and wrapped as an
mpmath.mpf once.  The rational bounds on e are literals, so no high-level
mpmath function (mpmath.e, mpmath.mpf arithmetic, workprec) runs on the
answer path.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Iterator

import mpmath
from mpmath.libmp import (
    from_int,
    mpf_div,
    mpf_exp,
    mpf_le,
    mpf_mul,
    mpf_pow_int,
    mpi_add,
    mpi_div,
    mpi_exp,
    mpi_log,
    mpi_mul,
    mpi_neg,
    mpi_pow,
    mpi_sub,
    normalize,
    round_ceiling,
    round_floor,
    round_nearest,
)

from .coeffs import assemble_a
from .errors import CertificateError, DeltaTooLargeError
from .graphs import Graph
from .treeweight import DeltaParams

_SAFETY = Fraction((1 << 20) - 1, 1 << 20)
_E_BITS = 48
_MAX_ORDER = 1_000_000  # truncation_order gives up beyond this K
_CERT_PREC = 160  # bits of the radius re-check and the truncation order
_ENCLOSURE_PREC = 192  # bits of the tail, power and exponential of the answer

# An interval is a pair (lo, hi) of libmp mpf tuples with lo <= hi.


_E_BOUNDS = (
    Fraction(765128314358509, 1 << _E_BITS),
    Fraction(765128314358510, 1 << _E_BITS),
)


def _e_bounds() -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds on e, tight to 2^-_E_BITS: floor(e *
    2^_E_BITS) and one more, over 2^_E_BITS.  The tests derive the floor
    from an integer series and check it at 256 bits with mpmath."""
    return _E_BOUNDS


def _iv_int(x: int, prec: int) -> tuple:
    """The integer x as an interval at prec bits, rounded outward as
    mpmath.iv converts an int."""
    return from_int(x, prec, round_floor), from_int(x, prec, round_ceiling)


def _iv_frac(q: Fraction, prec: int) -> tuple:
    """An interval at prec bits enclosing q: its numerator over its
    denominator."""
    return mpi_div(_iv_int(q.numerator, prec), _iv_int(q.denominator, prec), prec)


def _tails(radius: Fraction, prec: int) -> Iterator[tuple]:
    """Intervals enclosing sum_{k>K} R^-k / k = -log(1 - 1/R) - sum_{k<=K}
    R^-k / k for K = 0, 1, 2, ..., at prec bits."""
    one = _iv_int(1, prec)
    rinv = mpi_div(one, _iv_frac(radius, prec), prec)
    tail = mpi_neg(mpi_log(mpi_sub(one, rinv, prec), prec), prec)
    term = one
    for k in count(1):
        yield tail
        term = mpi_mul(term, rinv, prec)
        tail = mpi_sub(tail, mpi_div(term, _iv_int(k, prec), prec), prec)


def _scaled_tail(n: int, radius: Fraction, K: int, prec: int) -> tuple:
    """An interval at prec bits enclosing (n-1) * sum_{k>K} R^-k / k."""
    tail = next(islice(_tails(radius, prec), K, None))
    return mpi_mul(tail, _iv_int(n - 1, prec), prec)


@dataclass(frozen=True)
class RadiusCertificate:
    delta: Fraction
    degree: int
    radius: Fraction
    witness_a: Fraction
    safety: Fraction


@functools.lru_cache(maxsize=64)
def _radius_rhs(witness: Fraction, max_degree: int) -> tuple:
    """Lower endpoint, at 160 bits, of the interval enclosing the radius
    condition's right-hand side log(a) * (1 - 1/Delta) / (a * Delta) at the
    witness a, as a libmp mpf.  zero_free_radius always takes a = e_lo, so
    this is computed once per degree."""
    p = _CERT_PREC
    av = _iv_frac(witness, p)
    factor = _iv_frac(Fraction(max_degree - 1, max_degree), p)
    rhs = mpi_div(
        mpi_mul(mpi_log(av, p), factor, p), mpi_mul(av, _iv_int(max_degree, p), p), p
    )
    return rhs[0]


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
    radius is re-verified in outward-rounded interval arithmetic against
    the sufficient condition
        4 * delta * R <= log(a) * (1 - 1/Delta) / (a * Delta)
    with a rational witness a < e.  Raises ValueError when max_degree < 2
    or delta is outside (0, 1/2), DeltaTooLargeError when no radius above
    1 is certifiable, and CertificateError when the interval re-check
    fails.
    """
    delta = Fraction(delta)
    delta_max = max_admissible_delta(max_degree)
    if not (0 < delta < Fraction(1, 2)):
        raise ValueError("certificate requires delta in (0, 1/2)")
    radius = delta_max / delta
    if radius <= 1:
        raise DeltaTooLargeError(delta, max_degree, delta_max)
    e_lo, _ = _e_bounds()
    p = _CERT_PREC
    lhs = mpi_mul(
        mpi_mul(_iv_int(4, p), _iv_frac(delta, p), p), _iv_frac(radius, p), p
    )
    if not mpf_le(lhs[1], _radius_rhs(e_lo, max_degree)):
        raise CertificateError("interval verification of the radius failed")
    return RadiusCertificate(
        delta=delta,
        degree=max_degree,
        radius=radius,
        witness_a=e_lo,
        safety=_SAFETY,
    )


def _frac_from_mpf(x: tuple) -> Fraction:
    """Exact rational value of a finite libmp mpf tuple (mpfs are dyadic)."""
    sign, man, exp, _ = x
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ValueError("non-finite value")
    val = Fraction(man) * Fraction(2) ** exp
    return -val if sign else val


def _ratio(q: Fraction, prec: int) -> tuple:
    """q as a libmp mpf rounded to nearest at prec bits, as
    mpmath.mpf(q.numerator) / q.denominator is at that working precision:
    the numerator is rounded to prec bits, then divided by the exact
    denominator."""
    return mpf_div(
        from_int(q.numerator, prec, round_nearest),
        from_int(q.denominator),
        prec,
        round_nearest,
    )


def tail_bound(n: int, radius: Fraction, K: int) -> Fraction:
    """Rational upper bound on (n-1) * sum_{k>K} R^-k / k: the exact upper
    endpoint of its 160-bit enclosure."""
    if radius <= 1:
        raise ValueError("tail bound needs radius > 1")
    if n <= 1 or K < 0:
        return Fraction(0)
    tail = _scaled_tail(n, radius, K, _CERT_PREC)
    return max(_frac_from_mpf(tail[1]), Fraction(0))


@functools.lru_cache(maxsize=64)
def _budget(n: int, eps: Fraction) -> tuple:
    """Lower endpoint, at 160 bits, of the interval enclosing
    log(1 + eps) / (n - 1), as a libmp mpf; computed once per (n, eps)."""
    p = _CERT_PREC
    log1p = mpi_log(mpi_add(_iv_int(1, p), _iv_frac(eps, p), p), p)
    return mpi_div(log1p, _iv_int(n - 1, p), p)[0]


def truncation_order(n: int, eps: Fraction, radius: Fraction) -> int:
    """Minimal K >= 1 with (n-1) * sum_{k>K} R^-k / k <= ln(1+eps).

    Both sides are enclosed at 160 bits: K is the first whose tail's upper
    endpoint is at most the lower endpoint of the budget log(1+eps)/(n-1).
    Raises CertificateError when no K up to _MAX_ORDER meets the budget,
    or as soon as a step leaves the tail's upper end where it was: the term
    subtracted has fallen below what 160 bits resolve, it only shrinks from
    there, so no later K can meet the budget either.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if radius <= 1:
        raise ValueError("truncation needs radius > 1")
    if n <= 1:
        return 1
    budget = _budget(n, eps)
    prev = None
    for K, (_, hi) in enumerate(_tails(radius, _CERT_PREC)):
        if K >= 1 and mpf_le(hi, budget):
            return K
        if prev is not None and mpf_le(prev, hi):
            raise CertificateError(
                f"truncation order: the tail bound stopped falling at K={K}, "
                f"above the budget for eps={eps}; 160-bit interval "
                f"arithmetic cannot certify an eps this small, raise eps"
            )
        if K > _MAX_ORDER:
            raise CertificateError("truncation order did not converge")
        prev = hi


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


@dataclass(frozen=True)
class InterpolationResult:
    n: int
    m: int
    delta: Fraction
    eps: Fraction
    degree: int
    exact: bool
    radius: Fraction | None
    K: int
    a: tuple[Fraction, ...]
    xi: mpmath.mpf
    lower: Fraction
    upper: Fraction
    wall_ms: float


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
    budget log(1+eps)/(n-1) per (n, eps)) are likewise computed once; the
    interval re-check runs on every call.  assemble_a raises
    SizeGuardError before any enumeration when K is too large for G
    (coeffs.guard_order).

    With S the sum of the a_k and T the tail bound, box^n * exp(S -+ T)
    is enclosed at 192 bits (_ENCLOSURE_PREC), whatever mpmath's global
    precision.  lower and upper are that enclosure's outer endpoints
    rounded to nearest at mpmath's global working precision (mp.prec, 53
    bits by default) by libmp.normalize, which is what mpmath.mpf does to
    an mpf tuple: they are exact dyadic rationals, but may lie inside the
    192-bit enclosure (ROADMAP).  xi is box^n * exp(S) at 192 bits, built
    from libmp's mpf_div, mpf_pow_int, mpf_exp and mpf_mul rounding to
    nearest, with the numerators of box and S rounded to 192 bits and
    their denominators exact, as mpmath.mpf arithmetic under workprec(192)
    evaluates it; in the exact case xi is lower at 96 bits, the same way.
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
        xi = _ratio(lower, 96)
    else:
        a = tuple(assemble_a(g, dp, K).a[1:])
        total = sum(a, Fraction(0))
        p = _ENCLOSURE_PREC
        tail = _scaled_tail(g.n, radius, K, p)
        # outer endpoints of s +- tail enclose [S - T_true, S + T_true]
        box_iv = mpi_pow(_iv_frac(box, p), _iv_int(g.n, p), p)
        s_iv = _iv_frac(total, p)
        lo = mpi_mul(box_iv, mpi_exp(mpi_sub(s_iv, tail, p), p), p)[0]
        hi = mpi_mul(box_iv, mpi_exp(mpi_add(s_iv, tail, p), p), p)[1]
        # each endpoint is rounded to nearest at mp.prec, as mpmath.mpf(lo)
        # would, which can move it inward; kept, since every recorded answer
        # has it (ROADMAP)
        prec = mpmath.mp.prec
        lower = _frac_from_mpf(normalize(*lo, prec, round_nearest))
        upper = _frac_from_mpf(normalize(*hi, prec, round_nearest))
        xi = mpf_mul(
            mpf_pow_int(_ratio(box, p), g.n, p, round_nearest),
            mpf_exp(_ratio(total, p), p, round_nearest),
            p,
            round_nearest,
        )
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
        xi=mpmath.mp.make_mpf(xi),
        lower=lower,
        upper=upper,
        wall_ms=(time.monotonic() - t0) * 1000,
    )
