"""Certified volume approximation via Taylor interpolation of log p.

The forest partition function p of a max-degree-Delta graph is nonzero on a
disk of radius R = (1 - 1/Delta) / (4 e Delta delta), up to a safety factor.
Truncating log p at order K with all roots outside R bounds the dropped tail
by (n-1) * sum_{k>K} R^-k / k, so choosing the minimal K that pushes the
tail below ln(1+eps) yields a multiplicative (1 +- eps) guarantee.

Coefficients are exact rationals end to end; only the final exponential is
evaluated in outward-rounded interval arithmetic, and the returned bounds
are exact dyadic rationals taken from the interval endpoints.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Iterator

import mpmath
from mpmath import iv

from .coeffs import assemble_a
from .errors import CertificateError, DeltaTooLargeError
from .graphs import Graph
from .treeweight import DeltaParams

_SAFETY = Fraction((1 << 20) - 1, 1 << 20)
_E_BITS = 48
_MAX_ORDER = 1_000_000  # truncation_order gives up beyond this K


@functools.cache
def _e_bounds() -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds on e, tight to 2^-_E_BITS; computed once."""
    with mpmath.workprec(_E_BITS + 64):
        scaled = mpmath.e * (1 << _E_BITS)
        lo = int(mpmath.floor(scaled))
    return Fraction(lo, 1 << _E_BITS), Fraction(lo + 1, 1 << _E_BITS)


def _iv_frac(q: Fraction):
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


@contextmanager
def _iv_prec(bits: int) -> Iterator[None]:
    """Run the block with the interval context at `bits` of precision."""
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def _tails(radius: Fraction) -> Iterator:
    """Intervals enclosing sum_{k>K} R^-k / k = -log(1 - 1/R) - sum_{k<=K}
    R^-k / k for K = 0, 1, 2, ..., at the current interval precision."""
    rinv = 1 / _iv_frac(radius)
    tail = -iv.log(1 - rinv)
    term = iv.mpf(1)
    for k in count(1):
        yield tail
        term = term * rinv
        tail = tail - term / k


@dataclass(frozen=True)
class RadiusCertificate:
    delta: Fraction
    degree: int
    radius: Fraction
    witness_a: Fraction
    safety: Fraction


@functools.lru_cache(maxsize=64)
def _radius_rhs(witness: Fraction, max_degree: int):
    """Lower endpoint, at 160 bits, of the interval enclosing the radius
    condition's right-hand side log(a) * (1 - 1/Delta) / (a * Delta) at the
    witness a.  zero_free_radius always takes a = e_lo, so this is computed
    once per degree."""
    with _iv_prec(160):
        av = _iv_frac(witness)
        rhs = iv.log(av) * _iv_frac(Fraction(max_degree - 1, max_degree)) / (
            av * max_degree
        )
        return rhs.a


def max_admissible_delta(max_degree: int) -> Fraction:
    """Largest delta for which zero_free_radius can exceed 1 at this degree."""
    if max_degree < 2:
        raise ValueError("certificate requires max degree >= 2")
    _, e_hi = _e_bounds()
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
    with _iv_prec(160):
        lhs = 4 * _iv_frac(delta) * _iv_frac(radius)
        if not lhs.b <= _radius_rhs(e_lo, max_degree):
            raise CertificateError("interval verification of the radius failed")
    return RadiusCertificate(
        delta=delta,
        degree=max_degree,
        radius=radius,
        witness_a=e_lo,
        safety=_SAFETY,
    )


def _frac_from_mpf(x: mpmath.mpf) -> Fraction:
    """Exact rational value of a finite mpf (mpfs are dyadic)."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ValueError("non-finite value")
    val = Fraction(man) * Fraction(2) ** exp
    return -val if sign else val


def tail_bound(n: int, radius: Fraction, K: int) -> Fraction:
    """Rational upper bound on (n-1) * sum_{k>K} R^-k / k."""
    if radius <= 1:
        raise ValueError("tail bound needs radius > 1")
    if n <= 1 or K < 0:
        return Fraction(0)
    with _iv_prec(160):
        tail = next(islice(_tails(radius), K, None)) * (n - 1)
        return max(_frac_from_mpf(mpmath.mpf(tail.b)), Fraction(0))


def truncation_order(n: int, eps: Fraction, radius: Fraction) -> int:
    """Minimal K >= 1 with (n-1) * sum_{k>K} R^-k / k <= ln(1+eps).

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
    with _iv_prec(160):
        budget = iv.log(1 + _iv_frac(eps)) / (n - 1)
        prev = None
        for K, tail in enumerate(_tails(radius)):
            if K >= 1 and tail.b <= budget.a:
                return K
            if prev is not None and tail.b >= prev:
                raise CertificateError(
                    f"truncation order: the tail bound stopped falling at K={K}, "
                    f"above the budget for eps={eps}; 160-bit interval "
                    f"arithmetic cannot certify an eps this small, raise eps"
                )
            if K > _MAX_ORDER:
                raise CertificateError("truncation order did not converge")
            prev = tail.b


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

    max_degree, when given, requests the certificate of that degree family
    and rejects denser inputs.

    Exact when delta = 0 or G has maximum degree <= 1: then
        lower = upper = box^(n - 2m) * (box^2 - 2 delta^2)^m,  box = 1/2 + delta.
    A graph of maximum degree <= 1 is m disjoint edges, each contributing
    box^2 - 2 delta^2 (the square less its corner x_u + x_v > 1, a
    triangle of legs 2 delta), and n - 2m isolated vertices of box each,
    so an edgeless graph is just the case m = 0.  At delta = 0 every
    factor is a power of 1/2 and the product is (1/2)^n for any graph;
    the exponent n - 2m may then be negative, which Fraction keeps exact.

    Otherwise it runs the certificate (zero_free_radius), the least
    truncation order K (truncation_order) and the first K coefficients of
    log p (coeffs.assemble_a), which come from the connected sets of at
    most K+1 vertices, or from G whole when n <= 2K.  Their delta-free
    table is kept for the last graph asked, so a sweep over delta on one
    graph expands it once: a later point whose K is no larger only
    evaluates the table.  The certificate's constants (the bounds on e,
    and the radius condition's right-hand side per degree) are likewise
    computed once; the interval re-check runs on every call.  assemble_a
    raises SizeGuardError before any enumeration when K is too large for
    G (coeffs.guard_order).
    """
    t0 = time.monotonic()
    dp = DeltaParams(delta)
    delta = dp.delta
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    actual = g.max_degree()
    if max_degree is not None and actual > max_degree:
        raise ValueError(
            f"graph has maximum degree {actual} > requested bound {max_degree}"
        )
    degree = actual if max_degree is None else max_degree
    box = dp.box_hi
    exact = delta == 0 or actual <= 1
    if exact:
        radius, K, a = None, 0, ()
        lower = upper = box ** (g.n - 2 * g.m) * (box**2 - 2 * delta**2) ** g.m
        with mpmath.workprec(96):
            xi = mpmath.mpf(lower.numerator) / lower.denominator
    else:
        radius = zero_free_radius(delta, degree).radius
        K = truncation_order(g.n, eps, radius)
        a = tuple(assemble_a(g, dp, K).a[1:])
        total = sum(a, Fraction(0))
        with _iv_prec(192):
            tail = next(islice(_tails(radius), K, None)) * (g.n - 1)
            # outer endpoints of s +- tail enclose [S - T_true, S + T_true]
            box_iv = _iv_frac(box) ** g.n
            s_iv = _iv_frac(total)
            lower = _frac_from_mpf(mpmath.mpf((box_iv * iv.exp(s_iv - tail)).a))
            upper = _frac_from_mpf(mpmath.mpf((box_iv * iv.exp(s_iv + tail)).b))
        with mpmath.workprec(192):
            xi = (mpmath.mpf(box.numerator) / box.denominator) ** g.n * mpmath.exp(
                mpmath.mpf(total.numerator) / total.denominator
            )
    return InterpolationResult(
        n=g.n,
        m=g.m,
        delta=delta,
        eps=eps,
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
