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

import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Iterator

import mpmath
from mpmath import iv

from .canon import MAX_VERTICES
from .coeffs import TaylorCoeffs, assemble_a
from .errors import CertificateError, DeltaTooLargeError, SizeGuardError
from .graphs import Graph
from .treeweight import DeltaParams

_SAFETY = Fraction((1 << 20) - 1, 1 << 20)
_E_BITS = 48
_MAX_ORDER = 1_000_000  # truncation_order gives up beyond this K


def _e_bounds() -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds on e, tight to 2^-_E_BITS."""
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


def max_admissible_delta(max_degree: int) -> Fraction:
    """Largest delta for which zero_free_radius can exceed 1 at this degree."""
    if max_degree < 2:
        raise ValueError("certificate requires max degree >= 2")
    _, e_hi = _e_bounds()
    return Fraction(max_degree - 1, max_degree) * _SAFETY / (4 * e_hi * max_degree)


def zero_free_radius(delta: Fraction, max_degree: int) -> RadiusCertificate:
    """Certified zero-free disk radius R > 1 for the family of graphs with
    maximum degree <= max_degree at truncation delta.

    The returned radius is re-verified in outward-rounded interval
    arithmetic against the sufficient condition
        4 * delta * R <= log(a) * (1 - 1/Delta) / (a * Delta)
    with a rational witness a < e.  Raises DeltaTooLargeError when no radius
    above 1 is certifiable, and CertificateError when the interval re-check
    fails.
    """
    delta = Fraction(delta)
    if max_degree < 2:
        raise ValueError("certificate requires max degree >= 2")
    if not (0 < delta < Fraction(1, 2)):
        raise ValueError("certificate requires delta in (0, 1/2)")
    e_lo, e_hi = _e_bounds()
    frac = Fraction(max_degree - 1, max_degree)
    radius = frac * _SAFETY / (4 * e_hi * max_degree * delta)
    if radius <= 1:
        raise DeltaTooLargeError(delta, max_degree, max_admissible_delta(max_degree))
    witness = e_lo
    with _iv_prec(160):
        lhs = 4 * _iv_frac(delta) * _iv_frac(radius)
        av = _iv_frac(witness)
        rhs = iv.log(av) * _iv_frac(frac) / (av * max_degree)
        if not lhs.b <= rhs.a:
            raise CertificateError("interval verification of the radius failed")
    return RadiusCertificate(
        delta=delta,
        degree=max_degree,
        radius=radius,
        witness_a=witness,
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

    Raises CertificateError when no K up to _MAX_ORDER meets the budget.
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
        for K, tail in enumerate(_tails(radius)):
            if K >= 1 and tail.b <= budget.a:
                return K
            if K > _MAX_ORDER:
                raise CertificateError("truncation order did not converge")


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

    Exact for edgeless graphs, delta = 0, and graphs of maximum degree <= 1;
    otherwise runs the certificate + truncated-series pipeline.  max_degree,
    when given, requests the certificate of that degree family and rejects
    denser inputs.  Raises SizeGuardError before any enumeration when the
    largest pattern, min(2K, n) vertices, exceeds the canonical-form cap.
    """
    t0 = time.monotonic()
    delta = Fraction(delta)
    eps = Fraction(eps)
    if not (0 <= delta < Fraction(1, 2)):
        raise ValueError("delta must lie in [0, 1/2)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    actual = g.max_degree()
    if max_degree is not None:
        if actual > max_degree:
            raise ValueError(
                f"graph has maximum degree {actual} > requested bound {max_degree}"
            )
        degree = max_degree
    else:
        degree = actual
    box = Fraction(1, 2) + delta

    exact_val: Fraction | None = None
    if g.m == 0 or delta == 0:
        exact_val = box**g.n if g.m == 0 else Fraction(1, 2) ** g.n
    elif actual <= 1:
        exact_val = Fraction(1)
        for comp in g.components():
            if comp.bit_count() == 1:
                exact_val *= box
            else:
                exact_val *= box**2 - 2 * delta**2
    if exact_val is not None:
        with mpmath.workprec(96):
            xi = mpmath.mpf(exact_val.numerator) / exact_val.denominator
        return InterpolationResult(
            n=g.n,
            m=g.m,
            delta=delta,
            eps=eps,
            degree=degree,
            exact=True,
            radius=None,
            K=0,
            a=(),
            xi=xi,
            lower=exact_val,
            upper=exact_val,
            wall_ms=(time.monotonic() - t0) * 1000,
        )

    cert = zero_free_radius(delta, degree)
    K = truncation_order(g.n, eps, cert.radius)
    if min(2 * K, g.n) > MAX_VERTICES:
        raise SizeGuardError(
            f"truncation order K={K} needs patterns of up to {2 * K} vertices; "
            f"canonical labelling is capped at {MAX_VERTICES} (K <= "
            f"{MAX_VERTICES // 2}); raise eps or lower delta"
        )
    coeffs = assemble_a(g, DeltaParams(delta), K)
    total = sum(coeffs.a, Fraction(0))

    with _iv_prec(192):
        tail = next(islice(_tails(cert.radius), K, None)) * max(g.n - 1, 0)
        # outer endpoints of s +- tail enclose [S - T_true, S + T_true]
        box_iv = _iv_frac(box) ** g.n
        s_iv = _iv_frac(total)
        lower_iv = box_iv * iv.exp(s_iv - tail)
        upper_iv = box_iv * iv.exp(s_iv + tail)
        lower = _frac_from_mpf(mpmath.mpf(lower_iv.a))
        upper = _frac_from_mpf(mpmath.mpf(upper_iv.b))
    with mpmath.workprec(192):
        xi = (
            mpmath.mpf(box.numerator)
            / box.denominator
        ) ** g.n * mpmath.exp(mpmath.mpf(total.numerator) / total.denominator)
    return InterpolationResult(
        n=g.n,
        m=g.m,
        delta=delta,
        eps=eps,
        degree=degree,
        exact=False,
        radius=cert.radius,
        K=K,
        a=tuple(coeffs.a[1:]),
        xi=xi,
        lower=lower,
        upper=upper,
        wall_ms=(time.monotonic() - t0) * 1000,
    )
