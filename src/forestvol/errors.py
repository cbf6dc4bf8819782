"""Exception types shared across the package."""

from __future__ import annotations

from fractions import Fraction


class GraphParseError(ValueError):
    """Raised on malformed edge-list input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


class DeltaTooLargeError(ValueError):
    """The zero-free certificate fails (radius <= 1) for this (delta, Delta).

    delta_max is the largest delta for which the certificate can succeed at
    this maximum degree, i.e. the solution of R(delta, Delta) = 1.
    """

    def __init__(self, delta: Fraction, degree: int, delta_max: Fraction):
        super().__init__(
            f"no zero-free disk of radius > 1 for delta={delta} at max degree "
            f"{degree}; need delta < {delta_max} (~{float(delta_max):.6g})"
        )
        self.delta = delta
        self.degree = degree
        self.delta_max = delta_max


class SizeGuardError(ValueError):
    """An exact/enumerative routine was asked to exceed its size cap."""


class CertificateError(Exception):
    """A step of the certificate could not be verified or did not terminate:
    the interval re-check of the zero-free radius failed, or no truncation
    order met the accuracy budget.  Not a ValueError: the inputs were
    accepted, and the certificate machinery is what fell short.
    """
