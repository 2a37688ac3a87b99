"""Exact power series of rational generating functions.

All coefficients are arbitrary-precision Python integers; no floating
point enters this module.  A rational GF keeps its numerator and
denominator as sparse terms: tuples of (exponent, coefficient) pairs
with increasing exponents and no zero coefficient.  An expansion is a
plain tuple of coefficients, constant term first.  Every expansion in
the package runs one recurrence, ``divide``: ``RationalGF.expand`` and
the cap sum of ``bitruns.moments`` both call it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import NonUnitConstantTerm

Poly = tuple  # dense integer coefficient vector, constant term first
Terms = tuple  # sparse ((exponent, coefficient), ...), exponents increasing
# an expansion, z^0..z^order; the name stays, bench/traced.py reads it unguarded
TruncatedSeries = tuple


def terms(pairs: Iterable[tuple]) -> Terms:
    """Normalize (exponent, coefficient) pairs: equal exponents are
    merged, zero coefficients dropped and exponents sorted."""
    acc: dict = {}
    get = acc.get
    for e, c in pairs:
        acc[e] = get(e, 0) + c
    return merged(acc)


def merged(acc: dict) -> Terms:
    """The sparse terms of a dict from exponent to coefficient."""
    return tuple(sorted(t for t in acc.items() if t[1]))


def dense_terms(coeffs: Iterable[int]) -> Terms:
    """The sparse terms of a dense coefficient sequence."""
    return tuple((e, c) for e, c in enumerate(coeffs) if c)


def terms_mul(*factors: Terms) -> Terms:
    """Product of sparse polynomials."""
    out: Terms = ((0, 1),)
    for f in factors:
        out = terms((e1 + e2, c1 * c2) for e1, c1 in out for e2, c2 in f)
    return out


def divide(src: Sequence[int], den: Terms, length: int) -> list:
    """Coefficients z^0..z^(length-1) of src / den, for the dense src and
    the sparse den with constant term 1: the linear recurrence
    c_n = src_n - sum_{m>=1} d_m c_(n-m), over a zero pad that stands
    for the coefficients below z^0."""
    tail = [(f, -d) for f, d in den[1:]]
    pad = den[-1][0]
    out = [0] * (pad + length)
    head = src[:length]
    out[pad : pad + len(head)] = head
    for i in range(pad, pad + length):
        s = out[i]
        for f, d in tail:
            s += d * out[i - f]
        out[i] = s
    return out[pad:]


class RationalGF:
    """Ratio of two integer polynomials, expandable at z=0, built from
    sparse (exponent, coefficient) pairs in any order; only the nonzero
    terms are stored."""

    __slots__ = ("num_terms", "den_terms")

    def __init__(self, numerator: Iterable[tuple], denominator: Iterable[tuple]):
        num, den = terms(numerator), terms(denominator)
        if not den or den[0][0] != 0:
            raise ValueError("denominator constant term must be nonzero")
        if num and num[0][0] < 0:
            raise ValueError("a power series has no negative exponents")
        self.num_terms = num
        self.den_terms = den

    @property
    def denominator(self) -> Poly:
        out = [0] * (self.den_terms[-1][0] + 1)
        for e, c in self.den_terms:
            out[e] = c
        return tuple(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalGF)
            and self.num_terms == other.num_terms
            and self.den_terms == other.den_terms
        )

    def __hash__(self):
        return hash((self.num_terms, self.den_terms))

    def __repr__(self) -> str:
        return f"RationalGF({self.num_terms!r}, {self.den_terms!r})"

    def expand(self, order: int) -> TruncatedSeries:
        """Exact coefficients c_0..c_order of the power-series expansion.
        The denominator's constant term must be 1 or -1, so that every
        coefficient stays an exact integer."""
        if order < 0:
            raise ValueError(f"expansion order must be nonnegative, got {order}")
        num, den = self.num_terms, self.den_terms
        d0 = den[0][1]
        if d0 == -1:
            num = tuple((e, -c) for e, c in num)
            den = tuple((e, -c) for e, c in den)
        elif d0 != 1:
            raise NonUnitConstantTerm(
                f"denominator constant term {d0} is not a unit; cannot expand exactly"
            )
        src = [0] * (order + 1)
        for e, c in num:
            if e > order:
                break
            src[e] = c
        return tuple(divide(src, den, order + 1))
