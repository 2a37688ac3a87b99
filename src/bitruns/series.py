"""Exact truncated power series and rational generating functions.

All coefficients are arbitrary-precision Python integers; no floating
point enters this module.  A rational GF keeps its numerator and
denominator as sparse terms: tuples of (exponent, coefficient) pairs
with increasing exponents and no zero coefficient.  The dense
coefficient tuples, constant term first, are built on demand.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import NonUnitConstantTerm

Poly = tuple  # dense integer coefficient vector, constant term first
Terms = tuple  # sparse ((exponent, coefficient), ...), exponents increasing


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


def _dense(t: Terms) -> Poly:
    if not t:
        return (0,)
    out = [0] * (t[-1][0] + 1)
    for e, c in t:
        out[e] = c
    return tuple(out)


class TruncatedSeries:
    """A power series known exactly through z^order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0] * (order + 1))

    @classmethod
    def from_poly(cls, p: Sequence[int], order: int) -> "TruncatedSeries":
        return cls(list(p[: order + 1]) + [0] * (order + 1 - len(p)))

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(
            a - b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])
        )

    def scale(self, c: int) -> "TruncatedSeries":
        return TruncatedSeries(c * x for x in self.coeffs)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, x in enumerate(self.coeffs[: n + 1]):
            if x:
                for j, y in enumerate(other.coeffs[: n + 1 - i]):
                    out[i + j] += x * y
        return TruncatedSeries(out)


class RationalGF:
    """Ratio of two integer polynomials, expandable at z=0.

    Built from dense coefficient sequences, or from sparse terms with
    ``from_terms``; either way only the nonzero terms are stored.
    """

    __slots__ = ("num_terms", "den_terms")

    def __init__(self, numerator: Iterable[int], denominator: Iterable[int]):
        self._set(dense_terms(numerator), dense_terms(denominator))

    @classmethod
    def from_terms(cls, numerator: Iterable[tuple], denominator: Iterable[tuple]) -> "RationalGF":
        gf = cls.__new__(cls)
        gf._set(terms(numerator), terms(denominator))
        return gf

    @classmethod
    def from_sums(cls, numerator: dict, denominator: dict) -> "RationalGF":
        """From dicts of exponent to coefficient; zero entries are dropped."""
        gf = cls.__new__(cls)
        gf._set(merged(numerator), merged(denominator))
        return gf

    def _set(self, num: Terms, den: Terms) -> None:
        if not den or den[0][0] != 0:
            raise ValueError("denominator constant term must be nonzero")
        if num and num[0][0] < 0:
            raise ValueError("a power series has no negative exponents")
        self.num_terms = num
        self.den_terms = den

    @property
    def numerator(self) -> Poly:
        return _dense(self.num_terms)

    @property
    def denominator(self) -> Poly:
        return _dense(self.den_terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalGF)
            and self.num_terms == other.num_terms
            and self.den_terms == other.den_terms
        )

    def __hash__(self):
        return hash((self.num_terms, self.den_terms))

    def __repr__(self) -> str:
        return f"RationalGF({list(self.numerator)!r}, {list(self.denominator)!r})"

    def expand(self, order: int) -> TruncatedSeries:
        return gf_expand(self, order)


def valuation(f: RationalGF, g: RationalGF):
    """Exponent of the lowest nonzero term of f - g; math.inf if f == g.

    The expansions of f and g agree exactly below it, and differ there.
    f - g = (N_f D_g - N_g D_f) / (D_f D_g), and D_f D_g has a nonzero
    constant term, so the valuation is that of the sparse cross product.
    """
    diff: dict = {}
    get = diff.get
    for e1, c1 in f.num_terms:
        for e2, c2 in g.den_terms:
            e = e1 + e2
            diff[e] = get(e, 0) + c1 * c2
    for e1, c1 in g.num_terms:
        for e2, c2 in f.den_terms:
            e = e1 + e2
            diff[e] = get(e, 0) - c1 * c2
    return min((e for e, c in diff.items() if c), default=math.inf)


def gf_expand(gf: RationalGF, order: int, prefix: Sequence[int] = ()) -> TruncatedSeries:
    """Exact coefficients c_0..c_order of gf's power-series expansion.

    Uses the linear recurrence induced by the denominator:
    d_0 c_n = num_n - sum_{m>=1} d_m c_{n-m}.  Requires d_0 in {-1, +1}
    so that every coefficient stays an exact integer.

    The recurrence continues after `prefix`, which must hold gf's own
    leading coefficients.  For another GF g, up to valuation(gf, g)
    leading coefficients of g's expansion qualify, and no more.
    """
    if order < 0:
        raise ValueError(f"expansion order must be nonnegative, got {order}")
    if len(prefix) > order + 1:
        raise ValueError(f"a prefix of {len(prefix)} coefficients exceeds order {order}")
    (_, d0), *tail = gf.den_terms
    if d0 not in (1, -1):
        raise NonUnitConstantTerm(
            f"denominator constant term {d0} is not a unit; cannot expand exactly"
        )
    c = list(prefix)
    start = len(c)
    num = {e: a for e, a in gf.num_terms if e >= start}
    for n in range(start, order + 1):
        s = num.get(n, 0)
        for m, d in tail:
            if m > n:
                break
            s -= d * c[n - m]
        c.append(s if d0 == 1 else -s)
    return TruncatedSeries(c)
