"""Exact truncated power series and rational generating functions.

All coefficients are arbitrary-precision Python integers; no floating
point enters this module.  Polynomials are dense coefficient tuples with
the constant term first.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import NonUnitConstantTerm

Poly = tuple  # dense integer coefficient vector, constant term first


def poly(coeffs: Iterable[int]) -> Poly:
    """Normalize a coefficient iterable into a trimmed tuple."""
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def monomial(k: int, coeff: int = 1) -> Poly:
    return poly([0] * k + [coeff])


def poly_add(*ps: Sequence[int]) -> Poly:
    out = [0] * max(len(p) for p in ps)
    for p in ps:
        for i, c in enumerate(p):
            out[i] += c
    return poly(out)


def poly_scale(p: Sequence[int], c: int) -> Poly:
    return poly(c * x for x in p)


def poly_mul(a: Sequence[int], b: Sequence[int]) -> Poly:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly(out)


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
    """Ratio of two integer polynomials, expandable at z=0."""

    __slots__ = ("numerator", "denominator", "_den_terms")

    def __init__(self, numerator: Iterable[int], denominator: Iterable[int]):
        self.numerator = poly(numerator)
        self.denominator = poly(denominator)
        if self.denominator[0] == 0:
            raise ValueError("denominator constant term must be nonzero")
        # sparse view of the denominator tail, used by the expansion recurrence
        self._den_terms = tuple(
            (m, c) for m, c in enumerate(self.denominator) if m > 0 and c
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalGF)
            and self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __repr__(self) -> str:
        return f"RationalGF({list(self.numerator)!r}, {list(self.denominator)!r})"

    def expand(self, order: int) -> TruncatedSeries:
        return gf_expand(self, order)


def gf_expand(gf: RationalGF, order: int) -> TruncatedSeries:
    """Exact coefficients c_0..c_order of gf's power-series expansion.

    Uses the linear recurrence induced by the denominator:
    d_0 c_n = num_n - sum_{m>=1} d_m c_{n-m}.  Requires d_0 in {-1, +1}
    so that every coefficient stays an exact integer.
    """
    if order < 0:
        raise ValueError(f"expansion order must be nonnegative, got {order}")
    d0 = gf.denominator[0]
    if d0 not in (1, -1):
        raise NonUnitConstantTerm(
            f"denominator constant term {d0} is not a unit; cannot expand exactly"
        )
    num = gf.numerator
    terms = gf._den_terms
    c: list[int] = []
    for n in range(order + 1):
        s = num[n] if n < len(num) else 0
        for m, d in terms:
            if m > n:
                break
            s -= d * c[n - m]
        c.append(s if d0 == 1 else -s)
    return TruncatedSeries(c)
