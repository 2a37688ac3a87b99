"""Correlation between the longest 0-run and the longest 1-run.

The product sum over a class comes from the two-run families f_{i,j}
(strings with no run of i ones and no run of j zeros) via

    sum_{i,j >= 1} i j (f_{i+1,j+1} - f_{i,j+1} - f_{i+1,j} + f_{i,j}),

whose z^n coefficient is the sum of R1 * R0 over class strings of
length n.  A string of length n has R0 + R1 <= n, so the pairs with
i + j <= n give z^n exactly.
The catalog builds f_{i,j} for every class with a run family for both
bits (unconstrained, multus, bimultus); the exhaustive oracle covers
every class at small n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .catalog import cross_gf, run_family
from .ensembles import (
    DEFAULT_ORACLE_BOUND,
    StringClass,
    enumerate_joint,
    oracle_moment,
)
from .errors import DegenerateVariance, UndefinedFamily, UnsupportedClass
from .moments import checked_counts, run_numerators
from .render import signed_sqrt_ratio
from .series import TruncatedSeries, gf_expand, valuation


def cross_numerator(string_class: StringClass, order: int) -> TruncatedSeries:
    """Series whose z^n coefficient sums R0 * R1 over the class.

    A string of length n has R0 + R1 <= n, so only the pairs with
    i + j <= order reach z^order.  Summing those pairs by parts leaves
    each f_{a,b} once, with weight 1 for a + b <= order, 1 - ab for
    a + b = order + 1 and (a - 1)(b - 1) for a + b = order + 2.  The
    unconstrained f_{a,b} = f_{b,a} by complementing bits, so there
    each unordered pair is expanded once and counted twice.

    Pairs are taken in groups by their smaller index m.  Every f_{a,b}
    of a group agrees below z^v, v = valuation(f_{a,b}, B), with the
    one-run GF B of that index: strings with no run of m ones (a = m)
    or of m zeros (b = m).  So B is expanded once per group, each
    f_{a,b} only from z^v on, and the agreeing coefficients enter the
    sum once per group as B's, weighted by the pairs that share them.
    """
    try:
        ones, zeros = run_family(string_class, 1), run_family(string_class, 0)
    except UndefinedFamily:
        raise UnsupportedClass(
            f"no two-run generating function for {string_class}"
        ) from None
    symmetric = string_class is StringClass.UNCONSTRAINED
    acc = [0] * (order + 1)

    def weight(a: int, b: int) -> int:
        s = a + b
        if s <= order:
            w = 1
        elif s == order + 1:
            w = 1 - a * b
        else:
            w = (a - 1) * (b - 1)
        return 2 * w if symmetric and a != b else w

    # (family, its H expanded, whether m bounds the zeros)
    sides = [(ones, ones.H.expand(order).coeffs, False)]
    if not symmetric:
        sides.append((zeros, zeros.H.expand(order).coeffs, True))
    for m in range(1, order // 2 + 2):
        for family, h, zero_side in sides:
            # the other index: a > m on the zeros side, b >= m on the ones side
            others = range(m + zero_side, order + 3 - m)
            if not others:
                continue
            base = family.hk(m)
            bs = gf_expand(base, order, h[: min(valuation(base, family.H), order + 1)]).coeffs
            shared = [0] * (order + 2)  # shared[v]: weight of pairs agreeing below z^v
            for o in others:
                a, b = (o, m) if zero_side else (m, o)
                f = cross_gf(string_class, a, b)
                w = weight(a, b)
                v = min(valuation(f, base), order + 1)
                shared[v] += w
                c = gf_expand(f, order, bs[:v]).coeffs
                for n in range(v, order + 1):
                    acc[n] += w * c[n]
            agree = 0
            for n in range(order, -1, -1):
                agree += shared[n + 1]
                if agree:
                    acc[n] += agree * bs[n]
    return TruncatedSeries(acc)


# Bounded: cross_report_table expands once at the largest length, so
# this only serves repeated cross_moment calls.
@lru_cache(maxsize=8)
def _cross_numerator_cached(string_class: StringClass, order: int) -> TruncatedSeries:
    return cross_numerator(string_class, order)


def cross_moment(n: int, string_class: StringClass) -> Fraction:
    """Exact E[R0 * R1] over class strings of length n."""
    counts = checked_counts(string_class, [n])
    return Fraction(_cross_numerator_cached(string_class, n)[n], counts[n])


class CrossReport(NamedTuple):
    """Exact joint moments of the two longest runs plus their correlation
    rendered to 6 places."""

    n: int
    string_class: StringClass
    mean_r0: Fraction
    mean_r1: Fraction
    var_r0: Fraction
    var_r1: Fraction
    mean_product: Fraction
    covariance: Fraction
    rho: str


def _assemble(n, string_class, er0, er1, er0sq, er1sq, er0r1) -> CrossReport:
    v0 = er0sq - er0 * er0
    v1 = er1sq - er1 * er1
    if v0 == 0 or v1 == 0:
        raise DegenerateVariance(
            f"zero run-length variance at n={n} for {string_class}"
        )
    cov = er0r1 - er0 * er1
    return CrossReport(
        n=n,
        string_class=string_class,
        mean_r0=er0,
        mean_r1=er1,
        var_r0=v0,
        var_r1=v1,
        mean_product=er0r1,
        covariance=cov,
        rho=signed_sqrt_ratio(cov, v0 * v1),
    )


def cross_report_table(ns: Sequence[int], string_class: StringClass) -> list:
    """CrossReports for several lengths, in the order given: the product
    from one series expansion at max(ns), the run moments from the cap
    sum."""
    if not ns:
        return []
    counts = checked_counts(string_class, ns)
    order = max(ns)
    xnum = _cross_numerator_cached(string_class, order)
    zeros, ones = (run_numerators(string_class, bit, ns) for bit in (0, 1))
    out = []
    for n, (r0, r0sq, *_), (r1, r1sq, *_) in zip(ns, zeros, ones):
        d = counts[n]
        out.append(
            _assemble(
                n,
                string_class,
                Fraction(r0, d),
                Fraction(r1, d),
                Fraction(r0sq, d),
                Fraction(r1sq, d),
                Fraction(xnum[n], d),
            )
        )
    return out


def cross_report(n: int, string_class: StringClass) -> CrossReport:
    return cross_report_table([n], string_class)[0]


def cross_report_oracle(
    n: int,
    string_class: StringClass,
    bound: int = DEFAULT_ORACLE_BOUND,
) -> CrossReport:
    """Same report by exhaustive enumeration; works for every class."""
    dist = enumerate_joint(n, string_class, bound)
    return _assemble(
        n,
        string_class,
        oracle_moment(dist, "R0"),
        oracle_moment(dist, "R1"),
        oracle_moment(dist, "R0^2"),
        oracle_moment(dist, "R1^2"),
        oracle_moment(dist, "R0*R1"),
    )
