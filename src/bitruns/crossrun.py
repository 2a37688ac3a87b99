"""Correlation between the longest 0-run and the longest 1-run.

A string of length n has R1 <= n, so summing R1 = #{i : 1 <= i <= R1}
gives

    sum R0 R1 = sum_{i=1..n} (sum R0 - sum_{R1 < i} R0),

where sum_{R1 < i} R0 is the first moment of the longest 0-run over the
class strings whose 1-runs are at most i - 1 long.  The cap sum of
``moments.run_numerators`` reads that moment at the requested lengths
with the 1-runs capped (``other_cap``), so the product takes one cap
sum per cap i - 1 = 0..N - 1, N = max(ns): O(N^3) in all.  It needs a
run family for both bits (unconstrained, multus, bimultus); the
exhaustive oracle covers every class at small n.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple, Sequence

from .catalog import run_family
from .ensembles import (
    DEFAULT_ORACLE_BOUND,
    StringClass,
    enumerate_joint,
    oracle_moment,
)
from .errors import DegenerateVariance, UndefinedFamily, UnsupportedClass
from .moments import checked_counts, run_numerators
from .render import signed_sqrt_ratio


def _check_class(string_class: StringClass) -> None:
    try:
        run_family(string_class, 1)
    except UndefinedFamily:
        raise UnsupportedClass(
            f"no two-run generating function for {string_class}"
        ) from None


def cross_numerator(string_class: StringClass, ns: Sequence[int]) -> list:
    """The sum of R0 * R1 over the class strings of each length in ns, in
    order; see the module docstring."""
    _check_class(string_class)
    if not ns:
        return []
    whole = {n: r[0] for n, r in zip(ns, run_numerators(string_class, 0, ns))}
    acc = dict.fromkeys(ns, 0)
    lengths = sorted(acc)
    for cap in range(lengths[-1]):
        longer = lengths[bisect_right(lengths, cap) :]
        for n, r in zip(longer, run_numerators(string_class, 0, longer, other_cap=cap)):
            acc[n] += whole[n] - r[0]
    return [acc[n] for n in ns]


def cross_moment(n: int, string_class: StringClass) -> Fraction:
    """Exact E[R0 * R1] over class strings of length n."""
    counts = checked_counts(string_class, [n])
    return Fraction(cross_numerator(string_class, [n])[0], counts[n])


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


def _variances(n, string_class, er0, er1, er0sq, er1sq) -> tuple:
    v0 = er0sq - er0 * er0
    v1 = er1sq - er1 * er1
    if v0 == 0 or v1 == 0:
        raise DegenerateVariance(
            f"zero run-length variance at n={n} for {string_class}"
        )
    return v0, v1


def _assemble(n, string_class, er0, er1, v0, v1, er0r1) -> CrossReport:
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


def cross_run_moments(ns: Sequence[int], string_class: StringClass) -> list:
    """(E R0, E R1, var R0, var R1) for each length in ns, a nonempty
    list, in order, from the cap sum.  Raises DegenerateVariance where
    either variance is 0: this costs O(N^2) against the product's O(N^3),
    so a length that cannot give a correlation fails before any product
    sum."""
    counts = checked_counts(string_class, ns)
    _check_class(string_class)
    zeros, ones = (run_numerators(string_class, bit, ns) for bit in (0, 1))
    out = []
    for n, (r0, r0sq, *_), (r1, r1sq, *_) in zip(ns, zeros, ones):
        d = counts[n]
        er0, er1 = Fraction(r0, d), Fraction(r1, d)
        v0, v1 = _variances(n, string_class, er0, er1, Fraction(r0sq, d), Fraction(r1sq, d))
        out.append((er0, er1, v0, v1))
    return out


def cross_report_table(ns: Sequence[int], string_class: StringClass) -> list:
    """CrossReports for several lengths, in the order given: the run
    moments and the product from the cap sum, every variance checked
    before the product."""
    if not ns:
        return []
    moments = cross_run_moments(ns, string_class)
    counts = checked_counts(string_class, ns)
    xnum = cross_numerator(string_class, ns)
    return [
        _assemble(n, string_class, *m, Fraction(x, counts[n]))
        for n, m, x in zip(ns, moments, xnum)
    ]


def cross_report(n: int, string_class: StringClass) -> CrossReport:
    return cross_report_table([n], string_class)[0]


def cross_report_oracle(
    n: int,
    string_class: StringClass,
    bound: int = DEFAULT_ORACLE_BOUND,
) -> CrossReport:
    """Same report by exhaustive enumeration; works for every class."""
    dist = enumerate_joint(n, string_class, bound)
    er0, er1 = oracle_moment(dist, "R0"), oracle_moment(dist, "R1")
    v0, v1 = _variances(
        n, string_class, er0, er1, oracle_moment(dist, "R0^2"), oracle_moment(dist, "R1^2")
    )
    return _assemble(n, string_class, er0, er1, v0, v1, oracle_moment(dist, "R0*R1"))
