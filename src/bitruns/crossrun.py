"""Correlation between the longest 0-run and the longest 1-run.

Every class with a run family for both bits (unconstrained, multus,
bimultus) is the language of alternating 0-runs and 1-runs whose
lengths are at least lo0 and lo1, with no upper length.  A string with
m0 0-runs and m1 1-runs has |m0 - m1| <= 1, in two orders when
m0 = m1 and in one otherwise, and is a composition of its n0 zeros
into m0 parts >= lo0 next to one of its n - n0 ones into m1 parts
>= lo1.  R0 and R1 are the largest parts of the two compositions, so

    sum R0 R1 = sum_{n0} sum_{m>=1} M0(n0, m) (2 M1(n - n0, m)
                + M1(n - n0, m - 1) + M1(n - n0, m + 1)),

where M_b(x, m) is the sum of the largest part over the compositions
of x into m parts >= lo_b, and M_b(x, 0) = 0.  Telescoping the largest
part over k, with inclusion-exclusion on the parts >= k (Flajolet &
Sedgewick, Analytic Combinatorics, I.3), gives

    sum_x M(x, m) z^x = z^(lo m) (lo + sum_{s=1..m} (-1)^(s+1) C(m, s)
                        z^s / (1 - z^s)) / (1 - z)^m.

Row m is built from its numerator, one slice update per s, and m
prefix sums (``largest_part_row``).  The rows are streamed in m, the
1-runs through a window of three rows; when lo0 = lo1 one stream
serves both bits.  Each row is needed only through the length the
other bit's m - 1 shortest runs leave, so there are about N / (lo0 +
lo1) rows for N = max(ns), each at most N long: O(N^2) Python-level
steps, and about N^3 / 24 big-integer additions inside the prefix
sums for unconstrained.  Memory is a few rows of N integers.  The
exhaustive oracle covers every class at small n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb
from operator import add, mul
from typing import NamedTuple, Sequence

from .catalog import cap_form
from .ensembles import (
    DEFAULT_ORACLE_BOUND,
    StringClass,
    enumerate_joint,
    oracle_moment,
)
from .errors import DegenerateVariance, UndefinedFamily, UnsupportedClass
from .moments import checked_counts, run_numerators
from .render import signed_sqrt_ratio


def _shortest_runs(string_class: StringClass) -> tuple:
    """(lo0, lo1), the shortest 0-run and 1-run of the class; raises
    UnsupportedClass unless both bits have a run family."""
    try:
        form = cap_form(string_class, 1)
    except UndefinedFamily:
        raise UnsupportedClass(
            f"no two-run generating function for {string_class}"
        ) from None
    return form.lo_other, form.lo


def largest_part_row(lo: int, m: int, top: int) -> list:
    """M(x, m) for x = 0..top (empty for top < 0), m >= 1: the sum of the
    largest part over the compositions of x into m parts >= lo; see the
    module docstring."""
    size = top - lo * m + 1
    if size <= 0:
        return [0] * (top + 1)
    row = [0] * size
    row[0] = lo
    for s in range(1, min(m, size - 1) + 1):
        c = comb(m, s)
        row[s::s] = map(add, row[s::s], repeat(c if s & 1 else -c))
    for _ in range(m):
        row = list(accumulate(row))
    return [0] * (lo * m) + row


def _rows(lo: int, lo_other: int, top: int):
    """largest_part_row for m = 1, 2, ..., each through the length that
    m - 1 runs of the other bit leave."""
    m = 1
    while True:
        yield largest_part_row(lo, m, top - lo_other * (m - 1))
        m += 1


def cross_numerator(string_class: StringClass, ns: Sequence[int]) -> list:
    """The sum of R0 * R1 over the class strings of each length in ns, in
    order, from the largest-part rows; see the module docstring."""
    lo0, lo1 = _shortest_runs(string_class)
    if not ns:
        return []
    if any(n < 0 for n in ns):
        raise ValueError("lengths must be nonnegative")
    lengths = sorted(set(ns))
    top = lengths[-1]
    acc = dict.fromkeys(lengths, 0)
    ones = _rows(lo1, lo0, top)
    zeros = ones if lo0 == lo1 else _rows(lo0, lo1, top)
    prev, cur, nxt = [], next(ones), next(ones)
    m = 1
    while lo0 * m + lo1 * (m - 1) <= top:
        r0 = cur if zeros is ones else next(zeros)
        # t[y]: the 1-run weight 2 M1(y, m) + M1(y, m - 1) + M1(y, m + 1)
        # for y <= top - lo0 m, the ones left beside m 0-runs
        size = top - lo0 * m + 1
        t = cur[:size]
        t = list(map(add, t, t))
        for row in (prev, nxt):
            head = row[:size]
            t[: len(head)] = map(add, t, head)
        # n0 runs from lo0 m to n - lo1 (m - 1): t is 0 below lo1 (m - 1)
        low = lo1 * (m - 1)
        for n in lengths:
            if n >= lo0 * m + low:
                ys = t[low : n - lo0 * m + 1][::-1]
                acc[n] += sum(map(mul, r0[lo0 * m : n - low + 1], ys))
        prev, cur, nxt = cur, nxt, next(ones)
        m += 1
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
    either variance is 0, so a length that cannot give a correlation
    fails before any product sum."""
    counts = checked_counts(string_class, ns)
    _shortest_runs(string_class)
    zeros, ones = (run_numerators(string_class, bit, ns) for bit in (0, 1))
    out = []
    for n, (r0, r0sq, *_), (r1, r1sq, *_) in zip(ns, zeros, ones):
        d = counts[n]
        er0, er1 = Fraction(r0, d), Fraction(r1, d)
        v0, v1 = _variances(n, string_class, er0, er1, Fraction(r0sq, d), Fraction(r1sq, d))
        out.append((er0, er1, v0, v1))
    return out


def cross_report_table(
    ns: Sequence[int], string_class: StringClass, moments=None
) -> list:
    """CrossReports for several lengths, in the order given: the run
    moments from the cap sum (or `moments`, cross_run_moments at ns
    already computed), every variance checked before the product."""
    if not ns:
        return []
    if moments is None:
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
