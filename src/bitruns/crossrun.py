"""Correlations of the longest 0-run R0 with the longest 1-run R1
(Table 1) and with the bitsum S (Table 2).

Each table, ``cross_report_table`` and ``joint_rs_report_table``, is
its quantity's one entry point: it gives one ``Correlation`` per length
of a list, and one length n is ``table([n], cls)[0]``.  Each record is
built from five sums over the class strings: of R0, R0^2, Y, Y^2 and
R0 Y, with Y = R1 or S.  A length with a single class string has no
correlation, and ``correlation_counts`` refuses it from the class
counts before any sum starts.  The run sums come from the cap sum of
``moments``; S and S^2 from the catalog's bitsum GFs, and R0 S from the
same cap sum over the 0-runs, for every class.  R0 R1 is read as
follows.

Every class with a run family for both bits (unconstrained, multus,
bimultus; ``catalog.shortest_runs`` refuses the others) is the language
of alternating 0-runs and 1-runs whose lengths are at least lo0 and
lo1, with no upper length.  A string with m0 0-runs and m1 1-runs has
|m0 - m1| <= 1, in two orders when m0 = m1 and in one otherwise, and is
a composition of its n0 zeros into m0 parts >= lo0 next to one of its
n - n0 ones into m1 parts >= lo1.  R0 and R1 are the largest parts of
the two compositions, so

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
exhaustive oracle covers every class at small n: ``cross_report_oracle``
reads the same five sums off ``enumerate_joint`` with ``oracle_moment``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import comb
from operator import add, mul
from typing import NamedTuple, Sequence

from .catalog import bitsum_gfs, shortest_runs
from .ensembles import (
    DEFAULT_ORACLE_BOUND,
    StringClass,
    enumerate_joint,
    oracle_moment,
)
from .errors import DegenerateVariance
from .moments import checked_counts, run_numerators
from .render import signed_sqrt_ratio


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
    lo0, lo1 = shortest_runs(string_class)
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


class Correlation(NamedTuple):
    """Exact moments of the longest 0-run R0 and another statistic Y at
    one length, with their covariance: Y is the longest 1-run R1 for
    Table 1 and the bitsum S for Table 2."""

    n: int
    string_class: StringClass
    mean_r0: Fraction
    mean_other: Fraction
    var_r0: Fraction
    var_other: Fraction
    mean_product: Fraction
    covariance: Fraction

    def rho(self, places: int = 6) -> str:
        """The correlation coefficient rendered to `places` decimals."""
        return signed_sqrt_ratio(self.covariance, self.var_r0 * self.var_other, places)


def correlation_counts(string_class: StringClass, ns: Sequence[int]) -> tuple:
    """moments.checked_counts, raising DegenerateVariance at any length in
    ns with a single class string.  That is exactly where var R0, var R1
    and var S vanish: a class with two or more strings of length n holds
    the all-0 string, with R0 = n and R1 = S = 0, and every other member
    has R0 < n and R1, S >= 1."""
    counts = checked_counts(string_class, ns)
    for n in ns:
        if counts[n] == 1:
            raise DegenerateVariance(
                f"zero run-length variance at n={n} for {string_class}"
            )
    return counts


def _correlations(ns, string_class, counts, sums) -> list:
    """A Correlation per length in ns from its five sums over the class
    strings, of R0, R0^2, Y, Y^2 and R0 Y, and its count counts[n]."""
    out = []
    for n, row in zip(ns, sums):
        e0, e00, ey, eyy, e0y = (Fraction(s, counts[n]) for s in row)
        out.append(
            Correlation(
                n, string_class, e0, ey, e00 - e0 * e0, eyy - ey * ey, e0y, e0y - e0 * ey
            )
        )
    return out


def cross_report_table(ns: Sequence[int], string_class: StringClass) -> list:
    """Correlations of R0 with R1 for several lengths, in the order given:
    the run moments from the cap sum, the product from the largest-part
    rows."""
    if not ns:
        return []
    shortest_runs(string_class)
    counts = correlation_counts(string_class, ns)
    zeros, ones = (run_numerators(string_class, bit, ns) for bit in (0, 1))
    sums = [
        (r0[0], r0[1], r1[0], r1[1], x)
        for r0, r1, x in zip(zeros, ones, cross_numerator(string_class, ns))
    ]
    return _correlations(ns, string_class, counts, sums)


def cross_report_oracle(
    n: int,
    string_class: StringClass,
    bound: int = DEFAULT_ORACLE_BOUND,
) -> Correlation:
    """Same correlation by exhaustive enumeration; works for every class,
    and tests its own variances."""
    dist = enumerate_joint(n, string_class, bound)
    stats = (
        lambda r0, r1, s: r0,
        lambda r0, r1, s: r0 * r0,
        lambda r0, r1, s: r1,
        lambda r0, r1, s: r1 * r1,
        lambda r0, r1, s: r0 * r1,
    )
    means = [oracle_moment(dist, f) for f in stats]
    # the means are the sums over a count of 1
    (r,) = _correlations([n], string_class, {n: 1}, [means])
    if r.var_r0 == 0 or r.var_other == 0:
        raise DegenerateVariance(
            f"zero run-length variance at n={n} for {string_class}"
        )
    return r


def joint_rs_report_table(ns: Sequence[int], string_class: StringClass) -> list:
    """Correlations of R0 with the bitsum S for several lengths, in the
    order given: the bitsum moments from the series of a and b at
    max(ns), the run moments and the product from the zero-run cap sum
    at each length."""
    if not ns:
        return []
    counts = correlation_counts(string_class, ns)
    s1, s2 = (gf.expand(max(ns)) for gf in bitsum_gfs(string_class))
    sums = [
        (r[0], r[1], s1[n], s2[n], r[-1])
        for n, r in zip(ns, run_numerators(string_class, 0, ns, bitsum=True))
    ]
    return _correlations(ns, string_class, counts, sums)

