"""Joint distribution of (zero count, longest zero run) from bounded-
composition counts, and the run-bitsum correlation.

The correlation of the longest zero run with the bitsum takes its three
run numerators from one sum over the zero-run cap
(``moments.zero_run_bitsum_numerators``), which reads [z^n] at each
requested length and expands no capped GF, and the bitsum moments from
the catalog's bitsum GFs a and b, built from the same constructor for
every class.  The joint table below is the independent
route that checks it; the ``joint`` command, ``verify --scope joint-dp``
and the few-ones counts read it.

Fix s ones, so a length-n string has x = n - s zeros, and let N(x, s, y)
count the class strings whose zero runs are all <= y.  The zero runs are
the s + 1 gaps around the ones, so N counts bounded compositions of x:

* unconstrained: s + 1 gaps in [0, y], so by inclusion-exclusion
  N = sum_j (-1)^j C(s+1, j) C(x - j(y+1) + s, s);
* solus (no two adjacent 1s): the s - 1 inner gaps lie in [1, y] and the
  two outer gaps in [0, y], so N is [z^x] of
  z^(s-1) (1 - z^(y+1))^2 (1 - z^y)^(s-1) / (1 - z)^(s+1): three single
  sums, one per term i = 0, 1, 2 of (1 - z^(y+1))^2 with weight
  1, -2, 1, of sum_j (-1)^j C(s-1, j) C(x - (s-1) - i(y+1) - jy + s, s).
  The edges are s = 0 (one string if x <= y) and y = 0 (only "1").

F_n(x, y) = N(x, n - x, y) - N(x, n - x, y - 1) counts length-n strings
with x zeros whose longest zero run is exactly y.  Each N is a sum of
about x / (y + 1) products, so one table costs O(n^2 log n) big-integer
operations and holds only itself.

The few-ones questions need no table: the number of strings with fewer
than ell ones and no zero run of length k is the sum of N(n - s, s, k - 1)
over s < ell, and for ell <= 5 piecewise polynomial closed forms are
available as well.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .catalog import bitsum_gfs
from .ensembles import StringClass
from .errors import DegenerateVariance, OutOfFormulaRange, UnsupportedClass
from .moments import checked_counts, zero_run_bitsum_numerators
from .render import signed_sqrt_ratio


def _signed_binomials(r: int) -> list:
    """(-1)^j C(r, j) for j = 0..r."""
    row = [1]
    for j in range(1, r + 1):
        row.append(-row[-1] * (r - j + 1) // j)
    return row


def _at_most(x: int, s: int, string_class: StringClass):
    """y -> the number of class strings with x zeros and s ones whose zero
    runs are all <= y, for y >= 0."""
    if string_class not in (StringClass.UNCONSTRAINED, StringClass.SOLUS):
        raise UnsupportedClass(f"no bounded-composition count for {string_class}")
    # col[m] = C(m + s, s) = [z^m] 1/(1 - z)^(s + 1)
    col = [1]
    for m in range(1, x + 1):
        col.append(col[-1] * (m + s) // m)

    if string_class is StringClass.UNCONSTRAINED:
        signs = _signed_binomials(s + 1)

        def count(y: int) -> int:
            # j runs over the parts forced above y: col[x - j(y + 1)]
            return sum(map(mul, signs, col[x :: -(y + 1)]))

        return count

    signs = _signed_binomials(max(s - 1, 0))

    def count(y: int) -> int:
        if s == 0:
            return 1 if x <= y else 0
        if y == 0:
            return 1 if s == 1 and x == 0 else 0  # the string "1"
        total = 0
        for c, i in ((1, 0), (-2, 1), (1, 2)):
            a = x - (s - 1) - i * (y + 1)
            if a >= 0:
                # j runs over the inner gaps forced above y: col[a - j y]
                total += c * sum(map(mul, signs, col[a::-y]))
        return total

    return count


class JointTable(NamedTuple):
    """Counts of length-n class strings by (x zeros, longest zero run y)."""

    n: int
    string_class: StringClass
    rows: tuple  # rows[x][y], 0 <= y <= x <= n

    def count(self, x: int, y: int) -> int:
        if 0 <= y <= x <= self.n:
            return self.rows[x][y]
        return 0

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.rows)


def joint_table(n: int, string_class: StringClass) -> JointTable:
    """The (zero count, longest zero run) table for length n:
    rows[x][y] = N(x, n - x, y) - N(x, n - x, y - 1)."""
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    rows = []
    for x in range(n + 1):
        count = _at_most(x, n - x, string_class)
        cum = [0] + [count(y) for y in range(x + 1)]
        rows.append(tuple(b - a for a, b in zip(cum, cum[1:])))
    return JointTable(n, string_class, tuple(rows))


class JointReport(NamedTuple):
    """Exact joint moments of (longest zero run, bitsum) plus their
    correlation rendered to 6 places."""

    n: int
    string_class: StringClass
    mean_run: Fraction
    mean_bitsum: Fraction
    var_run: Fraction
    var_bitsum: Fraction
    mean_product: Fraction
    covariance: Fraction
    rho: str


def joint_rs_report_table(ns: Sequence[int], string_class: StringClass) -> list:
    """JointReports for several lengths, in the order given: the bitsum
    moments from the series of a and b at max(ns), the run moments from
    the zero-run cap sum at each length."""
    if not ns:
        return []
    counts = checked_counts(string_class, ns)
    order = max(ns)
    s1, s2 = (gf.expand(order) for gf in bitsum_gfs(string_class))
    out = []
    for n, (r1, r2, rs) in zip(ns, zero_run_bitsum_numerators(string_class, ns)):
        d = counts[n]
        er, es = Fraction(r1, d), Fraction(s1[n], d)
        ers = Fraction(rs, d)
        cov = ers - er * es
        vr = Fraction(r2, d) - er * er
        vs = Fraction(s2[n], d) - es * es
        if vr == 0 or vs == 0:
            raise DegenerateVariance(
                f"zero variance at n={n} for {string_class}; correlation undefined"
            )
        out.append(
            JointReport(
                n=n,
                string_class=string_class,
                mean_run=er,
                mean_bitsum=es,
                var_run=vr,
                var_bitsum=vs,
                mean_product=ers,
                covariance=cov,
                rho=signed_sqrt_ratio(cov, vr * vs),
            )
        )
    return out


def joint_rs_report(n: int, string_class: StringClass) -> JointReport:
    """Correlation of the longest zero run with the bitsum at length n."""
    return joint_rs_report_table([n], string_class)[0]


# ---------------------------------------------------------------------------
# few-ones counts: strings with fewer than ell ones and no zero run of k


def fewones_count(
    n: int, ell: int, k: int, string_class: StringClass = StringClass.SOLUS
) -> int:
    """Count of length-n class strings with bitsum < ell and longest zero
    run < k: the sum of N(n - s, s, k - 1) over s < ell."""
    if ell < 1 or k < 1 or n < 0:
        raise ValueError("fewones_count needs ell, k >= 1 and n >= 0")
    return sum(
        _at_most(n - s, s, string_class)(k - 1) for s in range(min(ell - 1, n) + 1)
    )


def _delta(a: int, b: int) -> int:
    return 1 if a == b else 0


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} not divisible by {den}")
    return q


def _cf2(n: int, k: int) -> int:
    if 1 <= n <= k - 1:
        return n + 1
    if k <= n <= 2 * k - 1:
        return 2 * k - n
    return 0


def _cf3(n: int, k: int) -> int:
    if n < 1 or n > 3 * k - 1:
        return 0
    if n <= k - 1:
        return 2 + _exact_div(n * n - n, 2)
    if n <= k + 2:
        return _cf3(n - 1, k) + k - 2
    if n <= 2 * k:
        return _cf3(n - 1, k) + 3 * k - 2 * n + 2
    m = 3 * k - n
    return _exact_div(m + m * m, 2)


def _w4(m: int) -> int:
    if m == 1:
        return -2
    if m == 2:
        return 2
    return 3 * m * m - 13 * m + 20


def _u4(k: int, n: int) -> int:
    if k + 1 <= n <= 2 * k:
        return _exact_div(-k * k + (2 * n - 5) * k - _w4(n - k), 2)
    if n == 2 * k + 1:
        return 2 * (n - k - 3)
    return 0


def _v4(k: int, n: int) -> int:
    return _exact_div(-20 * k * k + (16 * n - 30) * k - (3 * n * n - 11 * n + 12), 2)


def _cf4(n: int, k: int) -> int:
    if n < 1 or n > 4 * k - 1:
        return 0
    if n == 1:
        return 2
    if n <= k:
        m = n - 1
        return _exact_div(6 * (1 - _delta(k, n)) + 14 * m - 3 * m * m + m**3, 6)
    if n <= 2 * k + 2:
        return _cf4(n - 1, k) + _u4(k, n)
    if n <= 3 * k:
        return _cf4(n - 1, k) - _v4(k, n)
    m = 4 * k - n
    return _exact_div(2 * m + 3 * m * m + m**3, 6)


def _w5(m: int) -> int:
    if m == 1:
        return 54
    if m in (2, 3):
        return 30
    return 4 * m**3 - 42 * m * m + 176 * m - 240


def _u5(k: int, n: int) -> int:
    num = k**3 - (3 * n - 12) * k * k + (3 * n * n - 24 * n + 59) * k - _w5(n - k)
    return _delta(2 * k + 1, n) + _exact_div(num, 6)


def _v5(k: int, n: int) -> int:
    num = (
        -195 * k**3
        + (165 * n - 426) * k * k
        - (45 * n * n - 228 * n + 309) * k
        + (4 * n**3 - 30 * n * n + 80 * n - 72)
    )
    return 3 * _delta(3 * k + 2, n) + _exact_div(num, 6)


def fewones_peak_value_mid(k: int) -> int:
    """a_{3k+1} in the ell = 5 sequence."""
    return _exact_div(11 * k**4 - 2 * k**3 - 35 * k * k - 22 * k + 72, 24)


def fewones_peak(k: int):
    """(argmax index, max value) of the ell = 5 sequence for threshold k.

    Ties are possible (k = 2); the returned index always attains the
    returned maximum.
    """
    if k < 2:
        raise OutOfFormulaRange("peak formulas need k >= 2")
    if k >= 3 and k % 2 == 1:
        idx = _exact_div(5 * k + 5, 2)
        val = _exact_div(115 * k**4 - 184 * k**3 - 22 * k * k - 104 * k + 387, 192)
    else:
        idx = _exact_div(5 * k + 4, 2)
        val = _exact_div(115 * k**4 - 184 * k**3 - 52 * k * k + 16 * k + 192, 192)
    return idx, val


def _cf5(n: int, k: int) -> int:
    if n < 1 or n > 5 * k - 1:
        return 0
    if n <= 2 or 2 * k + 2 <= n <= 3 * k:
        # outside the published piecewise regions
        return fewones_count(n, 5, k)
    if n <= k:
        m = n - 2
        num = 24 * (4 - _delta(k, n)) - 6 * m + 35 * m * m - 6 * m**3 + m**4
        return _exact_div(num, 24)
    if n <= 2 * k + 1:
        return _cf5(n - 1, k) + _u5(k, n)
    if n == 3 * k + 1:
        return fewones_peak_value_mid(k)
    if n <= 4 * k:
        return _cf5(n - 1, k) - _v5(k, n)
    m = 5 * k - n
    return _exact_div(6 * m + 11 * m * m + 6 * m**3 + m**4, 24)


def fewones_closed_form(n: int, ell: int, k: int) -> int:
    """Piecewise closed form for fewones_count(n, ell, k) on the
    no-adjacent-1s class, available for ell in 2..5 and k >= 2.

    The ell = 5 form has no published pieces for n <= 2, for the plateau
    2k + 2 <= n <= 3k, or for k = 2; those fall back to fewones_count.
    """
    if not 2 <= ell <= 5:
        raise OutOfFormulaRange(f"no closed form for ell={ell}")
    if k < 2:
        raise OutOfFormulaRange(f"closed forms need k >= 2, got {k}")
    if n < 1:
        raise OutOfFormulaRange(f"closed forms cover n >= 1, got {n}")
    if ell == 2:
        return _cf2(n, k)
    if ell == 3:
        return _cf3(n, k)
    if ell == 4:
        return _cf4(n, k)
    if k == 2:
        return fewones_count(n, 5, k)
    return _cf5(n, k)


def rs_numerator_approx(order: int, ell_max: int = 5) -> tuple:
    """Few-ones approximation to the run-bitsum product numerator.

    Accumulates, for bitsum levels below ell_max, the rectangle-count
    differences that isolate strings with a given longest zero run.  The
    result agrees with the exact numerator through z^(2 ell_max - 1), and
    that bound is sharp: the z^(2 ell_max) coefficient already falls short.
    The z^n shortfall is exactly the sum of R0*S over the length-n strings
    with at least ell_max ones and a longest zero run R0 >= 2.  Strings
    with R0 <= 1 miss nothing: together they carry total bitsum n, which
    the all-zeros string's term supplies.
    """
    if ell_max < 2:
        raise ValueError("ell_max must be at least 2")
    def f(ell: int, k: int):
        if 2 <= ell <= 5:
            return [
                fewones_closed_form(n, ell, k) if n else 1 for n in range(order + 1)
            ]
        return [fewones_count(n, ell, k) for n in range(order + 1)]

    acc = [0] * (order + 1)
    for k in range(2, order + 2):
        hi, lo = f(2, k + 1), f(2, k)
        for n in range(order + 1):
            acc[n] += k * (hi[n] - lo[n])
    for ell in range(3, ell_max + 1):
        for k in range(2, order + 2):
            a, b = f(ell, k + 1), f(ell - 1, k + 1)
            c, d = f(ell, k), f(ell - 1, k)
            w = ell - 1
            for n in range(order + 1):
                acc[n] += w * k * (a[n] - b[n] - c[n] + d[n])
    return tuple(acc)
