"""Joint distribution of (zero count, longest zero run) from bounded-
composition binomial sums, and the few-ones counts.

The joint table is the independent route that checks the correlation
of the longest zero run with the bitsum, which ``crossrun`` reads off
the zero-run cap sum; the ``joint`` command and ``verify --scope
joint-dp`` print and check it.  The few-ones counts sum the same
bounded-composition counts.

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
over s < ell.  With x = n - s, each solus term above is C(n - c, s) with
c = s - 1 + ik + j(k - 1), a polynomial in n from its cut n = c + s on,
so between consecutive cuts the count is one polynomial in n (Sturmfels
1995).  ``fewones_closed_form`` sums these pieces once per (ell, k) and
evaluates the one that holds at n; it covers ell = 2..5, k >= 2 and
n >= 1, where it reproduces the published piecewise forms.  The few-ones
approximation to the run-bitsum product numerator, ``rs_numerator_approx``,
is a sum over the solus table instead: R0*S over the cells with fewer
than ell_max ones or a longest zero run R0 <= 1.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from math import factorial
from operator import add, mul
from typing import NamedTuple

from .ensembles import StringClass
from .errors import OutOfFormulaRange, UnsupportedClass


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


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} not divisible by {den}")
    return q


@lru_cache(maxsize=64)
def _pieces(ell: int, k: int) -> tuple:
    """(cuts, polys): (ell - 1)! fewones_count(n, ell, k) is polys[i], an
    integer polynomial in n, constant first, for cuts[i] <= n < cuts[i + 1]."""
    scale = factorial(ell - 1)
    steps = {0: [scale] + [0] * (ell - 1), k: [-scale] + [0] * (ell - 1)}  # s = 0
    for s in range(1, ell):
        for i, w in enumerate((1, -2, 1)):
            for j, sign in enumerate(_signed_binomials(s - 1)):
                c = s - 1 + i * k + j * (k - 1)
                poly = [w * sign * scale // factorial(s)] + [0] * (ell - 1)
                for t in range(c, c + s):  # times (n - t): s! C(n - c, s)
                    poly = [a - t * b for a, b in zip([0] + poly, poly)]
                step = steps.setdefault(c + s, [0] * ell)
                step[:] = map(add, step, poly)
    cuts = sorted(steps)
    polys = accumulate((steps[cut] for cut in cuts), lambda p, q: list(map(add, p, q)))
    return tuple(cuts), tuple(map(tuple, polys))


def fewones_closed_form(n: int, ell: int, k: int) -> int:
    """Piecewise polynomial closed form for fewones_count(n, ell, k) on
    the no-adjacent-1s class, for ell in 2..5, k >= 2 and n >= 1: the
    piece that holds at n, derived from fewones_count's own terms (see
    the module docstring), evaluated in O(ell) operations."""
    if not 2 <= ell <= 5:
        raise OutOfFormulaRange(f"no closed form for ell={ell}")
    if k < 2:
        raise OutOfFormulaRange(f"closed forms need k >= 2, got {k}")
    if n < 1:
        raise OutOfFormulaRange(f"closed forms cover n >= 1, got {n}")
    cuts, polys = _pieces(ell, k)
    poly = polys[bisect_right(cuts, n) - 1]
    return _exact_div(sum(a * n**m for m, a in enumerate(poly)), factorial(ell - 1))


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


def rs_numerator_approx(order: int, ell_max: int = 5) -> tuple:
    """Few-ones approximation to the run-bitsum product numerator.

    The z^n coefficient sums R0*S over the cells of the length-n solus
    joint table with fewer than ell_max ones or a longest zero run
    R0 <= 1: the exact numerator less the strings with at least ell_max
    ones and R0 >= 2.  It agrees with the exact numerator through
    z^(2 ell_max - 1), and that bound is sharp: the z^(2 ell_max)
    coefficient already falls short.
    """
    if ell_max < 2:
        raise ValueError("ell_max must be at least 2")
    acc = []
    for n in range(order + 1):
        rows = joint_table(n, StringClass.SOLUS).rows
        acc.append(
            sum(
                y * (n - x) * c
                for x, row in enumerate(rows)
                for y, c in enumerate(row)
                if n - x < ell_max or y <= 1
            )
        )
    return tuple(acc)
