"""Joint distribution of (zero count, longest zero run) from bounded-
composition binomial sums, and the few-ones counts.

The joint table is the independent route that checks the correlation
of the longest zero run with the bitsum, which ``crossrun`` reads off
the zero-run cap sum; the ``joint`` command and ``verify --scope
joint-dp`` print and check it.  The few-ones counts sum the same
bounded-composition counts.

Fix s ones, so a length-n string has x = n - s zeros, and let N(x, s, y)
count the class strings whose zero runs are all <= y.  The zero runs are
the s + 1 gaps around the ones: o outer gaps in [0, y] and r inner gaps
in [g, y], where g is the fewest zeros between two 1s.  So N counts
bounded compositions of x,
  N = [z^x] z^(gr) (1 - z^(y+1))^o (1 - z^(y+1-g))^r / (1 - z)^(s+1),
the sum of (-1)^(i+j) C(o, i) C(r, j) C(x - gr - i(y+1) - j(y+1-g) + s, s)
over i outer and j inner gaps forced above y; if y < g and r > 0, no
inner gap fits and N = 0.  Unconstrained 1s may touch, so all s + 1 gaps
are alike: (g, o, r) = (0, 0, s + 1).  Solus strings have no two
adjacent 1s: (g, o, r) = (1, min(s + 1, 2), max(s - 1, 0)).

F_n(x, y) = N(x, n - x, y) - N(x, n - x, y - 1) counts length-n strings
with x zeros whose longest zero run is exactly y.  Each N is a sum of
about x / (y + 1) products, so one table costs O(n^2 log n) big-integer
operations and holds only itself.

The few-ones questions need no table: the number of strings with fewer
than ell ones and no zero run of length k is the sum of N(n - s, s, k - 1)
over s < ell.  With x = n - s and y = k - 1, each solus term above is
C(n - c, s) with c = gr + ik + j(k - g), a polynomial in n from its cut
n = c + s on, so between consecutive cuts the count is one polynomial in
n (Sturmfels 1995).  ``fewones_closed_form`` sums these pieces once per
(ell, k) and evaluates the one that holds at n; it covers ell = 2..5,
k >= 2 and n >= 1, where it reproduces the published piecewise forms.
``fewones_peak`` reads its value off the same pieces, at the published
argmax.  The few-ones approximation to the run-bitsum product numerator,
``rs_numerator_approx``, is a sum over the solus table instead: R0*S over
the cells with fewer than ell_max ones or a longest zero run R0 <= 1.
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


def _gaps(s: int, string_class: StringClass) -> tuple:
    """(g, o, r) for s ones: o outer gaps in [0, y], r inner ones in [g, y]."""
    if string_class is StringClass.UNCONSTRAINED:
        return 0, 0, s + 1  # 1s may touch, so all s + 1 gaps are alike
    if string_class is StringClass.SOLUS:
        return 1, min(s + 1, 2), max(s - 1, 0)
    raise UnsupportedClass(f"no bounded-composition count for {string_class}")


def _at_most(x: int, s: int, string_class: StringClass):
    """y -> the number of class strings with x zeros and s ones whose zero
    runs are all <= y, for y >= 0."""
    g, o, r = _gaps(s, string_class)
    # col[m] = C(m + s, s) = [z^m] 1/(1 - z)^(s + 1)
    col = [1]
    for m in range(1, x + 1):
        col.append(col[-1] * (m + s) // m)
    outer = _signed_binomials(o)[1:]
    inner = _signed_binomials(r)
    a = x - g * r

    def count(y: int) -> int:
        if a < 0 or y < g and r:
            return 0  # too few zeros for the inner gaps, or none fits [g, y]
        # col[a - i(y + 1) - j(y + 1 - g)], i outer and j inner gaps above y
        step = g - y - 1 or -1  # with r = 0 no step is taken
        total = sum(map(mul, inner, col[a::step]))
        b = a
        for w in outer:
            b -= y + 1
            if b < 0:
                break
            total += w * sum(map(mul, inner, col[b::step]))
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
    steps = {}
    for s in range(ell):
        g, o, r = _gaps(s, StringClass.SOLUS)
        for i, w in enumerate(_signed_binomials(o)):
            for j, sign in enumerate(_signed_binomials(r)):
                c = g * r + i * k + j * (k - g)
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
    """(argmax index, max value) of the ell = 5 sequence for threshold k:
    the published index (5k + 4 + k mod 2) / 2 and the derived closed form
    there.  Ties are possible (k = 2); the index always attains the max."""
    if k < 2:
        raise OutOfFormulaRange("peak formulas need k >= 2")
    idx = _exact_div(5 * k + 4 + k % 2, 2)
    return idx, fewones_closed_form(idx, 5, k)


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
