"""Joint distribution of (zero count, longest zero run) by dynamic programming,
and the run-bitsum correlation.

The correlation of the longest zero run with the bitsum is computed from
bitsum-marked generating functions (``moments.rs_numerator`` and the
catalog's bitsum triples) in O(n^2) big-integer operations.  The dynamic
program below is the independent route that checks it: it builds the
full joint table, which the ``joint`` command, ``verify --scope
joint-dp`` and the few-ones counts read.

F_n(x, y) counts length-n strings with x zeros whose longest zero run is
exactly y.  One recursion covers two ensembles through a flag kappa and a
boundary function lam:

* kappa = 0 with the unconstrained boundary gives all 0/1 strings;
* kappa = 1 with the isolated-ones boundary gives raw layers whose
  two-layer combination F~_n = F_{n-1} + F_n (n >= 2) counts strings
  with no two adjacent 1s.

Feasible entries satisfy floor(n / (n - x + 1)) <= y <= x.  A naive
transcription costs O(n) big-integer additions per entry; two running
sums bring that to O(1) per entry:

* the diagonal sum T(n, x, y) = F_{n-1}(x, y) + T(n-1, x-1, y)
  - F_{n-1-y}(x-y, y), needing only the previous layer's T;
* per-layer prefix sums P_n(x, y) = sum_{u <= y} F_n(x, u).

Building through layer n is O(n^3) big-integer operations overall.

The same tables answer the few-ones questions: the number of strings
with fewer than ell ones and no zero run of length k is a rectangular
partial sum, and for ell <= 5 piecewise polynomial closed forms are
available as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .catalog import bitsum_triple
from .ensembles import StringClass
from .errors import DegenerateVariance, OutOfFormulaRange, UnsupportedClass
from .moments import _counts_cached, _numerator_cached, rs_numerator
from .render import signed_sqrt_ratio
from .series import TruncatedSeries


def lam_unconstrained(n: int, y: int) -> int:
    """F_n(n-1, y) over all strings: one string when the single 1 sits at
    the center of an odd-length string, two otherwise."""
    return 1 if (n % 2 == 1 and y == (n - 1) // 2) else 2


def lam_solus(n: int, y: int) -> int:
    """Raw-layer boundary F_n(n-1, y) for the no-adjacent-1s recursion."""
    if n % 2 == 1:
        return 1 if (y == (n - 1) // 2 or y == n - 1) else 2
    return 1 if y == n - 1 else 2


class _LayerBuilder:
    """Incrementally grown F/P layers with the previous layer's T."""

    def __init__(self, string_class: StringClass, kappa: int, lam):
        self.string_class = string_class
        self.kappa = kappa
        self.lam = lam
        self.F: list = []
        self.P: list = []
        self.Tprev = None

    def _t_layer(self, n: int):
        F, Tprev = self.F, self.Tprev
        rows = [[0] * (x + 1) for x in range(n + 1)]
        for x in range(n + 1):
            for y in range(x + 1):
                t = 0
                if n >= 1 and x <= n - 1:
                    t += F[n - 1][x][y]
                if Tprev is not None and x >= 1 and y <= x - 1:
                    t += Tprev[x - 1][y]
                m = n - 1 - y
                if m >= 0 and 0 <= x - y <= m and y <= x - y:
                    t -= F[m][x - y][y]
                rows[x][y] = t
        return rows

    def _f_layer(self, n: int, rowsT):
        kappa, F, P = self.kappa, self.F, self.P
        rows = [[0] * (x + 1) for x in range(n + 1)]
        rows[0][0] = 1 - kappa
        if n >= 1:
            rows[n][n] = 1
        for x in range(1, n):
            ymin = n // (n - x + 1) if n >= 2 else x + 1
            for y in range(ymin, x + 1):
                if x == n - 1:
                    rows[x][y] = self.lam(n, y)
                    continue
                v = rowsT[x][y]
                if kappa:
                    v -= F[n - 1][x][y]
                m = n - 1 - y
                if m >= 0 and 0 <= x - y <= m:
                    v += P[m][x - y][min(y, x - y)]
                rows[x][y] = v
        return rows

    def _push(self, rowsF, rowsT) -> None:
        self.F.append(rowsF)
        self.P.append([list(accumulate(row)) for row in rowsF])
        self.Tprev = rowsT

    def extend(self, target: int) -> None:
        while len(self.F) <= target:
            n = len(self.F)
            rowsT = self._t_layer(n)
            self._push(self._f_layer(n, rowsT), rowsT)


def layer_builder(string_class: StringClass) -> _LayerBuilder:
    """A new, empty builder for a supported class (unconstrained or solus).

    A builder keeps every layer it has built.  Pass one to joint_table or
    fewones_count to share the layers across lengths; they are freed with
    the builder.
    """
    if string_class is StringClass.UNCONSTRAINED:
        return _LayerBuilder(string_class, 0, lam_unconstrained)
    if string_class is StringClass.SOLUS:
        return _LayerBuilder(string_class, 1, lam_solus)
    raise UnsupportedClass(f"no joint recursion for {string_class}")


@dataclass(frozen=True)
class JointTable:
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


def joint_table(
    n: int, string_class: StringClass, layers: _LayerBuilder | None = None
) -> JointTable:
    """The (zero count, longest zero run) table for length n.

    Without `layers` the DP layers are built for this call alone and
    freed when it returns; callers that ask for many lengths pass one
    builder from layer_builder(string_class).
    """
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    b = layer_builder(string_class) if layers is None else layers
    if b.string_class is not string_class:
        raise ValueError(f"layers of {b.string_class} cannot serve {string_class}")
    b.extend(n)
    if string_class is StringClass.SOLUS:
        # combine two raw layers; lengths 0 and 1 are diagonal
        if n < 2:
            rows = tuple(
                tuple(1 if x == y else 0 for y in range(x + 1)) for x in range(n + 1)
            )
        else:
            rows = tuple(
                tuple(
                    b.F[n][x][y] + (b.F[n - 1][x][y] if x <= n - 1 else 0)
                    for y in range(x + 1)
                )
                for x in range(n + 1)
            )
    else:
        rows = tuple(tuple(row) for row in b.F[n])
    return JointTable(n, string_class, rows)


@dataclass(frozen=True)
class JointReport:
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
    """JointReports for several lengths, in the order given, from one set
    of series expansions at max(ns)."""
    if any(n < 0 for n in ns):
        raise ValueError("lengths must be nonnegative")
    order = max(ns)
    rs = rs_numerator(string_class, order)
    counts = _counts_cached(string_class, order)
    triple = bitsum_triple(string_class)
    s1, s2 = triple.a.expand(order), triple.b.expand(order)
    r1, r2 = _numerator_cached(string_class, 0, order)[:2]
    out = []
    for n in ns:
        d = counts[n]
        er, es = Fraction(r1[n], d), Fraction(s1[n], d)
        ers = Fraction(rs[n], d)
        cov = ers - er * es
        vr = Fraction(r2[n], d) - er * er
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
    n: int,
    ell: int,
    k: int,
    string_class: StringClass = StringClass.SOLUS,
    layers: _LayerBuilder | None = None,
) -> int:
    """Table-based count of length-n class strings with bitsum < ell and
    longest zero run < k; `layers` as for joint_table."""
    if ell < 1 or k < 1 or n < 0:
        raise ValueError("fewones_count needs ell, k >= 1 and n >= 0")
    table = joint_table(n, string_class, layers)
    return sum(
        table.count(n - s, y)
        for s in range(min(ell - 1, n) + 1)
        for y in range(min(k - 1, n) + 1)
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


def _cf5(n: int, k: int, layers: _LayerBuilder | None) -> int:
    if n < 1 or n > 5 * k - 1:
        return 0
    if n <= 2 or 2 * k + 2 <= n <= 3 * k:
        # outside the published piecewise regions
        return fewones_count(n, 5, k, layers=layers)
    if n <= k:
        m = n - 2
        num = 24 * (4 - _delta(k, n)) - 6 * m + 35 * m * m - 6 * m**3 + m**4
        return _exact_div(num, 24)
    if n <= 2 * k + 1:
        return _cf5(n - 1, k, layers) + _u5(k, n)
    if n == 3 * k + 1:
        return fewones_peak_value_mid(k)
    if n <= 4 * k:
        return _cf5(n - 1, k, layers) - _v5(k, n)
    m = 5 * k - n
    return _exact_div(6 * m + 11 * m * m + 6 * m**3 + m**4, 24)


def fewones_closed_form(
    n: int, ell: int, k: int, layers: _LayerBuilder | None = None
) -> int:
    """Piecewise closed form for fewones_count(n, ell, k) on the
    no-adjacent-1s class, available for ell in 2..5 and k >= 2.

    The ell = 5 form has no published pieces for n <= 2, for the plateau
    2k + 2 <= n <= 3k, or for k = 2; those fall back to the table count,
    built on `layers` as for joint_table.
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
        return fewones_count(n, 5, k, layers=layers)
    return _cf5(n, k, layers)


def rs_numerator_approx(order: int, ell_max: int = 5) -> TruncatedSeries:
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
    layers = layer_builder(StringClass.SOLUS)

    def f(ell: int, k: int):
        if 2 <= ell <= 5:
            return [
                fewones_closed_form(n, ell, k, layers) if n else 1 for n in range(order + 1)
            ]
        return [fewones_count(n, ell, k, layers=layers) for n in range(order + 1)]

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
    return TruncatedSeries(acc)
