from fractions import Fraction
from itertools import accumulate

import pytest

from bitruns.catalog import count_gf
from bitruns.ensembles import StringClass, oracle_tally
from bitruns.errors import DegenerateVariance, OutOfFormulaRange, UnsupportedClass
from bitruns.crossrun import joint_rs_report_table
from bitruns.jointdp import (
    fewones_closed_form,
    fewones_count,
    fewones_peak,
    joint_table,
    rs_numerator_approx,
)

from families import oracle, oracle_sum

U = StringClass.UNCONSTRAINED
SOL = StringClass.SOLUS


# ---------------------------------------------------------------------------
# Reference route: an O(n^3) dynamic program over layers of length n,
# independent of the binomial sums in joint_table; it backs them the way
# the dense route backs cross_numerator.
#
# F_n(x, y) counts length-n strings with x zeros whose longest zero run is
# exactly y.  kappa = 0 with the unconstrained boundary gives all 0/1
# strings; kappa = 1 with the isolated-ones boundary gives raw layers whose
# two-layer combination F_{n-1} + F_n (n >= 2) counts strings with no two
# adjacent 1s.  T is the running diagonal sum and P the per-layer prefix
# sum over y.


def lam_unconstrained(n, y):
    """F_n(n-1, y) over all strings: one string when the single 1 sits at
    the center of an odd-length string, two otherwise."""
    return 1 if (n % 2 == 1 and y == (n - 1) // 2) else 2


def lam_solus(n, y):
    """Raw-layer boundary F_n(n-1, y) for the no-adjacent-1s recursion."""
    if n % 2 == 1:
        return 1 if (y == (n - 1) // 2 or y == n - 1) else 2
    return 1 if y == n - 1 else 2


class _LayerBuilder:
    """Incrementally grown F/P layers with the previous layer's T."""

    def __init__(self, kappa, lam):
        self.kappa = kappa
        self.lam = lam
        self.F = []
        self.P = []
        self.Tprev = None

    def _t_layer(self, n):
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

    def _f_layer(self, n, rowsT):
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

    def extend(self, target):
        while len(self.F) <= target:
            n = len(self.F)
            rowsT = self._t_layer(n)
            rowsF = self._f_layer(n, rowsT)
            self.F.append(rowsF)
            self.P.append([list(accumulate(row)) for row in rowsF])
            self.Tprev = rowsT


def _dp_rows(n, cls, b):
    """The joint table rows for length n from builder b of class cls."""
    b.extend(n)
    if cls is SOL:
        # combine two raw layers; lengths 0 and 1 are diagonal
        if n < 2:
            return tuple(
                tuple(1 if x == y else 0 for y in range(x + 1)) for x in range(n + 1)
            )
        return tuple(
            tuple(
                b.F[n][x][y] + (b.F[n - 1][x][y] if x <= n - 1 else 0)
                for y in range(x + 1)
            )
            for x in range(n + 1)
        )
    return tuple(tuple(row) for row in b.F[n])


_DP_BUILDERS = {U: (0, lam_unconstrained), SOL: (1, lam_solus)}


@pytest.mark.parametrize("cls", [U, SOL])
def test_joint_table_matches_dp(cls):
    b = _LayerBuilder(*_DP_BUILDERS[cls])
    for n in range(61):
        assert joint_table(n, cls).rows == _dp_rows(n, cls, b), (cls, n)


def _oracle_table(n, cls):
    return oracle_tally(oracle(n)[cls], lambda r0, r1, s: (n - s, r0))


@pytest.mark.parametrize("cls", [StringClass.UNCONSTRAINED, StringClass.SOLUS])
def test_joint_table_matches_oracle(cls):
    for n in range(11):
        table = joint_table(n, cls)
        want = _oracle_table(n, cls)
        for x in range(n + 1):
            for y in range(x + 1):
                assert table.count(x, y) == want.get((x, y), 0), (cls, n, x, y)
        assert table.count(n + 1, 0) == 0


def test_mass_conservation():
    d = count_gf(StringClass.SOLUS).expand(40)
    for n in range(41):
        assert joint_table(n, StringClass.UNCONSTRAINED).total == 2**n
        assert joint_table(n, StringClass.SOLUS).total == d[n]


def test_layer_builder_unsupported():
    with pytest.raises(UnsupportedClass):
        joint_table(5, StringClass.MULTUS)
    with pytest.raises(UnsupportedClass):
        fewones_count(5, 3, 3, StringClass.MULTUS)


def test_boundary_counts():
    # strings with a single 1: the lam values, summed, count them all
    for n in range(2, 12):
        assert sum(lam_unconstrained(n, y) for y in range(n // 2, n)) == n
    assert lam_solus(5, 2) == 1
    assert lam_solus(5, 4) == 1
    assert lam_solus(6, 5) == 1
    assert lam_solus(6, 3) == 2


def test_joint_rs_report_exact_fields():
    (r,) = joint_rs_report_table([10], StringClass.UNCONSTRAINED)
    dist = oracle(10)[StringClass.UNCONSTRAINED]
    er0 = Fraction(oracle_sum(dist, lambda r0, r1, s: r0), dist.total)
    es = Fraction(oracle_sum(dist, lambda r0, r1, s: s), dist.total)
    ers = Fraction(oracle_sum(dist, lambda r0, r1, s: r0 * s), dist.total)
    assert r.mean_r0 == er0
    assert r.mean_other == es
    assert r.mean_product == ers
    assert r.covariance == ers - er0 * es


def test_joint_rs_report_degenerate():
    with pytest.raises(DegenerateVariance):
        joint_rs_report_table([0], StringClass.UNCONSTRAINED)


def _table_moments(n, cls):
    """E[R0], E[S], Var R0, Var S, E[R0 S] and Cov reduced from the joint
    table: the binomial-sum reference for the series route."""
    table = joint_table(n, cls)
    sums = [0] * 5  # R0, S, R0^2, S^2, R0 S
    for x, row in enumerate(table.rows):
        s = n - x
        for y, c in enumerate(row):
            for i, v in enumerate((y, s, y * y, s * s, y * s)):
                sums[i] += c * v
    er, es, err, ess, ers = (Fraction(v, table.total) for v in sums)
    return er, es, err - er * er, ess - es * es, ers, ers - er * es


@pytest.mark.parametrize("cls", [StringClass.UNCONSTRAINED, StringClass.SOLUS])
def test_joint_rs_report_matches_dp(cls):
    # n = 400 reaches the inclusion-exclusion terms, which mass
    # conservation cannot: each table row sums to its j = 0 term
    ns = [400] + list(range(60, 0, -1))
    for n, r in zip(ns, joint_rs_report_table(ns, cls)):
        assert r.n == n and r.string_class is cls
        got = (
            r.mean_r0, r.mean_other, r.var_r0, r.var_other,
            r.mean_product, r.covariance,
        )
        assert got == _table_moments(n, cls), (cls, n)
    assert joint_rs_report_table([7], cls) == joint_rs_report_table([3, 7], cls)[1:]
    with pytest.raises(DegenerateVariance):
        joint_rs_report_table([0], cls)


def test_joint_rs_report_rejects_bad_input():
    with pytest.raises(ValueError):
        joint_rs_report_table([5, -1], StringClass.SOLUS)
    with pytest.raises(ValueError):
        joint_table(-1, StringClass.SOLUS)


def test_joint_rs_report_multus_matches_oracle():
    """Multus, which had no hand-written bitsum GFs, against the oracle."""
    ns = list(range(14, 1, -1))
    for n, r in zip(ns, joint_rs_report_table(ns, StringClass.MULTUS)):
        dist = oracle(n)[StringClass.MULTUS]
        er, es, err, ess, ers = (
            Fraction(oracle_sum(dist, f), dist.total)
            for f in (
                lambda r0, r1, s: r0,
                lambda r0, r1, s: s,
                lambda r0, r1, s: r0 * r0,
                lambda r0, r1, s: s * s,
                lambda r0, r1, s: r0 * s,
            )
        )
        got = (
            r.mean_r0, r.mean_other, r.var_r0, r.var_other,
            r.mean_product, r.covariance,
        )
        assert got == (er, es, err - er * er, ess - es * es, ers, ers - er * es), n
    for n in (0, 1):  # the empty string; the one string "0"
        with pytest.raises(DegenerateVariance):
            joint_rs_report_table([n], StringClass.MULTUS)


@pytest.mark.parametrize("cls", [U, SOL])
def test_fewones_count_matches_brute_force(cls):
    # ell = 1 and k = 1 reach the edges s = 0 and y = 0 (solus: "1")
    for n in range(11):
        dist = oracle(n)[cls]
        for ell in (1, 2, 3, 5):
            for k in (1, 2, 3, 7):
                want = oracle_sum(dist, lambda r0, r1, s: s < ell and r0 < k)
                assert fewones_count(n, ell, k, cls) == want, (cls, n, ell, k)


def test_fewones_count_unconstrained_variant():
    want = oracle_sum(oracle(8)[StringClass.UNCONSTRAINED], lambda r0, r1, s: s < 3 and r0 < 4)
    assert fewones_count(8, 3, 4, StringClass.UNCONSTRAINED) == want


def test_fewones_count_rejects_bad_args():
    with pytest.raises(ValueError):
        fewones_count(5, 0, 3)


# ---------------------------------------------------------------------------
# Published reference: the piecewise closed forms for ell = 2..5 printed in
# arXiv 2005.12185 (criterion 5 of test_acceptance), typed in as published.
# The middle pieces are running sums of published increments from a
# published starting value.  None marks a length with no published piece:
# for ell = 5, n <= 2, the plateau 2k + 2 <= n <= 3k, and every n at k = 2.


def _delta(a, b):
    return 1 if a == b else 0


def _div(num, den):
    q, r = divmod(num, den)
    assert r == 0, (num, den)
    return q


def _cf2(n, k):
    if 1 <= n <= k - 1:
        return n + 1
    if k <= n <= 2 * k - 1:
        return 2 * k - n
    return 0


def _cf3(n, k):
    if n < 1 or n > 3 * k - 1:
        return 0
    if n <= k - 1:
        return 2 + _div(n * n - n, 2)
    if n <= 2 * k:
        steps = (k - 2 if i <= k + 2 else 3 * k - 2 * i + 2 for i in range(k, n + 1))
        return _cf3(k - 1, k) + sum(steps)
    m = 3 * k - n
    return _div(m + m * m, 2)


def _w4(m):
    if m == 1:
        return -2
    if m == 2:
        return 2
    return 3 * m * m - 13 * m + 20


def _u4(k, n):
    if k + 1 <= n <= 2 * k:
        return _div(-k * k + (2 * n - 5) * k - _w4(n - k), 2)
    if n == 2 * k + 1:
        return 2 * (n - k - 3)
    return 0


def _v4(k, n):
    return _div(-20 * k * k + (16 * n - 30) * k - (3 * n * n - 11 * n + 12), 2)


def _cf4(n, k):
    if n < 1 or n > 4 * k - 1:
        return 0
    if n == 1:
        return 2
    if n <= k:
        m = n - 1
        return _div(6 * (1 - _delta(k, n)) + 14 * m - 3 * m * m + m**3, 6)
    if n <= 3 * k:
        up = 2 * k + 2
        steps = (_u4(k, i) if i <= up else -_v4(k, i) for i in range(k + 1, n + 1))
        return _cf4(k, k) + sum(steps)
    m = 4 * k - n
    return _div(2 * m + 3 * m * m + m**3, 6)


def _w5(m):
    if m == 1:
        return 54
    if m in (2, 3):
        return 30
    return 4 * m**3 - 42 * m * m + 176 * m - 240


def _u5(k, n):
    num = k**3 - (3 * n - 12) * k * k + (3 * n * n - 24 * n + 59) * k - _w5(n - k)
    return _delta(2 * k + 1, n) + _div(num, 6)


def _v5(k, n):
    num = (
        -195 * k**3
        + (165 * n - 426) * k * k
        - (45 * n * n - 228 * n + 309) * k
        + (4 * n**3 - 30 * n * n + 80 * n - 72)
    )
    return 3 * _delta(3 * k + 2, n) + _div(num, 6)


def _peak_value_mid(k):
    """a_{3k+1} of the ell = 5 sequence."""
    return _div(11 * k**4 - 2 * k**3 - 35 * k * k - 22 * k + 72, 24)


def _cf5(n, k):
    if k == 2 or n <= 2 or 2 * k + 2 <= n <= 3 * k:
        return None
    if n > 5 * k - 1:
        return 0
    if n <= k:
        m = n - 2
        num = 24 * (4 - _delta(k, n)) - 6 * m + 35 * m * m - 6 * m**3 + m**4
        return _div(num, 24)
    if n <= 2 * k + 1:
        return _cf5(k, k) + sum(_u5(k, i) for i in range(k + 1, n + 1))
    if n <= 4 * k:
        return _peak_value_mid(k) - sum(_v5(k, i) for i in range(3 * k + 2, n + 1))
    m = 5 * k - n
    return _div(6 * m + 11 * m * m + 6 * m**3 + m**4, 24)


_PUBLISHED = {2: _cf2, 3: _cf3, 4: _cf4, 5: _cf5}


def test_closed_forms_equal_counts():
    for ell in (2, 3, 4, 5):
        for k in range(2, 41):
            for n in range(1, ell * k + 2):
                assert fewones_closed_form(n, ell, k) == fewones_count(n, ell, k), (
                    ell,
                    k,
                    n,
                )


def test_closed_forms_equal_the_published_pieces():
    published = 0
    for ell, form in _PUBLISHED.items():
        for k in range(2, 41):
            for n in range(1, ell * k + 2):
                want = form(n, k)
                if want is not None:
                    published += 1
                    assert fewones_closed_form(n, ell, k) == want, (ell, k, n)
    # every length for ell = 2..4; for ell = 5 and k >= 3, the 5k + 1
    # lengths less n = 1, 2 and the k - 1 of the plateau
    want = sum(ell * k + 1 for ell in (2, 3, 4) for k in range(2, 41))
    assert published == want + sum(4 * k for k in range(3, 41))


@pytest.mark.parametrize(
    "n, ell, k", [(3500, 3, 2000), (2500, 4, 1000), (4001, 5, 2000), (7800, 5, 2000)]
)
def test_closed_forms_deep_in_their_running_sums(n, ell, k):
    """Each published running-sum region is thousands of lengths long
    here; the derived piece holds there in O(ell) operations."""
    want = fewones_count(n, ell, k)
    assert fewones_closed_form(n, ell, k) == want
    assert _PUBLISHED[ell](n, k) == want


def test_closed_form_out_of_range():
    with pytest.raises(OutOfFormulaRange):
        fewones_closed_form(5, 6, 3)
    with pytest.raises(OutOfFormulaRange):
        fewones_closed_form(5, 3, 1)
    with pytest.raises(OutOfFormulaRange):
        fewones_closed_form(0, 3, 3)


def test_fewones_peak():
    for k in range(2, 8):
        seq = [fewones_count(n, 5, k) for n in range(1, 5 * k)]
        idx, val = fewones_peak(k)
        assert val == max(seq)
        assert seq[idx - 1] == val
    for k in range(2, 41):
        assert _peak_value_mid(k) == fewones_count(3 * k + 1, 5, k), k
    with pytest.raises(OutOfFormulaRange):
        fewones_peak(1)


def test_rs_numerator_approx_prefix():
    # agrees with the exact product sum through z^(2L-1) and falls short
    # at z^(2L), so the bound is sharp
    exact = []
    for n in range(13):
        dist = oracle(n)[StringClass.SOLUS]
        exact.append(oracle_sum(dist, lambda r0, r1, s: r0 * s))
    for ell_max in range(2, 7):
        top = 2 * ell_max
        approx = list(rs_numerator_approx(top, ell_max))
        assert approx[:top] == exact[:top], ell_max
        assert approx[top] < exact[top], ell_max
    with pytest.raises(ValueError):
        rs_numerator_approx(5, 1)


def _rectangle_route(order, ell_max):
    """The route rs_numerator_approx replaced, with fewones_count at every
    level: differences of the counts with bitsum < ell and longest zero
    run < k isolate the strings with a given bitsum and longest zero run
    k >= 2, each weighted by k times its bitsum."""

    def f(ell, k):
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
            for n in range(order + 1):
                acc[n] += (ell - 1) * k * (a[n] - b[n] - c[n] + d[n])
    return tuple(acc)


def test_rs_numerator_approx_matches_the_rectangle_route():
    for ell_max in range(2, 8):
        assert rs_numerator_approx(30, ell_max) == _rectangle_route(30, ell_max), ell_max


def test_rs_numerator_approx_matches_the_oracle():
    # R0*S over the solus strings with fewer than ell_max ones or R0 <= 1
    approx = {ell_max: rs_numerator_approx(14, ell_max) for ell_max in range(2, 8)}
    for n in range(15):
        tally = oracle_tally(oracle(n)[SOL], lambda r0, r1, s: (r0, s))
        for ell_max, got in approx.items():
            want = sum(c * r0 * s for (r0, s), c in tally.items() if s < ell_max or r0 <= 1)
            assert got[n] == want, (n, ell_max)
