from fractions import Fraction
from itertools import accumulate

import pytest

from bitruns.catalog import count_gf
from bitruns.ensembles import StringClass, enumerate_joint
from bitruns.errors import DegenerateVariance, OutOfFormulaRange, UnsupportedClass
from bitruns.crossrun import joint_rs_report_table
from bitruns.jointdp import (
    fewones_closed_form,
    fewones_count,
    fewones_peak,
    fewones_peak_value_mid,
    joint_table,
    rs_numerator_approx,
)

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
    want = {}
    for (r0, _, s), cnt in enumerate_joint(n, cls).counts:
        key = (n - s, r0)
        want[key] = want.get(key, 0) + cnt
    return want


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
    dist = enumerate_joint(10, StringClass.UNCONSTRAINED)
    er0 = Fraction(sum(c * r0 for (r0, _, s), c in dist.counts), dist.total)
    es = Fraction(sum(c * s for (_, _, s), c in dist.counts), dist.total)
    ers = Fraction(sum(c * r0 * s for (r0, _, s), c in dist.counts), dist.total)
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
        dist = enumerate_joint(n, StringClass.MULTUS)
        er, es, err, ess, ers = (
            Fraction(sum(c * f(r0, s) for (r0, _, s), c in dist.counts), dist.total)
            for f in (
                lambda r0, s: r0,
                lambda r0, s: s,
                lambda r0, s: r0 * r0,
                lambda r0, s: s * s,
                lambda r0, s: r0 * s,
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
        counts = enumerate_joint(n, cls).counts
        for ell in (1, 2, 3, 5):
            for k in (1, 2, 3, 7):
                want = sum(cnt for (r0, _, s), cnt in counts if s < ell and r0 < k)
                assert fewones_count(n, ell, k, cls) == want, (cls, n, ell, k)


def test_fewones_count_unconstrained_variant():
    want = sum(
        cnt
        for (r0, _, s), cnt in enumerate_joint(8, StringClass.UNCONSTRAINED).counts
        if s < 3 and r0 < 4
    )
    assert fewones_count(8, 3, 4, StringClass.UNCONSTRAINED) == want


def test_fewones_count_rejects_bad_args():
    with pytest.raises(ValueError):
        fewones_count(5, 0, 3)


def test_closed_forms_equal_counts():
    for ell in (2, 3, 4, 5):
        for k in (2, 3, 4, 6):
            for n in range(1, ell * k + 2):
                assert fewones_closed_form(n, ell, k) == fewones_count(n, ell, k), (
                    ell,
                    k,
                    n,
                )


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
        assert fewones_peak_value_mid(k) == fewones_count(3 * k + 1, 5, k)
    with pytest.raises(OutOfFormulaRange):
        fewones_peak(1)


def test_rs_numerator_approx_prefix():
    # agrees with the exact product sum through z^(2L-1) and falls short
    # at z^(2L), so the bound is sharp
    exact = []
    for n in range(13):
        dist = enumerate_joint(n, StringClass.SOLUS)
        exact.append(sum(c * r0 * s for (r0, _, s), c in dist.counts))
    for ell_max in range(2, 7):
        top = 2 * ell_max
        approx = list(rs_numerator_approx(top, ell_max))
        assert approx[:top] == exact[:top], ell_max
        assert approx[top] < exact[top], ell_max
    with pytest.raises(ValueError):
        rs_numerator_approx(5, 1)
