"""Every exact route against the oracle on random (class, n <= 14), and
on every class at n = 0, where the empty string is the one member.

Three independent routes give the same moments: the generating-function
tables (`run_variance_table`, `cross_report_table`,
`joint_rs_report_table`), the bounded-composition `joint_table`, and
exhaustive enumeration.  Each route is compared wherever it applies to
the class, and refuses the class everywhere else.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitruns.catalog import defined_families
from bitruns.crossrun import correlation_counts, cross_report_table, joint_rs_report_table
from bitruns.ensembles import StringClass
from bitruns.errors import DegenerateVariance, EmptyEnsemble, UnsupportedClass
from bitruns.jointdp import joint_table
from bitruns.moments import run_variance_table

from families import oracle, oracle_sum

U, SOLUS, MULTUS, BIMULTUS, PERSOLUS = StringClass

#: Classes each route covers; the rest must raise UnsupportedClass.
#: joint_rs_report_table covers every class.
CROSS_CLASSES = {U, MULTUS, BIMULTUS}
JOINT_TABLE_CLASSES = {U, SOLUS}



def _mean(dist, f):
    """The mean of f(r0, r1, s) over the class strings, from the tally."""
    return Fraction(oracle_sum(dist, f), dist.total)


def _table_moments(table):
    """E[R0], E[R0^2], E[S], E[S^2], E[R0 S] summed from the joint table."""
    n = table.n
    sums = [0] * 5
    for x, row in enumerate(table.rows):
        s = n - x
        for y, c in enumerate(row):
            for i, v in enumerate((y, y * y, s, s * s, y * s)):
                sums[i] += c * v
    return [Fraction(v, table.total) for v in sums]


def test_route_classes_match_the_catalog():
    bits = {cls: {b for c, b in defined_families() if c is cls} for cls in StringClass}
    assert CROSS_CLASSES == {cls for cls, b in bits.items() if b == {0, 1}}


@settings(max_examples=100, deadline=None)
@given(cls=st.sampled_from(StringClass), n=st.integers(0, 14))
@example(cls=BIMULTUS, n=1)  # the one length with no class strings
# n = 0: the empty string alone, in every class
@example(cls=U, n=0)
@example(cls=SOLUS, n=0)
@example(cls=MULTUS, n=0)
@example(cls=BIMULTUS, n=0)
@example(cls=PERSOLUS, n=0)
def test_routes_agree_with_the_oracle(cls, n):
    dist = oracle(n)[cls]
    families = [b for c, b in defined_families() if c is cls]
    if dist.total == 0:
        for bit in families:
            with pytest.raises(EmptyEnsemble):
                run_variance_table([n], cls, bit)
        tables = [joint_rs_report_table]
        if cls in CROSS_CLASSES:
            tables.append(cross_report_table)
        for table in tables:
            for ns in ([n], [n + 2, n]):
                with pytest.raises(EmptyEnsemble):
                    table(ns, cls)
        return

    e_r0, e_r0sq, e_r1, e_r1sq, e_s, e_ssq, e_r0r1, e_r0s = (
        _mean(dist, f)
        for f in (
            lambda r0, r1, s: r0,
            lambda r0, r1, s: r0 * r0,
            lambda r0, r1, s: r1,
            lambda r0, r1, s: r1 * r1,
            lambda r0, r1, s: s,
            lambda r0, r1, s: s * s,
            lambda r0, r1, s: r0 * r1,
            lambda r0, r1, s: r0 * s,
        )
    )
    var_r0, var_r1, var_s = e_r0sq - e_r0**2, e_r1sq - e_r1**2, e_ssq - e_s**2

    for bit in families:
        (r,) = run_variance_table([n], cls, bit)
        got = (r.mean, r.second_moment, r.third_moment, r.fourth_moment)
        want = tuple(_mean(dist, lambda *k, m=m: k[bit] ** m) for m in (1, 2, 3, 4))
        assert got == want, (cls, n, bit)

    if cls not in CROSS_CLASSES:
        with pytest.raises(UnsupportedClass):
            cross_report_table([n], cls)
    elif var_r0 == 0 or var_r1 == 0:
        with pytest.raises(DegenerateVariance):
            cross_report_table([n], cls)
    else:
        (x,) = cross_report_table([n], cls)
        assert (x.mean_r0, x.mean_other, x.var_r0, x.var_other) == (e_r0, e_r1, var_r0, var_r1)
        assert x.mean_product == e_r0r1
        assert x.covariance == e_r0r1 - e_r0 * e_r1

    if var_r0 == 0 or var_s == 0:
        with pytest.raises(DegenerateVariance):
            joint_rs_report_table([n], cls)
    else:
        (j,) = joint_rs_report_table([n], cls)
        assert (j.mean_r0, j.mean_other, j.var_r0, j.var_other) == (
            e_r0, e_s, var_r0, var_s
        )
        assert j.mean_product == e_r0s
        assert j.covariance == e_r0s - e_r0 * e_s

    if cls not in JOINT_TABLE_CLASSES:
        with pytest.raises(UnsupportedClass):
            joint_table(n, cls)
    else:
        table = joint_table(n, cls)
        assert table.total == dist.total
        assert _table_moments(table) == [e_r0, e_r0sq, e_s, e_ssq, e_r0s]


@pytest.mark.parametrize("cls", list(StringClass))
def test_no_lengths_give_no_rows(cls):
    assert cross_report_table([], cls) == []
    assert joint_rs_report_table([], cls) == []


def _variance(dist, i):
    return _mean(dist, lambda *k: k[i] ** 2) - _mean(dist, lambda *k: k[i]) ** 2


@pytest.mark.parametrize("cls", list(StringClass))
def test_zero_variances_are_the_single_string_lengths(cls):
    """var R0, var R1 and var S vanish together, exactly at the lengths
    with one class string, which correlation_counts refuses."""
    for n in range(15):
        dist = oracle(n)[cls]
        if dist.total == 0:
            with pytest.raises(EmptyEnsemble):
                correlation_counts(cls, [n])
            continue
        single = dist.total == 1
        assert [_variance(dist, i) == 0 for i in range(3)] == [single] * 3, (cls, n)
        if single:
            with pytest.raises(DegenerateVariance, match=f"at n={n} for {cls}$"):
                correlation_counts(cls, [n, n + 2])
        else:
            assert correlation_counts(cls, [n])[n] == dist.total
