from fractions import Fraction
from functools import lru_cache

import pytest

from bitruns.catalog import cross_gf
from bitruns.crossrun import (
    cross_moment,
    cross_numerator,
    cross_report,
    cross_report_oracle,
    cross_report_table,
)
from bitruns.ensembles import StringClass, enumerate_joint
from bitruns.errors import DegenerateVariance, UnsupportedClass
from bitruns.series import TruncatedSeries


@pytest.mark.parametrize("cls", [StringClass.UNCONSTRAINED, StringClass.MULTUS])
def test_cross_moment_matches_oracle(cls):
    for n in range(1, 11):
        dist = enumerate_joint(n, cls)
        if dist.total == 0:
            continue
        want = Fraction(
            sum(c * r0 * r1 for (r0, r1, _), c in dist.counts), dist.total
        )
        assert cross_moment(n, cls) == want, (cls, n)


def test_cross_numerator_unsupported_class():
    with pytest.raises(UnsupportedClass):
        cross_numerator(StringClass.PERSOLUS, 5)


def test_cross_report_consistency():
    r = cross_report(12, StringClass.UNCONSTRAINED)
    o = cross_report_oracle(12, StringClass.UNCONSTRAINED)
    assert (r.mean_r0, r.mean_r1) == (o.mean_r0, o.mean_r1)
    assert (r.var_r0, r.var_r1) == (o.var_r0, o.var_r1)
    assert r.covariance == o.covariance
    assert r.rho == o.rho


def test_cross_report_symmetry_unconstrained():
    r = cross_report(9, StringClass.UNCONSTRAINED)
    assert r.mean_r0 == r.mean_r1
    assert r.var_r0 == r.var_r1


def test_cross_report_table_alignment():
    table = cross_report_table([5, 10], StringClass.MULTUS)
    assert [r.n for r in table] == [5, 10]
    assert table[1].rho == cross_report(10, StringClass.MULTUS).rho
    # a negative length must not read a coefficient from the far end
    with pytest.raises(ValueError):
        cross_report_table([10, -1], StringClass.MULTUS)


def test_cross_report_oracle_any_class():
    r = cross_report_oracle(8, StringClass.BIMULTUS)
    assert r.covariance == r.mean_product - r.mean_r0 * r.mean_r1
    assert r.rho.startswith("-")  # negatively correlated


def test_degenerate_variance():
    with pytest.raises(DegenerateVariance):
        cross_report(0, StringClass.UNCONSTRAINED)


def _cross_numerator_full(cls, order):
    """The unpruned sum over all (order + 1)^2 pairs, as the reference
    for the pruned and symmetric cross_numerator."""
    acc = TruncatedSeries.zero(order)

    @lru_cache(maxsize=None)
    def f(i, j):
        return cross_gf(cls, i, j).expand(order)

    for i in range(1, order + 2):
        for j in range(1, order + 2):
            term = f(i + 1, j + 1) - f(i, j + 1) - f(i + 1, j) + f(i, j)
            acc = acc + term.scale(i * j)
    return acc


@pytest.mark.parametrize("cls", [StringClass.UNCONSTRAINED, StringClass.MULTUS])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 40])
def test_cross_numerator_matches_full_pair_sum(cls, order):
    assert cross_numerator(cls, order) == _cross_numerator_full(cls, order)
