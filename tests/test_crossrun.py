from fractions import Fraction
from functools import lru_cache

import pytest

from bitruns import crossrun
from bitruns.catalog import cross_gf
from bitruns.cli import EXIT_USAGE, main
from bitruns.crossrun import (
    cross_numerator,
    cross_report_oracle,
    cross_report_table,
    largest_part_row,
)
from bitruns.ensembles import StringClass, enumerate_joint
from bitruns.errors import DegenerateVariance, UnsupportedClass


CROSS_CLASSES = [StringClass.UNCONSTRAINED, StringClass.MULTUS, StringClass.BIMULTUS]


@pytest.mark.parametrize("cls", CROSS_CLASSES)
def test_cross_moment_matches_oracle(cls):
    xnum = cross_numerator(cls, range(15))
    for n in range(15):
        dist = enumerate_joint(n, cls)
        assert xnum[n] == sum(c * r0 * r1 for (r0, r1, _), c in dist.counts), (cls, n)
    ns = [n for n in range(11) if enumerate_joint(n, cls).total > 1]
    for r in cross_report_table(ns, cls):
        want = Fraction(xnum[r.n], enumerate_joint(r.n, cls).total)
        assert r.mean_product == want, (cls, r.n)
    # any order, repeats and a single length read the same sums
    mixed = [14, 3, 14, 0, 9]
    assert cross_numerator(cls, mixed) == [xnum[n] for n in mixed]
    assert cross_numerator(cls, []) == []


def _compositions(x, m, lo):
    """Every composition of x into m parts >= lo."""
    if m == 0:
        if x == 0:
            yield ()
        return
    for first in range(lo, x - lo * (m - 1) + 1):
        for rest in _compositions(x - first, m - 1, lo):
            yield (first,) + rest


@pytest.mark.parametrize("lo", [1, 2])
def test_largest_part_rows_match_enumeration(lo):
    """M(x, m), the sum of the largest part over the compositions of x
    into m parts >= lo, for every x <= 16 and every m."""
    top = 16
    for m in range(1, top + 2):
        want = [sum(map(max, _compositions(x, m, lo))) for x in range(top + 1)]
        assert largest_part_row(lo, m, top) == want, (lo, m)


def test_cross_numerator_negative_length():
    with pytest.raises(ValueError, match="lengths must be nonnegative"):
        cross_numerator(StringClass.MULTUS, [5, -1])


def test_cross_numerator_unsupported_class():
    for cls in (StringClass.SOLUS, StringClass.PERSOLUS):
        with pytest.raises(UnsupportedClass):
            cross_numerator(cls, [5])


def test_cross_report_consistency():
    (r,) = cross_report_table([12], StringClass.UNCONSTRAINED)
    o = cross_report_oracle(12, StringClass.UNCONSTRAINED)
    assert (r.mean_r0, r.mean_other) == (o.mean_r0, o.mean_other)
    assert (r.var_r0, r.var_other) == (o.var_r0, o.var_other)
    assert r.covariance == o.covariance
    assert r.rho() == o.rho()


def test_cross_report_symmetry_unconstrained():
    (r,) = cross_report_table([9], StringClass.UNCONSTRAINED)
    assert r.mean_r0 == r.mean_other
    assert r.var_r0 == r.var_other


def test_cross_report_table_alignment():
    table = cross_report_table([5, 10], StringClass.MULTUS)
    assert [r.n for r in table] == [5, 10]
    assert table[1] == cross_report_table([10], StringClass.MULTUS)[0]
    # a negative length must not read a coefficient from the far end
    with pytest.raises(ValueError):
        cross_report_table([10, -1], StringClass.MULTUS)


def test_cross_report_oracle_any_class():
    r = cross_report_oracle(8, StringClass.BIMULTUS)
    assert r.covariance == r.mean_product - r.mean_r0 * r.mean_other
    assert r.rho().startswith("-")  # negatively correlated


def test_degenerate_variance():
    with pytest.raises(DegenerateVariance):
        cross_report_table([0], StringClass.UNCONSTRAINED)


def _forbid_product(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a sum started")

    for name in ("cross_numerator", "run_numerators"):
        monkeypatch.setattr(crossrun, name, forbidden)


def test_degenerate_length_fails_before_the_product(monkeypatch):
    """At n = 1 every multus string is 0, so var R1 = 0: that ends the
    table before any sum to n = 200 starts."""
    _forbid_product(monkeypatch)
    with pytest.raises(DegenerateVariance):
        cross_report_table([200, 1], StringClass.MULTUS)


def test_table1_checks_both_classes_before_either_product(monkeypatch, capsys):
    _forbid_product(monkeypatch)
    assert main(["table1", "--lengths", "1,200"]) == EXIT_USAGE
    assert capsys.readouterr().err == "bitruns: zero run-length variance at n=1 for multus\n"


def test_table2_refuses_a_degenerate_length_before_the_cap_sum(monkeypatch, capsys):
    _forbid_product(monkeypatch)
    assert main(["table2", "--lengths", "200,0"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "bitruns: zero run-length variance at n=0 for unconstrained\n"
    )


def _cross_numerator_full(cls, order):
    """The sum over all (order + 1)^2 two-run GFs f_{i,j}, as a reference
    for cross_numerator."""
    acc = [0] * (order + 1)

    @lru_cache(maxsize=None)
    def f(i, j):
        return cross_gf(cls, i, j).expand(order)

    for i in range(1, order + 2):
        for j in range(1, order + 2):
            a, b, c, d = f(i + 1, j + 1), f(i, j + 1), f(i + 1, j), f(i, j)
            for n in range(order + 1):
                acc[n] += i * j * (a[n] - b[n] - c[n] + d[n])
    return acc


@pytest.mark.parametrize("cls", CROSS_CLASSES)
@pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 40])
def test_cross_numerator_matches_full_pair_sum(cls, order):
    want = _cross_numerator_full(cls, order)
    assert cross_numerator(cls, range(order + 1)) == want


# The pair sum by parts over the two-run GFs, with coefficient lists
# built term by term and every f_{a,b} expanded from z^0, kept as a
# reference.


def _dense(*terms):
    out = [0] * (max(e for e, _ in terms) + 1)
    for e, c in terms:
        out[e] += c
    return out


def _dense_cross_gf(cls, i, j):
    if cls is StringClass.UNCONSTRAINED:
        return (
            _dense((0, 1), (i, -1), (j, -1), (i + j, 1)),
            _dense((0, 1), (1, -2), (i + 1, 1), (j + 1, 1), (i + j, -1)),
        )
    if i == 1 and j == 1 or j == 1 and i <= 2:
        return [0], [1]
    if i == 1:
        return _dense((1, 1), (j, -1)), [1, -1]
    if j == 1:
        return _dense((2, 1), (i, -1)), [1, -1]
    num = _dense(
        (0, 1), (2, 1), (i - 1, -1), (i, -1), (j - 1, -1), (j, 1), (j + 1, -2),
        (i + j - 1, 2),
    )
    den = _dense((0, 1), (1, -2), (2, 1), (3, -1), (i + 1, 1), (j + 2, 1), (i + j, -1))
    return [0] + num, den


def _dense_expand(num, den, order):
    c = []
    for n in range(order + 1):
        s = num[n] if n < len(num) else 0
        for m in range(1, min(n, len(den) - 1) + 1):
            s -= den[m] * c[n - m]
        c.append(s)
    return c


def _cross_numerator_dense(cls, order):
    acc = [0] * (order + 1)
    for s in range(2, order + 3):
        for a in range(1, s):
            b = s - a
            if s <= order:
                w = 1
            elif s == order + 1:
                w = 1 - a * b
            else:
                w = (a - 1) * (b - 1)
            for n, c in enumerate(_dense_expand(*_dense_cross_gf(cls, a, b), order)):
                acc[n] += w * c
    return acc


@pytest.mark.parametrize("cls", [StringClass.UNCONSTRAINED, StringClass.MULTUS])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 40, 90])
def test_cross_numerator_matches_dense_route(cls, order):
    want = _cross_numerator_dense(cls, order)
    assert cross_numerator(cls, range(order + 1)) == want
