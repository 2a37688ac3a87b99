import gc
import weakref
from fractions import Fraction

import pytest

from bitruns import jointdp
from bitruns.catalog import count_gf
from bitruns.ensembles import StringClass, enumerate_joint
from bitruns.errors import DegenerateVariance, OutOfFormulaRange, UnsupportedClass
from bitruns.jointdp import (
    fewones_closed_form,
    fewones_count,
    fewones_peak,
    fewones_peak_value_mid,
    joint_rs_report,
    joint_rs_report_table,
    joint_table,
    lam_solus,
    lam_unconstrained,
    layer_builder,
    rs_numerator_approx,
)


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
        layer_builder(StringClass.MULTUS)


def test_boundary_counts():
    # strings with a single 1: the lam values, summed, count them all
    for n in range(2, 12):
        assert sum(lam_unconstrained(n, y) for y in range(n // 2, n)) == n
    assert lam_solus(5, 2) == 1
    assert lam_solus(5, 4) == 1
    assert lam_solus(6, 5) == 1
    assert lam_solus(6, 3) == 2


def test_joint_rs_report_exact_fields():
    r = joint_rs_report(10, StringClass.UNCONSTRAINED)
    dist = enumerate_joint(10, StringClass.UNCONSTRAINED)
    er0 = Fraction(sum(c * r0 for (r0, _, s), c in dist.counts), dist.total)
    es = Fraction(sum(c * s for (_, _, s), c in dist.counts), dist.total)
    ers = Fraction(sum(c * r0 * s for (r0, _, s), c in dist.counts), dist.total)
    assert r.mean_run == er0
    assert r.mean_bitsum == es
    assert r.mean_product == ers
    assert r.covariance == ers - er0 * es


def test_joint_rs_report_degenerate():
    with pytest.raises(DegenerateVariance):
        joint_rs_report(0, StringClass.UNCONSTRAINED)


def _dp_moments(n, cls):
    """E[R0], E[S], Var R0, Var S, E[R0 S] and Cov reduced from the joint
    table: the dynamic-programming reference for the series route."""
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
    ns = list(range(60, 0, -1))
    for n, r in zip(ns, joint_rs_report_table(ns, cls)):
        assert r.n == n and r.string_class is cls
        got = (
            r.mean_run, r.mean_bitsum, r.var_run, r.var_bitsum,
            r.mean_product, r.covariance,
        )
        assert got == _dp_moments(n, cls), (cls, n)
    assert joint_rs_report(7, cls) == joint_rs_report_table([3, 7], cls)[1]
    with pytest.raises(DegenerateVariance):
        joint_rs_report(0, cls)


def test_joint_rs_report_rejects_bad_input():
    with pytest.raises(ValueError):
        joint_rs_report_table([5, -1], StringClass.SOLUS)
    with pytest.raises(UnsupportedClass):
        joint_rs_report(5, StringClass.MULTUS)
    with pytest.raises(ValueError):
        joint_table(-1, StringClass.SOLUS)
    with pytest.raises(ValueError):
        joint_table(3, StringClass.SOLUS, layer_builder(StringClass.UNCONSTRAINED))


def test_joint_table_frees_its_layers(monkeypatch):
    made = []

    def tracked(cls):
        b = layer_builder(cls)
        made.append(weakref.ref(b))
        return b

    monkeypatch.setattr(jointdp, "layer_builder", tracked)
    d = count_gf(StringClass.SOLUS).expand(60)
    assert joint_table(60, StringClass.UNCONSTRAINED).total == 2**60
    assert joint_table(60, StringClass.SOLUS).total == d[60]
    gc.collect()
    assert len(made) == 2
    assert all(ref() is None for ref in made)


def test_shared_layers_serve_every_length():
    layers = layer_builder(StringClass.SOLUS)
    for n in (7, 3, 12):
        assert joint_table(n, StringClass.SOLUS, layers) == joint_table(n, StringClass.SOLUS)
    assert len(layers.F) == 13


def test_fewones_count_matches_brute_force():
    for n in range(11):
        for ell in (2, 3, 5):
            for k in (2, 3, 7):
                want = sum(
                    cnt
                    for (r0, _, s), cnt in enumerate_joint(n, StringClass.SOLUS).counts
                    if s < ell and r0 < k
                )
                assert fewones_count(n, ell, k) == want


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
        approx = list(rs_numerator_approx(top, ell_max).coeffs)
        assert approx[:top] == exact[:top], ell_max
        assert approx[top] < exact[top], ell_max
    with pytest.raises(ValueError):
        rs_numerator_approx(5, 1)
