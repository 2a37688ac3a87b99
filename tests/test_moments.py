import random
from fractions import Fraction

import pytest

from bitruns.catalog import defined_families, run_family
from bitruns.ensembles import StringClass, enumerate_joint
from bitruns.errors import BitrunsError, EmptyEnsemble, UnsupportedMoment
from bitruns.moments import (
    MAX_MOMENT,
    moment_numerator,
    moment_weight,
    run_moment,
    run_variance_report,
    run_variance_table,
)
from bitruns.series import TruncatedSeries


def test_moment_weight_telescopes():
    for m in range(1, 5):
        for k in range(1, 8):
            assert moment_weight(m, k) == k**m - (k - 1) ** m


def test_moment_weight_out_of_range():
    with pytest.raises(UnsupportedMoment):
        moment_weight(5, 1)
    with pytest.raises(UnsupportedMoment):
        moment_weight(0, 1)


def test_run_moment_matches_oracle():
    for cls, bit in defined_families():
        for n in range(1, 9):
            dist = enumerate_joint(n, cls)
            if dist.total == 0:
                continue
            for m in (1, 2, 3, 4):
                want = Fraction(
                    sum(cnt * key[bit] ** m for key, cnt in dist.counts),
                    dist.total,
                )
                assert run_moment(n, cls, bit, m) == want, (cls, bit, n, m)


def test_run_moment_known_value():
    # mean longest 1-run over the 4 strings of length 2: (0+1+1+2)/4
    assert run_moment(2, StringClass.UNCONSTRAINED, 1, 1) == 1


def test_run_moment_empty_ensemble():
    with pytest.raises(EmptyEnsemble):
        run_moment(1, StringClass.BIMULTUS, 0, 1)


def test_run_moment_negative_length():
    with pytest.raises(ValueError):
        run_moment(-1, StringClass.SOLUS, 0, 1)


def test_run_variance_report():
    r = run_variance_report(10, StringClass.SOLUS, 0)
    assert r.variance == r.second_moment - r.mean * r.mean
    assert r.mean == run_moment(10, StringClass.SOLUS, 0, 1)
    assert r.fourth_moment == run_moment(10, StringClass.SOLUS, 0, 4)
    assert r.variance > 0


def _numerator_per_moment(family, m, order):
    """One telescoping sum per moment order, a series op per term: the
    route the one-pass moment_numerator replaced, kept as its reference."""
    acc = TruncatedSeries.zero(order)
    h = family.H.expand(order)
    for k in range(1, order + 3):
        acc = acc + (h - family.hk(k).expand(order)).scale(moment_weight(m, k))
    return acc


@pytest.mark.parametrize("cls,bit", defined_families())
def test_moment_numerator_matches_per_moment_sums(cls, bit):
    fam = run_family(cls, bit)
    got = moment_numerator(fam, 40)
    assert len(got) == MAX_MOMENT
    for m in range(1, MAX_MOMENT + 1):
        assert got[m - 1] == _numerator_per_moment(fam, m, 40), m


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BitrunsError as exc:
        return type(exc)


@pytest.mark.parametrize("cls,bit", defined_families())
def test_run_variance_table_matches_single_lengths(cls, bit):
    single = {n: _outcome(run_variance_report, n, cls, bit) for n in range(61)}
    ok = [n for n, r in single.items() if not isinstance(r, type)]
    random.Random(f"{cls}/{bit}").shuffle(ok)
    assert run_variance_table(ok, cls, bit) == [single[n] for n in ok]
    # a length the single-length route rejects fails the whole table alike
    for n, r in single.items():
        if isinstance(r, type):
            with pytest.raises(r):
                run_variance_table(ok + [n], cls, bit)
    with pytest.raises(ValueError):
        run_variance_table(ok + [-1], cls, bit)
    assert run_variance_table([], cls, bit) == []
