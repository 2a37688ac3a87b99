import random
from fractions import Fraction

import pytest

from bitruns.catalog import defined_families
from bitruns.ensembles import StringClass, enumerate_joint
from bitruns.errors import BitrunsError, EmptyEnsemble, UndefinedFamily, UnsupportedMoment
from bitruns.moments import (
    MAX_MOMENT,
    moment_weight,
    run_numerators,
    run_variance_table,
)

from families import FAMILIES


def test_moment_weight_telescopes():
    for m in range(1, 5):
        for k in range(1, 8):
            assert moment_weight(m, k) == k**m - (k - 1) ** m


def test_moment_weight_out_of_range():
    with pytest.raises(UnsupportedMoment):
        moment_weight(5, 1)
    with pytest.raises(UnsupportedMoment):
        moment_weight(0, 1)


def _moments(r):
    return (r.mean, r.second_moment, r.third_moment, r.fourth_moment)


def test_run_moment_matches_oracle():
    for cls, bit in defined_families():
        dists = [enumerate_joint(n, cls) for n in range(1, 9)]
        dists = [d for d in dists if d.total]
        reports = run_variance_table([d.n for d in dists], cls, bit)
        for dist, r in zip(dists, reports):
            for m, got in enumerate(_moments(r), 1):
                want = Fraction(
                    sum(cnt * key[bit] ** m for key, cnt in dist.counts),
                    dist.total,
                )
                assert got == want, (cls, bit, dist.n, m)


def test_run_moment_known_value():
    # mean longest 1-run over the 4 strings of length 2: (0+1+1+2)/4
    assert run_variance_table([2], StringClass.UNCONSTRAINED, 1)[0].mean == 1


def test_run_moment_empty_ensemble():
    with pytest.raises(EmptyEnsemble):
        run_variance_table([1], StringClass.BIMULTUS, 0)


def test_run_moment_negative_length():
    with pytest.raises(ValueError):
        run_variance_table([-1], StringClass.SOLUS, 0)


def test_run_numerators_negative_length():
    with pytest.raises(ValueError, match="lengths must be nonnegative"):
        run_numerators(StringClass.MULTUS, 0, [5, -1])


def test_run_variance_report():
    (r,) = run_variance_table([10], StringClass.SOLUS, 0)
    assert r.variance == r.second_moment - r.mean * r.mean
    assert (r.n, r.string_class, r.bit) == (10, StringClass.SOLUS, 0)
    assert r.variance > 0


def _numerator_per_moment(family, m, order):
    """One telescoping sum per moment order: the route the one-pass
    series route replaced, kept as its reference."""
    acc = [0] * (order + 1)
    h = family.H.expand(order)
    for k in range(1, order + 3):
        c = family.hk(k).expand(order)
        w = moment_weight(m, k)
        for n in range(order + 1):
            acc[n] += w * (h[n] - c[n])
    return acc


@pytest.mark.parametrize("cls,bit", defined_families())
def test_moment_numerator_matches_per_moment_sums(series_moments, cls, bit):
    fam = FAMILIES[cls, bit]
    got = series_moments(fam, 40)
    assert len(got) == MAX_MOMENT
    for m in range(1, MAX_MOMENT + 1):
        assert got[m - 1] == _numerator_per_moment(fam, m, 40), m


def _single(n, cls, bit):
    """The table's report at the one length n, or the type of its error."""
    try:
        (r,) = run_variance_table([n], cls, bit)
        return r
    except BitrunsError as exc:
        return type(exc)


@pytest.mark.parametrize("cls,bit", defined_families())
def test_run_variance_table_matches_single_lengths(cls, bit):
    single = {n: _single(n, cls, bit) for n in range(61)}
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


# ---------------------------------------------------------------------------
# the cap sum against the oracle and the series route

ORACLE_N = 14
SERIES_N = 90


def _oracle_numerators(dist, bit):
    """Sums of R^m, m = 1..MAX_MOMENT, and of R * bitsum over the strings
    of one length, R the longest run of `bit`."""
    sums = [
        sum(cnt * key[bit] ** m for key, cnt in dist.counts)
        for m in range(1, MAX_MOMENT + 1)
    ]
    return tuple(sums + [sum(cnt * key[bit] * key[2] for key, cnt in dist.counts)])


@pytest.mark.parametrize("cls,bit", defined_families())
def test_run_numerators_match_oracle(cls, bit):
    ns = list(range(ORACLE_N + 1))
    want = [_oracle_numerators(enumerate_joint(n, cls), bit) for n in ns]
    assert run_numerators(cls, bit, ns) == [w[:MAX_MOMENT] for w in want]
    if bit == 0:
        assert run_numerators(cls, 0, ns, bitsum=True) == want


@pytest.mark.parametrize(
    "cls,bit,ns",
    [
        (StringClass.MULTUS, 1, [1]),
        (StringClass.MULTUS, 1, [1, 2]),
        (StringClass.BIMULTUS, 0, [2]),
        (StringClass.BIMULTUS, 0, [3]),
        (StringClass.BIMULTUS, 1, [2, 3]),
        (StringClass.PERSOLUS, 0, [2]),
        (StringClass.PERSOLUS, 0, [3, 2]),
    ],
)
def test_run_numerators_below_the_shortest_run(cls, bit, ns):
    """Lengths with no room for a cap above the shortest run: every k <=
    n fits no run, or only at k = n."""
    want = [_oracle_numerators(enumerate_joint(n, cls), bit) for n in ns]
    assert run_numerators(cls, bit, ns) == [w[:MAX_MOMENT] for w in want]
    if bit == 0:
        assert run_numerators(cls, 0, ns, bitsum=True) == want


@pytest.mark.parametrize("cls,bit", defined_families())
def test_run_numerators_equal_series_route(series_moments, cls, bit):
    """The cap sum equals the series route at every n <= 90, for a
    dense sweep, single lengths, and shuffled and repeated lengths."""
    ref = series_moments(FAMILIES[cls, bit], SERIES_N)
    want = {n: tuple(s[n] for s in ref) for n in range(SERIES_N + 1)}
    ns = list(range(SERIES_N + 1))
    assert run_numerators(cls, bit, ns) == [want[n] for n in ns]
    for n in (0, 1, 2, 3, 4, 17, SERIES_N):
        assert run_numerators(cls, bit, [n]) == [want[n]]
    mixed = list(range(0, SERIES_N + 1, 7)) * 2
    random.Random(f"{cls}/{bit}").shuffle(mixed)
    assert run_numerators(cls, bit, mixed) == [want[n] for n in mixed]
    assert run_numerators(cls, bit, []) == []


def test_run_numerators_bitsum_needs_bit_0():
    with pytest.raises(UndefinedFamily):
        run_numerators(StringClass.MULTUS, 1, [5], bitsum=True)
    with pytest.raises(UndefinedFamily):
        run_numerators(StringClass.SOLUS, 1, [5])
