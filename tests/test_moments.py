import hashlib
import random
from bisect import bisect_left
from fractions import Fraction
from math import comb
from operator import mul

import pytest

from bitruns import moments
from bitruns.catalog import cap_form, defined_families
from bitruns.ensembles import StringClass
from bitruns.errors import BitrunsError, EmptyEnsemble, UndefinedFamily, UnsupportedMoment
from bitruns.moments import (
    MAX_MOMENT,
    _cap_sums,
    _signed_sum,
    _times,
    moment_weight,
    run_numerators,
    run_variance_table,
)
from bitruns.series import RationalGF, divide, terms_mul

from families import FAMILIES, oracle, oracle_sum


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
        dists = [oracle(n)[cls] for n in range(1, 9)]
        dists = [d for d in dists if d.total]
        reports = run_variance_table([d.n for d in dists], cls, bit)
        for dist, r in zip(dists, reports):
            for m, got in enumerate(_moments(r), 1):
                want = Fraction(oracle_sum(dist, lambda *key: key[bit] ** m), dist.total)
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
    sums = [oracle_sum(dist, lambda *key: key[bit] ** m) for m in range(1, MAX_MOMENT + 1)]
    return tuple(sums + [oracle_sum(dist, lambda *key: key[bit] * key[2])])


@pytest.mark.parametrize("cls,bit", defined_families())
def test_run_numerators_match_oracle(cls, bit):
    ns = list(range(ORACLE_N + 1))
    want = [_oracle_numerators(oracle(n)[cls], bit) for n in ns]
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
    want = [_oracle_numerators(oracle(n)[cls], bit) for n in ns]
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


#: sha256 of repr(run_numerators(cls, bit, PIN_NS[, bitsum=True])),
#: recorded before the cap sum's reader was rewritten: every digit of
#: sums as large as 2^1000 * 10^12, far past the series route's reach
PIN_NS = [1000, 3, 0, 1000, 517]
PINS = {
    ("bimultus", 0, False): "7ccb497da8031dc68070316c7a760672754022b597c8d27570064f61bfbe0e55",
    ("bimultus", 0, True): "644f8c9839418aa852fec31f3222c7554e4d73ac42ee81581a9c24ae6d18f780",
    ("bimultus", 1, False): "7ccb497da8031dc68070316c7a760672754022b597c8d27570064f61bfbe0e55",
    ("multus", 0, False): "b2288c8b5745667c0d5e79ebaa5303b6d5c5c1c12b2785233c91aff2a8aed5ab",
    ("multus", 0, True): "ee5c95e929048a3921b26d009414e0da8c2296a3553be82d78fdeb9ddca05aa0",
    ("multus", 1, False): "e806e8b5523df9d0c6a3b18c4cade77d78fb3b901efadc60f11797931b839301",
    ("persolus", 0, False): "52bb9a2a2be298718d0f959ee9679b7b1cbd0ba65399c75f2b9f7c4bbf5faf71",
    ("persolus", 0, True): "221956e5130281169dd5e6c425fcd90f32b9a953fff876729f465170a5fdc0fa",
    ("solus", 0, False): "8e5aaf66bfa93dadedc09de3a97892ee6cd70c646aa562d59bb843348efea8f8",
    ("solus", 0, True): "f88d1cc16cfea7896ef53e8f033d4ce043b319921771481d086b7beb6a7c175a",
    ("unconstrained", 0, False): "1c8f6339399002ff08e5c918562dfa0f66451d5cd115d4c00acb2580759e746b",
    ("unconstrained", 0, True): "ee64139e4ab9ace071236352b32a46cd236a9b2b5c24193979540e179780566f",
    ("unconstrained", 1, False): "1c8f6339399002ff08e5c918562dfa0f66451d5cd115d4c00acb2580759e746b",
}


def test_run_numerators_pinned_at_large_n():
    assert {(c.value, b) for c, b in defined_families()} == {
        (c, b) for c, b, _ in PINS
    }
    for (cls, bit, bitsum), want in PINS.items():
        got = run_numerators(StringClass(cls), bit, PIN_NS, bitsum=bitsum)
        assert hashlib.sha256(repr(got).encode()).hexdigest() == want, (cls, bit, bitsum)


#: sha256 of repr(run_numerators(cls, bit, ns[, bitsum=True])) at paper
#: scale, recorded while every cap was read off the rows: at N = 4000 the
#: split is K = 44, so most caps below n are expanded on their own
SPLIT_PINS = {
    ("unconstrained", 0, (4000, 2999, 1), True): "d860f22dd442d64b6c4a0553b65d4393439718fa1e05d81536c6f0bb3ddc367a",
    ("solus", 0, (4000, 2999, 1), True): "feadb86eebbb3d1ff409650770570561b29ef3b9b602058aeb16f6e94c21a9cf",
    ("multus", 1, (4000,), False): "f6f2f2ae197e4f87ae2a85c98ee5d840a95239728ed2b82cc01ed380e75c4965",
}


@pytest.mark.slow
@pytest.mark.parametrize("cls,bit,ns,bitsum", SPLIT_PINS)
def test_run_numerators_pinned_at_paper_scale(cls, bit, ns, bitsum):
    got = run_numerators(StringClass(cls), bit, list(ns), bitsum=bitsum)
    want = SPLIT_PINS[cls, bit, ns, bitsum]
    assert hashlib.sha256(repr(got).encode()).hexdigest() == want


# ---------------------------------------------------------------------------
# the split of the caps between their own expansions and the rows

SPLIT_N = 150


def _all_rows_route(cls, bit, ns, bitsum=False):
    """The reader the split replaced, kept as its reference: every cap
    k > lo off the rows, with c up to N / (lo + 1 + l)."""
    form = cap_form(cls, bit)
    lo, e = form.lo, form.e
    k0, step = lo + 1, lo + 1 + form.lo_other
    lengths = sorted(set(ns))
    order = lengths[-1]
    weights = [
        [moment_weight(m, k) for k in range(k0, order + 1)]
        for m in range(2, MAX_MOMENT + 1)
    ]
    families, sums = [], {n: [] for n in lengths}
    for d, b, moments in [(1, form.q, MAX_MOMENT), (2, form.t1, 1)][: 1 + bitsum]:
        b0, at = b[0][0], len(sums[order])
        families.append((d, b0, tuple((x - b0, a) for x, a in b), moments, at))
        f = RationalGF(terms_mul(*[form.p] * d, b), terms_mul(*[e] * d))
        g = RationalGF(b, terms_mul(*[form.q_other] * d))
        f, g = f.expand(order), g.expand(order)
        for n in lengths:
            j = min(lo, n)
            sums[n] += [j**m * (f[n] - g[n]) for m in range(1, moments + 1)]

    def width(j):
        return max([0] + [order - (j + 1 - d) * step - b0 + 1 for d, b0, *_ in families])

    us = []
    for j in range(families[-1][0]):
        us.append(divide(us[-1] if us else [1], e, width(j)))
    for c in range(order // step + 1):
        for d, b0, b, moments, at in families:
            last = order - c * step - b0 + 1
            rows = [_times(b, us[d - 1], last)]
            for _ in range(d):
                rows.insert(0, _times(form.p, rows[0], last))
            scale = (-1) ** c * comb(c + d - 1, d - 1)
            fs = [(-1) ** i * comb(d, i) for i in range(c == 0, d + 1)]
            slices = [(rows[i], c + i) for i in range(c == 0, d + 1)]
            dots = weights[: moments - 1]
            first = c * step + (c == 0) * k0 + b0
            for n in lengths[bisect_left(lengths, first) :]:
                tops = range(n - first, -1, -k0)
                segs = [row[t::-by] for (row, by), t in zip(slices, tops)]
                if dots:
                    vec = _signed_sum(fs, segs)
                    got = [sum(vec)] + [sum(map(mul, w, vec)) for w in dots]
                else:
                    got = [sum(map(mul, fs, map(sum, segs)))]
                s = sums[n]
                for m, y in enumerate(got, at):
                    s[m] -= scale * y
        us = us[1:] + [divide(us[-1], e, width(c + len(us)))]
    return [tuple(sums[n]) for n in ns]


@pytest.mark.parametrize("cls,bit", defined_families())
def test_every_split_equals_the_all_rows_route(cls, bit):
    """At every split K from lo + 1, where no cap is expanded, to N + 1,
    where every cap is, the split reader equals the all-rows route, at
    lengths around K, repeated, out of order, and 0."""
    form = cap_form(cls, bit)
    every = range(SPLIT_N + 1)
    for bitsum in [False, True][: 1 + (form.t1 is not None)]:
        want = dict(zip(every, _all_rows_route(cls, bit, every, bitsum)))
        assert run_numerators(cls, bit, every, bitsum) == list(want.values())
        for split in range(form.lo + 1, SPLIT_N + 2):
            ns = sorted({0, split - 1, split, split + 1, 2 * split} & want.keys())
            ns = [SPLIT_N] + ns[::-1] + ns[1:2]
            sums = _cap_sums(form, sorted(set(ns)), bitsum, split)
            assert [tuple(sums[n]) for n in ns] == [want[n] for n in ns], (bitsum, split)


def test_split_grows_as_the_square_root_of_n(monkeypatch):
    """K = max(lo + 1, isqrt(N // 2)) for N = max(ns): no cap is expanded
    at verify's lengths, and the caps lo < k < 10 are at N = 200."""
    splits = []
    cap_sums = moments._cap_sums

    def recorded(form, lengths, bitsum, split):
        splits.append(split)
        return cap_sums(form, lengths, bitsum, split)

    monkeypatch.setattr(moments, "_cap_sums", recorded)
    for ns in ([0], [13, 2], [200, 7]):
        run_numerators(StringClass.BIMULTUS, 0, ns)
    assert splits == [3, 3, 10]
