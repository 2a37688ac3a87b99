from fractions import Fraction
from functools import partial

import pytest

from bitruns import ensembles
from bitruns.crossrun import cross_report_oracle
from bitruns.ensembles import (
    StringClass,
    bit_string,
    class_member,
    compositions,
    enumerate_classes,
    oracle_tally,
    run_stats,
)
from bitruns.errors import EmptyEnsemble, LimitExceeded

from families import oracle


def _word(bits):
    """(v, n) for a 0/1 sequence, position i at bit i."""
    return sum(b << i for i, b in enumerate(bits)), len(bits)


def _bits(v, n):
    return tuple((v >> i) & 1 for i in range(n))


# -- the bit-tuple routes the integer forms replaced, kept as references --


def _tuple_run_stats(bits):
    r0 = r1 = s = 0
    cur = -1
    run = 0
    for b in bits:
        run = run + 1 if b == cur else 1
        cur = b
        if b:
            s += 1
            if run > r1:
                r1 = run
        elif run > r0:
            r0 = run
    return (r0, r1, s)


def _tuple_composition(bits):
    parts = []
    gap = 0
    for b in list(bits) + [1]:
        gap += 1
        if b:
            parts.append(gap)
            gap = 0
    return tuple(parts)


def _tuple_member(bits, cls):
    """Class membership read off the runs, with no bit arithmetic."""
    n = len(bits)
    ones_separated = all(not (bits[i] and bits[i + 1]) for i in range(n - 1))

    def clumped(b):
        return all(
            bits[i] != b
            or (i > 0 and bits[i - 1] == b)
            or (i < n - 1 and bits[i + 1] == b)
            for i in range(n)
        )

    return {
        StringClass.UNCONSTRAINED: True,
        StringClass.SOLUS: ones_separated,
        StringClass.MULTUS: clumped(1),
        StringClass.BIMULTUS: clumped(1) and clumped(0),
        StringClass.PERSOLUS: ones_separated and clumped(0),
    }[cls]


def test_from_name():
    assert StringClass.from_name("Solus") is StringClass.SOLUS
    with pytest.raises(ValueError):
        StringClass.from_name("bogus")


@pytest.mark.parametrize(
    "bits,cls,member",
    [
        ((1, 0, 1), StringClass.SOLUS, True),
        ((1, 1, 0), StringClass.SOLUS, False),
        ((1, 1, 0), StringClass.MULTUS, True),
        ((0, 1, 0), StringClass.MULTUS, False),
        ((1, 1, 0, 0), StringClass.BIMULTUS, True),
        ((1, 1, 0, 1, 1), StringClass.BIMULTUS, False),
        ((0, 0, 1, 0, 0), StringClass.PERSOLUS, True),
        ((0, 1, 0), StringClass.PERSOLUS, False),
        ((), StringClass.PERSOLUS, True),
    ],
)
def test_class_member(bits, cls, member):
    assert class_member(*_word(bits), cls) is member


def test_run_stats():
    assert run_stats(*_word((0, 0, 1, 1, 1, 0))) == (2, 3, 3)
    assert run_stats(0, 0) == (0, 0, 0)
    assert run_stats(0b11, 2) == (0, 2, 2)
    assert run_stats(0b11, 4) == (2, 2, 2)  # leading zeros are positions 2, 3


def test_complement_swaps_the_runs_and_the_bits():
    """The symmetry the oracle's tally rests on: a statistic of the 0s of
    v is that of the 1s of its complement c.  So c swaps r0 and r1 and
    has n - s ones, bimultus is multus on v and on c, and persolus is
    solus on v and multus on c."""
    for n in range(13):
        mask = (1 << n) - 1
        for v in range(1 << n):
            c = v ^ mask
            r0, r1, s = run_stats(v, n)
            assert run_stats(c, n) == (r1, r0, n - s), (v, n)
            solus = class_member(v, n, StringClass.SOLUS)
            multus = class_member(v, n, StringClass.MULTUS)
            zeros_clumped = class_member(c, n, StringClass.MULTUS)
            for cls, want in (
                (StringClass.BIMULTUS, multus and zeros_clumped),
                (StringClass.PERSOLUS, solus and zeros_clumped),
            ):
                assert class_member(v, n, cls) is want, (v, n, cls)
                assert _tuple_member(_bits(v, n), cls) is want, (v, n, cls)


def test_enumerate_classes_totals():
    # fibonacci-like counts for the no-adjacent-1s class
    got = [oracle(n)[StringClass.SOLUS].total for n in range(8)]
    assert got == [1, 2, 3, 5, 8, 13, 21, 34]
    assert oracle(5)[StringClass.UNCONSTRAINED].total == 32


def test_enumerate_classes_counts_are_consistent():
    dist = oracle(6)[StringClass.MULTUS]
    assert dist.total == sum(c for _, c in dist.counts)
    tally = oracle_tally(dist, lambda *key: key)
    assert tally[(6, 0, 0)] == 1  # the all-zero string
    assert (9, 9, 9) not in tally


def _per_class_loop(n, cls):
    """The oracle before enumerate_classes: one pass over 2^n per class."""

    def isolated(v):
        return v & (v >> 1) == 0

    def clumped(v):
        return v & ~((v << 1) | (v >> 1)) == 0

    def zeros_clumped(v):
        mask = (1 << n) - 1
        c = ~v & mask
        return c & ~((c << 1) | (c >> 1)) & mask == 0

    member = {
        StringClass.UNCONSTRAINED: lambda v: True,
        StringClass.SOLUS: isolated,
        StringClass.MULTUS: clumped,
        StringClass.BIMULTUS: lambda v: clumped(v) and zeros_clumped(v),
        StringClass.PERSOLUS: lambda v: isolated(v) and zeros_clumped(v),
    }[cls]
    acc = {}
    for v in range(1 << n):
        if member(v):
            key = _tuple_run_stats(_bits(v, n))
            acc[key] = acc.get(key, 0) + 1
    return tuple(sorted(acc.items())), sum(acc.values())


def test_one_pass_matches_per_class_loops():
    for n in range(15):
        dists = oracle(n)
        assert list(dists) == list(StringClass)
        for cls, dist in dists.items():
            assert (dist.n, dist.string_class) == (n, cls)
            assert (dist.counts, dist.total) == _per_class_loop(n, cls), (n, cls)


def test_oracle_bound(monkeypatch):
    with pytest.raises(LimitExceeded, match="^n=30 exceeds the oracle bound 24$"):
        enumerate_classes(30)
    # the bound is read at call time
    monkeypatch.setattr(ensembles, "DEFAULT_ORACLE_BOUND", 5)
    with pytest.raises(LimitExceeded, match="^n=6 exceeds the oracle bound 5$"):
        enumerate_classes(6)
    with pytest.raises(LimitExceeded, match="^n=6 exceeds the oracle bound 5$"):
        cross_report_oracle(6, StringClass.UNCONSTRAINED)
    assert enumerate_classes(5)[StringClass.SOLUS].total == 13


def _mean(dist, f):
    return Fraction(sum(v * c for v, c in oracle_tally(dist, f).items()), dist.total)


def test_oracle_tally():
    dist = oracle(2)[StringClass.UNCONSTRAINED]
    # "00", "01", "10", "11": r0 = 2, 1, 1, 0, r1 = 0, 1, 1, 2 and s = 0, 1, 1, 2
    assert oracle_tally(dist, lambda r0, r1, s: s) == {0: 1, 1: 2, 2: 1}
    assert oracle_tally(dist, lambda r0, r1, s: (r0, r1)) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert oracle_tally(dist, lambda r0, r1, s: r0 * s) == {0: 2, 1: 2}
    assert _mean(dist, lambda r0, r1, s: s) == 1
    assert _mean(dist, lambda r0, r1, s: r1) == 1
    assert _mean(dist, lambda r0, r1, s: r0 * r1) == Fraction(2, 4)
    assert _mean(dist, lambda r0, r1, s: r0 * s) == Fraction(2, 4)


def test_oracle_tally_empty_ensemble():
    dist = oracle(1)[StringClass.BIMULTUS]
    assert dist.total == 0
    assert oracle_tally(dist, lambda r0, r1, s: s) == {}
    # the mean has no reader of its own: the oracle's correlation refuses it
    with pytest.raises(EmptyEnsemble, match="^no bimultus strings of length 1$"):
        cross_report_oracle(1, StringClass.BIMULTUS)


#: Keys to tally by, given the length n first: the identity, one
#: statistic, the joint table's (zeros, r0) cell, and a constant.
_KEYS = {
    "identity": lambda n, r0, r1, s: (r0, r1, s),
    "r0": lambda n, r0, r1, s: r0,
    "zeros-r0": lambda n, r0, r1, s: (n - s, r0),
    "constant": lambda n, r0, r1, s: "all",
}


@pytest.mark.parametrize("cls", list(StringClass))
@pytest.mark.parametrize("key", list(_KEYS))
def test_oracle_tally_recounts_the_strings(cls, key):
    """oracle_tally(dist, f) equals f counted string by string, with
    run_stats and class_member over range(1 << n)."""
    for n in range(11):
        f = partial(_KEYS[key], n)
        want = {}
        for v in range(1 << n):
            if class_member(v, n, cls):
                k = f(*run_stats(v, n))
                want[k] = want.get(k, 0) + 1
        dist = oracle(n)[cls]
        got = oracle_tally(dist, f)
        assert got == want, (cls, n, key)
        assert sum(got.values()) == dist.total


@pytest.mark.parametrize(
    "call, n",
    [
        pytest.param(lambda: enumerate_classes(-1), -1, id="enumerate_classes"),
        pytest.param(lambda: run_stats(0, -1), -1, id="run_stats"),
        pytest.param(lambda: compositions(-1), -1, id="compositions"),
        pytest.param(lambda: bit_string(0, -1), -1, id="bit_string"),
        pytest.param(
            lambda: class_member(0, -1, StringClass.MULTUS), -1, id="class_member"
        ),
        pytest.param(
            lambda: cross_report_oracle(-1, StringClass.UNCONSTRAINED),
            -1,
            id="cross_report_oracle",
        ),
    ],
)
def test_negative_length_is_named(call, n):
    """Checked before any work, where a shift by n would fail unnamed."""
    with pytest.raises(ValueError, match=f"^length must be nonnegative, got {n}$"):
        call()


def test_to_composition():
    """Item v of compositions(n) is the composition of the string v."""
    v, n = _word((0, 1, 0, 0))
    assert list(compositions(n))[v] == (2, 3)
    assert list(compositions(0)) == [(1,)]
    for n in range(7):
        for v, parts in enumerate(compositions(n)):
            r0, _, s = run_stats(v, n)
            assert sum(parts) == n + 1
            assert len(parts) == s + 1
            assert max(parts) == r0 + 1


def test_compositions_stop_at_the_last_string():
    """One composition per string and none past the last, v = 2^n - 1."""
    for n in range(7):
        assert sum(1 for _ in compositions(n)) == 1 << n


def test_bit_string():
    assert bit_string(0, 0) == ""
    assert bit_string(0b0110, 5) == "01100"
    assert bit_string(*_word((1, 0, 0, 1))) == "1001"


def test_integer_forms_match_tuple_routes():
    for n in range(13):
        for v, parts in zip(range(1 << n), compositions(n), strict=True):
            bits = _bits(v, n)
            assert bit_string(v, n) == "".join(map(str, bits))
            assert parts == _tuple_composition(bits), (v, n)
            assert run_stats(v, n) == _tuple_run_stats(bits), (v, n)
            for cls in StringClass:
                assert class_member(v, n, cls) is _tuple_member(bits, cls), (v, n, cls)


@pytest.mark.parametrize("fn", [run_stats, bit_string])
def test_string_out_of_range(fn):
    for v, n in ((4, 2), (-1, 3), (1, 0)):
        with pytest.raises(ValueError):
            fn(v, n)
    with pytest.raises(ValueError):
        class_member(8, 3, StringClass.SOLUS)
