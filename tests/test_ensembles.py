from fractions import Fraction

import pytest

from bitruns.ensembles import (
    StringClass,
    bit_string,
    class_member,
    enumerate_classes,
    enumerate_joint,
    oracle_moment,
    run_stats,
    to_composition,
)
from bitruns.errors import EmptyEnsemble, OracleBoundExceeded


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
    return parts


def _tuple_member(bits, cls):
    """Class membership read off the runs, with no bit arithmetic."""
    n = len(bits)
    ones_isolated = all(not (bits[i] and bits[i + 1]) for i in range(n - 1))

    def clumped(b):
        return all(
            bits[i] != b
            or (i > 0 and bits[i - 1] == b)
            or (i < n - 1 and bits[i + 1] == b)
            for i in range(n)
        )

    return {
        StringClass.UNCONSTRAINED: True,
        StringClass.SOLUS: ones_isolated,
        StringClass.MULTUS: clumped(1),
        StringClass.BIMULTUS: clumped(1) and clumped(0),
        StringClass.PERSOLUS: ones_isolated and clumped(0),
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


def test_enumerate_joint_totals():
    # fibonacci-like counts for the no-adjacent-1s class
    got = [enumerate_joint(n, StringClass.SOLUS).total for n in range(8)]
    assert got == [1, 2, 3, 5, 8, 13, 21, 34]
    assert enumerate_joint(5, StringClass.UNCONSTRAINED).total == 32


def test_enumerate_joint_counts_are_consistent():
    dist = enumerate_joint(6, StringClass.MULTUS)
    assert dist.total == sum(c for _, c in dist.counts)
    assert dist.count(6, 0, 0) == 1  # the all-zero string
    assert dist.count(9, 9, 9) == 0


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
    for n in range(13):
        dists = enumerate_classes(n)
        assert list(dists) == list(StringClass)
        for cls, dist in dists.items():
            assert (dist.n, dist.string_class) == (n, cls)
            assert (dist.counts, dist.total) == _per_class_loop(n, cls), (n, cls)
            assert enumerate_joint(n, cls) == dist


def test_oracle_bound():
    with pytest.raises(OracleBoundExceeded):
        enumerate_joint(30, StringClass.SOLUS)
    with pytest.raises(OracleBoundExceeded):
        enumerate_classes(6, bound=5)
    enumerate_joint(5, StringClass.SOLUS, bound=5)


def test_oracle_moment():
    dist = enumerate_joint(2, StringClass.UNCONSTRAINED)
    assert oracle_moment(dist, lambda r0, r1, s: s) == 1
    assert oracle_moment(dist, lambda r0, r1, s: r1) == 1
    assert oracle_moment(dist, lambda r0, r1, s: r0 * r1) == Fraction(2, 4)
    # "00", "01", "10", "11": r0 = 2, 1, 1, 0 and s = 0, 1, 1, 2
    assert oracle_moment(dist, lambda r0, r1, s: r0 * s) == Fraction(2, 4)


def test_oracle_moment_empty_ensemble():
    with pytest.raises(EmptyEnsemble):
        oracle_moment(enumerate_joint(1, StringClass.BIMULTUS), lambda r0, r1, s: s)


def test_to_composition():
    assert to_composition(*_word((0, 1, 0, 0))) == [2, 3]
    assert to_composition(0, 0) == [1]
    for n in range(7):
        for v in range(1 << n):
            parts = to_composition(v, n)
            r0, _, s = run_stats(v, n)
            assert sum(parts) == n + 1
            assert len(parts) == s + 1
            assert max(parts) == r0 + 1


def test_bit_string():
    assert bit_string(0, 0) == ""
    assert bit_string(0b0110, 5) == "01100"
    assert bit_string(*_word((1, 0, 0, 1))) == "1001"


def test_integer_forms_match_tuple_routes():
    for n in range(13):
        for v in range(1 << n):
            bits = _bits(v, n)
            assert bit_string(v, n) == "".join(map(str, bits))
            assert to_composition(v, n) == _tuple_composition(bits), (v, n)
            assert run_stats(v, n) == _tuple_run_stats(bits), (v, n)
            for cls in StringClass:
                assert class_member(v, n, cls) is _tuple_member(bits, cls), (v, n, cls)


@pytest.mark.parametrize("fn", [run_stats, to_composition, bit_string])
def test_string_out_of_range(fn):
    for v, n in ((4, 2), (-1, 3), (1, 0)):
        with pytest.raises(ValueError):
            fn(v, n)
    with pytest.raises(ValueError):
        class_member(8, 3, StringClass.SOLUS)
