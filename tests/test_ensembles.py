from fractions import Fraction

import pytest

from bitruns.ensembles import (
    StringClass,
    class_member,
    enumerate_classes,
    enumerate_joint,
    iter_strings,
    oracle_moment,
    run_stats,
    to_composition,
)
from bitruns.errors import EmptyEnsemble, OracleBoundExceeded


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
    assert class_member(bits, cls) is member


def test_run_stats():
    assert run_stats((0, 0, 1, 1, 1, 0)) == (2, 3, 3)
    assert run_stats(()) == (0, 0, 0)
    assert run_stats((1, 1)) == (0, 2, 2)


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
            key = run_stats([(v >> i) & 1 for i in range(n)])
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
    assert oracle_moment(dist, "S") == 1
    assert oracle_moment(dist, "R1") == 1
    assert oracle_moment(dist, "R0*R1") == Fraction(2, 4)


def test_oracle_moment_empty_ensemble():
    with pytest.raises(EmptyEnsemble):
        oracle_moment(enumerate_joint(1, StringClass.BIMULTUS), "S")


def test_to_composition():
    assert to_composition((0, 1, 0, 0)) == [2, 3]
    assert to_composition(()) == [1]
    for n in range(7):
        for bits in iter_strings(n):
            parts = to_composition(bits)
            r0, _, s = run_stats(bits)
            assert sum(parts) == n + 1
            assert len(parts) == s + 1
            assert max(parts) == r0 + 1


def test_iter_strings():
    assert list(iter_strings(0)) == [()]
    assert len(set(iter_strings(4))) == 16
