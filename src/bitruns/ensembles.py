"""Bitstring ensembles, per-string statistics and the exhaustive oracle.

The five ensembles:

* unconstrained: every 0/1 string
* solus:     no two adjacent 1s
* multus:    every 1 has an adjacent 1
* bimultus:  every 1 has an adjacent 1 and every 0 has an adjacent 0
* persolus:  no two adjacent 1s and every 0 has an adjacent 0

Everything here is brute force on purpose: this module is the ground
truth that the generating-function and binomial-sum pipelines are
checked against.  A string of length n is an integer v < 2^n whose
bit i is position i, so the per-string statistics are word operations.
``enumerate_joint`` tallies the (r0, r1, s) triples of a class, and
``oracle_moment(dist, f)`` is the one reader of such a tally: the mean
of any function f(r0, r1, s).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import EmptyEnsemble, OracleBoundExceeded

#: Largest n enumerate_joint accepts by default (2^24 strings).
DEFAULT_ORACLE_BOUND = 24


class StringClass(enum.Enum):
    UNCONSTRAINED = "unconstrained"
    SOLUS = "solus"
    MULTUS = "multus"
    BIMULTUS = "bimultus"
    PERSOLUS = "persolus"

    @classmethod
    def from_name(cls, name: str) -> "StringClass":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown string class {name!r}") from None

    def __str__(self) -> str:
        return self.value


class RunStats(NamedTuple):
    r0: int  # longest run of 0s
    r1: int  # longest run of 1s
    s: int   # bitsum (number of 1s)


def _ones_isolated_ok(v: int, n: int) -> bool:
    # solus: no two adjacent 1s
    return v & (v >> 1) == 0


def _ones_clumped_ok(v: int, n: int) -> bool:
    # multus: no isolated 1 bit
    return v & ~((v << 1) | (v >> 1)) == 0


def _zeros_clumped_ok(v: int, n: int) -> bool:
    mask = (1 << n) - 1
    c = ~v & mask
    return c & ~((c << 1) | (c >> 1)) & mask == 0


def _classes_satisfied(ones_isolated: bool, ones_clumped: bool, zeros_clumped: bool):
    yield StringClass.UNCONSTRAINED
    if ones_isolated:
        yield StringClass.SOLUS
    if ones_clumped:
        yield StringClass.MULTUS
    if ones_clumped and zeros_clumped:
        yield StringClass.BIMULTUS
    if ones_isolated and zeros_clumped:
        yield StringClass.PERSOLUS


#: Classes by (ones isolated, ones clumped, zeros clumped).
_CLASSES_BY_PREDICATES = {
    (a, b, c): tuple(_classes_satisfied(a, b, c))
    for a in (False, True)
    for b in (False, True)
    for c in (False, True)
}


def _longest_one_run(v: int) -> int:
    r = 0
    while v:
        v &= v >> 1
        r += 1
    return r


def _check_string(v: int, n: int) -> None:
    if not 0 <= v < 1 << n:
        raise ValueError(f"{v} is not a string of length {n}")


def class_member(v: int, n: int, string_class: StringClass) -> bool:
    """True iff the n-bit string v belongs to the class.  The empty
    string (n = 0) satisfies every predicate vacuously."""
    _check_string(v, n)
    return string_class in _CLASSES_BY_PREDICATES[
        _ones_isolated_ok(v, n), _ones_clumped_ok(v, n), _zeros_clumped_ok(v, n)
    ]


def run_stats(v: int, n: int) -> RunStats:
    """Longest 0-run, longest 1-run and bitsum of the n-bit string v."""
    _check_string(v, n)
    return RunStats(
        _longest_one_run(~v & ((1 << n) - 1)), _longest_one_run(v), v.bit_count()
    )


def bit_string(v: int, n: int) -> str:
    """The n-bit string v as 0/1 text, position 0 first."""
    _check_string(v, n)
    return format(v | 1 << n, "b")[:0:-1]


class JointDistribution(NamedTuple):
    """Exact counts of (r0, r1, s) triples over all class strings of length n."""

    n: int
    string_class: StringClass
    counts: tuple  # ((r0, r1, s), count) pairs, sorted
    total: int

    def count(self, r0: int, r1: int, s: int) -> int:
        return dict(self.counts).get((r0, r1, s), 0)


def enumerate_classes(n: int, bound: int = DEFAULT_ORACLE_BOUND) -> dict:
    """Enumerate all 2^n candidates once and tally (r0, r1, s) into every
    class they belong to: one JointDistribution per StringClass."""
    if n > bound:
        raise OracleBoundExceeded(f"n={n} exceeds the oracle bound {bound}")
    # tally by (r0, r1, s, predicates) first, then credit each tally to
    # every class the predicates admit: one dict update per candidate
    mask = (1 << n) - 1
    tally: dict = {}
    for v in range(1 << n):
        key = (
            _longest_one_run(~v & mask),
            _longest_one_run(v),
            v.bit_count(),
            _ones_isolated_ok(v, n),
            _ones_clumped_ok(v, n),
            _zeros_clumped_ok(v, n),
        )
        tally[key] = tally.get(key, 0) + 1
    acc: dict = {cls: {} for cls in StringClass}
    for key, c in tally.items():
        stats = RunStats(*key[:3])
        for cls in _CLASSES_BY_PREDICATES[key[3:]]:
            acc[cls][stats] = acc[cls].get(stats, 0) + c
    return {
        cls: JointDistribution(n, cls, tuple(sorted(a.items())), sum(a.values()))
        for cls, a in acc.items()
    }


def enumerate_joint(
    n: int,
    string_class: StringClass,
    bound: int = DEFAULT_ORACLE_BOUND,
) -> JointDistribution:
    """Exact (r0, r1, s) counts over the class strings of length n, by
    enumerating all 2^n candidates (see enumerate_classes)."""
    return enumerate_classes(n, bound)[string_class]


def oracle_moment(dist: JointDistribution, f: Callable[..., int]) -> Fraction:
    """Exact expectation of f(r0, r1, s) under the uniform distribution
    on the class."""
    if dist.total == 0:
        raise EmptyEnsemble(
            f"no {dist.string_class} strings of length {dist.n}"
        )
    return Fraction(sum(f(*key) * c for key, c in dist.counts), dist.total)


def to_composition(v: int, n: int) -> list:
    """Waiting-time composition of the n-bit string v with a 1 appended.

    Parts are the gaps between successive 1s (each part is one plus the
    number of 0s preceding that 1).  Parts sum to n+1, the number of
    parts is the bitsum of the appended string, and the largest part is
    the longest 0-run plus one.
    """
    _check_string(v, n)
    # position 0 first, then the appended 1; the text after it is empty
    gaps = format(v | 1 << n, "b")[::-1].split("1")
    return [len(g) + 1 for g in gaps[:-1]]
