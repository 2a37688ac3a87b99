"""Bitstring ensembles, per-string statistics and the exhaustive oracle.

The five ensembles, each one rule (``_RULES``) on the longest 1-run r1
and on whether the 1s and the 0s are clumped (every bit has a
neighbour of its own value):

* unconstrained: always
* solus:     r1 <= 1 (no two adjacent 1s)
* multus:    1s clumped
* bimultus:  1s clumped and 0s clumped
* persolus:  r1 <= 1 and 0s clumped

Everything here is brute force on purpose: this module is the ground
truth that the generating-function and binomial-sum pipelines are
checked against.  A string of length n is an integer v < 2^n whose
bit i is position i, so the per-string statistics are word operations.
Each is stated once, for the 1s: a statistic of the 0s of v is the same
statistic of the 1s of its complement v ^ (2^n - 1).
``enumerate_classes(n)[cls]`` tallies the (r0, r1, s) triples of a
class.  It pairs each string with its complement: it enumerates only
the 2^(n-1) strings whose last bit is 0, computes each pair's
statistics once, and credits the complement with them swapped (r1, r0,
n - s).  ``compositions(n)`` streams the waiting-time composition of
every string in the order of v, each from the one before.
``oracle_tally(dist, f)``, the one reader of a tally, counts the class
strings by any key f(r0, r1, s); no other module reads its format.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Callable, Hashable, Iterator, NamedTuple

from .errors import OracleBoundExceeded

#: Largest n the oracle enumerates (2^24 strings): enumerate_classes and
#: verify's --nmax refuse anything above it.
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


def _clumped(v: int) -> bool:
    # no isolated 1 bit
    return v & ~((v << 1) | (v >> 1)) == 0


#: Each class once, as a rule on (longest 1-run, 1s clumped, 0s clumped):
#: separated 1s are a longest 1-run of at most 1.
_RULES = {
    StringClass.UNCONSTRAINED: lambda r1, clumped, zeros_clumped: True,
    StringClass.SOLUS: lambda r1, clumped, zeros_clumped: r1 <= 1,
    StringClass.MULTUS: lambda r1, clumped, zeros_clumped: clumped,
    StringClass.BIMULTUS: lambda r1, clumped, zeros_clumped: clumped and zeros_clumped,
    StringClass.PERSOLUS: lambda r1, clumped, zeros_clumped: r1 <= 1 and zeros_clumped,
}


def _longest_one_run(v: int) -> int:
    r = 0
    while v:
        v &= v >> 1
        r += 1
    return r


def _check_string(v: int, n: int) -> None:
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    if not 0 <= v < 1 << n:
        raise ValueError(f"{v} is not a string of length {n}")


def class_member(v: int, n: int, string_class: StringClass) -> bool:
    """True iff the n-bit string v belongs to the class.  The empty
    string (n = 0) meets every rule vacuously."""
    _check_string(v, n)
    c = v ^ ((1 << n) - 1)
    return _RULES[string_class](_longest_one_run(v), _clumped(v), _clumped(c))


def run_stats(v: int, n: int) -> RunStats:
    """Longest 0-run, longest 1-run and bitsum of the n-bit string v."""
    _check_string(v, n)
    return RunStats(_longest_one_run(v ^ ((1 << n) - 1)), _longest_one_run(v), v.bit_count())


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


def enumerate_classes(n: int) -> dict:
    """Tally (r0, r1, s) of all 2^n strings into every class they belong
    to, computing each complement pair's statistics once: one
    JointDistribution per StringClass; n is at most DEFAULT_ORACLE_BOUND."""
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    if n > DEFAULT_ORACLE_BOUND:
        raise OracleBoundExceeded(f"n={n} exceeds the oracle bound {DEFAULT_ORACLE_BOUND}")
    # tally by (r0, r1, s, 1s clumped, 0s clumped) first, each
    # 0-statistic read off the complement c = v ^ mask.  c's key is v's
    # with the bits swapped, (r1, r0, n - s, 0s clumped, 1s clumped), so
    # only the v with bit n - 1 clear are enumerated and each key credits
    # the pair; the empty string is its own complement and counted once.
    # Then credit each tally to every class whose rule it meets.
    mask = (1 << n) - 1
    half = Counter(
        (_longest_one_run(c), _longest_one_run(v), v.bit_count(), _clumped(v), _clumped(c))
        for v in range(1 << max(n - 1, 0))
        for c in (v ^ mask,)
    )
    tally = Counter(half)
    if n:
        for (r0, r1, s, clumped, zeros_clumped), count in half.items():
            tally[r1, r0, n - s, zeros_clumped, clumped] += count
    acc = {cls: Counter() for cls in StringClass}
    for (r0, r1, s, clumped, zeros_clumped), count in tally.items():
        for cls, rule in _RULES.items():
            if rule(r1, clumped, zeros_clumped):
                acc[cls][RunStats(r0, r1, s)] += count
    return {
        cls: JointDistribution(n, cls, tuple(sorted(a.items())), sum(a.values()))
        for cls, a in acc.items()
    }


def oracle_tally(dist: JointDistribution, f: Callable[..., Hashable]) -> dict:
    """{f(r0, r1, s): number of class strings} in one pass over the
    tally; the counts sum to dist.total, and an empty class gives {}."""
    out: dict = {}
    for key, c in dist.counts:
        k = f(*key)
        out[k] = out.get(k, 0) + c
    return out


def compositions(n: int) -> Iterator[tuple]:
    """The waiting-time composition of every n-bit string, v = 0 first.

    A string's composition is that of its bits with a 1 appended: the
    gaps between successive 1s (each part is one plus the number of 0s
    preceding that 1).  Parts sum to n+1, the number of parts is the
    bitsum of the appended string, and the largest part is the longest
    0-run plus one.  A negative n is refused here, not at the first
    next().
    """
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    return _compositions(n)


def _compositions(n: int) -> Iterator[tuple]:
    # v - 1 ends in t 1s, t the lowest set bit of v, so its first t parts
    # are 1s; v clears those bits and sets bit t, so its first part is
    # t + 1 and the gap after it is one less than v - 1's part t
    parts = (n + 1,)
    yield parts
    for v in range(1, 1 << n):
        t = (v & -v).bit_length() - 1
        parts = (t + 1, parts[t] - 1) + parts[t + 1:]
        yield parts
