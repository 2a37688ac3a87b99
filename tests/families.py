"""The series route for the run moments, kept as the reference of the
cap sum in `bitruns.moments` that replaced it, and the run-family GFs it
reads: H, the class GF, and H_k, that of the class strings with no run
of k designated bits, both from the alternating-run constructor, and
the oracle cache every test reads the enumeration through, and
`oracle_sum`, the sum over a tally that the tests read it by."""

import functools
from typing import NamedTuple

from bitruns.catalog import alternating_gf, defined_families
from bitruns.ensembles import StringClass, enumerate_classes, oracle_tally
from bitruns.moments import MAX_MOMENT, moment_weight
from bitruns.series import RationalGF


class RunFamily(NamedTuple):
    """H and H_k for the runs of `bit` in the class."""

    string_class: StringClass
    bit: int
    H: RationalGF

    def hk(self, k: int) -> RationalGF:
        if k < 1:
            raise ValueError("run thresholds must be >= 1")
        if self.bit:
            return alternating_gf(self.string_class, None, k - 1)
        return alternating_gf(self.string_class, k - 1)


#: enumerate_classes memoized per length, shared by every test module;
#: tests that monkeypatch the oracle or its bound call it directly
oracle = functools.lru_cache(maxsize=None)(enumerate_classes)


def oracle_sum(dist, f) -> int:
    """Sum of f(r0, r1, s) over the class strings, read through
    oracle_tally; a boolean f counts the strings it holds for."""
    return sum(k * c for k, c in oracle_tally(dist, f).items())

#: the eight run families, by (class, bit)
FAMILIES = {
    (cls, bit): RunFamily(cls, bit, alternating_gf(cls)) for cls, bit in defined_families()
}


def series_moment_numerator(family: RunFamily, order: int) -> list:
    """Copy of the former moments.moment_numerator: lists for moments
    1..MAX_MOMENT, entry m - 1 with z^n coefficient summing (longest
    run)^m over class strings of length n <= order.

    Each H_k is expanded in full, and its difference from H is added
    into all the sums with the weights w_m(k); k = order + 2 is the last
    H_k that differs from H through z^order."""
    h = family.H.expand(order)
    acc = [[0] * (order + 1) for _ in range(MAX_MOMENT)]
    for k in range(1, order + 3):
        c = family.hk(k).expand(order)
        w = [moment_weight(m, k) for m in range(1, MAX_MOMENT + 1)]
        for n in range(order + 1):
            d = h[n] - c[n]
            for a, wm in zip(acc, w):
                a[n] += wm * d
    return acc
