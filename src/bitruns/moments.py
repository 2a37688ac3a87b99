"""Exact moments of the longest run length over an ensemble.

The m-th power of the longest run of a designated bit has a generating
function built from the family (G, H, H_k): the coefficient of z^n in

    G + sum_k w_m(k) (H - H_k)

is sum over class strings of length n of (longest run)^m, where the
telescoping weights are w_1 = 1, w_2 = 2k - 1, w_3 = 3k^2 - 3k + 1 and
w_4 = 4k^3 - 6k^2 + 4k - 1.  Truncating the sum at k = N + 2 is exact
through z^N since H - H_k vanishes to that order afterwards.

The same telescoping gives the run-bitsum product: with R_k the
bitsum-marked GF of strings whose longest 0-run is below k, the
coefficient of z^n in sum_{k=1}^{N+1} (R_{N+2} - R_k) sums
(longest 0-run) * bitsum over class strings of length n <= N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .catalog import RunFamily, bitsum_hk, count_gf, run_family
from .ensembles import StringClass
from .errors import EmptyEnsemble, UnsupportedMoment
from .series import TruncatedSeries

MAX_MOMENT = 4


def moment_weight(m: int, k: int) -> int:
    """Telescoping weight w_m(k) = k^m - (k-1)^m."""
    if m == 1:
        return 1
    if m == 2:
        return 2 * k - 1
    if m == 3:
        return 3 * k * k - 3 * k + 1
    if m == 4:
        return 4 * k**3 - 6 * k * k + 4 * k - 1
    raise UnsupportedMoment(f"moment order {m} not in 1..{MAX_MOMENT}")


def moment_numerator(family: RunFamily, m: int, order: int) -> TruncatedSeries:
    """Series whose z^n coefficient sums (longest run)^m over the class."""
    moment_weight(m, 1)
    if family.g_in_moment_sum:
        acc = family.G.expand(order)
    else:
        acc = TruncatedSeries.zero(order)
    h = family.H.expand(order)
    for k in range(1, order + 3):
        gf = family.hk_moment_overrides.get(k)
        if gf is None:
            gf = family.hk(k)
        acc = acc + (h - gf.expand(order)).scale(moment_weight(m, k))
    return acc


def rs_numerator(string_class: StringClass, order: int) -> TruncatedSeries:
    """Series whose z^n coefficient sums (longest 0-run) * bitsum over
    the class."""
    full = bitsum_hk(string_class, order + 2).expand(order)
    acc = [(order + 1) * c for c in full.coeffs]
    for k in range(1, order + 2):
        for n, c in enumerate(bitsum_hk(string_class, k).expand(order).coeffs):
            acc[n] -= c
    return TruncatedSeries(acc)


@lru_cache(maxsize=None)
def _numerator_cached(string_class: StringClass, bit: int, m: int, order: int):
    return moment_numerator(run_family(string_class, bit), m, order)


@lru_cache(maxsize=None)
def _counts_cached(string_class: StringClass, order: int):
    return count_gf(string_class).expand(order)


def run_moment(n: int, string_class: StringClass, bit: int, m: int) -> Fraction:
    """Exact E[(longest run of `bit`)^m] over class strings of length n."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    d = _counts_cached(string_class, n)[n]
    if d == 0:
        raise EmptyEnsemble(f"no {string_class} strings of length {n}")
    return Fraction(_numerator_cached(string_class, bit, m, n)[n], d)


@dataclass(frozen=True)
class MomentReport:
    """First four exact moments of a longest-run statistic."""

    n: int
    string_class: StringClass
    bit: int
    mean: Fraction
    second_moment: Fraction
    variance: Fraction
    third_moment: Fraction
    fourth_moment: Fraction


def run_variance_report(n: int, string_class: StringClass, bit: int) -> MomentReport:
    """Moments 1..4 and the variance in one pass."""
    mom = [run_moment(n, string_class, bit, m) for m in range(1, MAX_MOMENT + 1)]
    return MomentReport(
        n=n,
        string_class=string_class,
        bit=bit,
        mean=mom[0],
        second_moment=mom[1],
        variance=mom[1] - mom[0] * mom[0],
        third_moment=mom[2],
        fourth_moment=mom[3],
    )
