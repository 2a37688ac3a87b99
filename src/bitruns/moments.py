"""Exact moments of the longest run length over an ensemble.

The m-th power of the longest run of a designated bit has a generating
function built from the family (H, H_k): the coefficient of z^n in

    sum_k w_m(k) (H - H_k)

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

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .catalog import RunFamily, bitsum_hk, count_gf, run_family
from .ensembles import StringClass
from .errors import EmptyEnsemble, UnsupportedMoment
from .series import TruncatedSeries, gf_expand, valuation

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


def moment_numerator(family: RunFamily, order: int) -> tuple:
    """Series for moments 1..MAX_MOMENT in one pass: entry m - 1 has
    z^n coefficient summing (longest run)^m over class strings of
    length n <= order.

    Each H_k is expanded once and its difference from H is added into
    all the sums with the weights w_m(k).  H_k agrees with H below
    z^v, v = valuation(H_k, H), so its expansion starts at z^v from H's
    coefficients and only the coefficients from z^v on enter the sums.
    Coefficient n does not depend on `order`, so one expansion at the
    largest length serves every shorter one.
    """
    h = family.H.expand(order).coeffs
    acc = [[0] * (order + 1) for _ in range(MAX_MOMENT)]
    a1, a2, a3, a4 = acc
    for k in range(1, order + 3):
        gf = family.hk(k)
        v = valuation(gf, family.H)
        if v > order:
            continue
        w2, w3, w4 = (moment_weight(m, k) for m in (2, 3, 4))
        c = gf_expand(gf, order, h[:v]).coeffs
        for n in range(v, order + 1):
            d = h[n] - c[n]
            if d:
                a1[n] += d
                a2[n] += w2 * d
                a3[n] += w3 * d
                a4[n] += w4 * d
    return tuple(TruncatedSeries(a) for a in acc)


def rs_numerator(string_class: StringClass, order: int) -> TruncatedSeries:
    """Series whose z^n coefficient sums (longest 0-run) * bitsum over
    the class.

    Each R_k agrees with R_{order+2} below z^v, v = valuation of their
    difference, so only its coefficients from z^v on are computed and
    summed.
    """
    top = bitsum_hk(string_class, order + 2)
    full = top.expand(order).coeffs
    acc = [0] * (order + 1)
    for k in range(1, order + 2):
        gf = bitsum_hk(string_class, k)
        v = valuation(gf, top)
        if v > order:
            continue
        c = gf_expand(gf, order, full[:v]).coeffs
        for n in range(v, order + 1):
            acc[n] += full[n] - c[n]
    return TruncatedSeries(acc)


# Bounded: the table functions read every length off one expansion, so
# these only save repeated single-length calls such as run_moment over m.
@lru_cache(maxsize=8)
def _numerator_cached(string_class: StringClass, bit: int, order: int) -> tuple:
    return moment_numerator(run_family(string_class, bit), order)


@lru_cache(maxsize=8)
def _counts_cached(string_class: StringClass, order: int):
    return count_gf(string_class).expand(order)


def run_moment(n: int, string_class: StringClass, bit: int, m: int) -> Fraction:
    """Exact E[(longest run of `bit`)^m] over class strings of length n."""
    moment_weight(m, 1)
    r = run_variance_report(n, string_class, bit)
    return (r.mean, r.second_moment, r.third_moment, r.fourth_moment)[m - 1]


class MomentReport(NamedTuple):
    """First four exact moments of a longest-run statistic."""

    n: int
    string_class: StringClass
    bit: int
    mean: Fraction
    second_moment: Fraction
    variance: Fraction
    third_moment: Fraction
    fourth_moment: Fraction


def run_variance_table(ns: Sequence[int], string_class: StringClass, bit: int) -> list:
    """MomentReports for several lengths, in the order given, from one
    set of series expansions at max(ns)."""
    if not ns:
        return []
    if any(n < 0 for n in ns):
        raise ValueError("length must be nonnegative")
    order = max(ns)
    counts = _counts_cached(string_class, order)
    for n in ns:
        if counts[n] == 0:
            raise EmptyEnsemble(f"no {string_class} strings of length {n}")
    num = _numerator_cached(string_class, bit, order)
    out = []
    for n in ns:
        mean, second, third, fourth = (Fraction(s[n], counts[n]) for s in num)
        out.append(
            MomentReport(
                n=n,
                string_class=string_class,
                bit=bit,
                mean=mean,
                second_moment=second,
                variance=second - mean * mean,
                third_moment=third,
                fourth_moment=fourth,
            )
        )
    return out


def run_variance_report(n: int, string_class: StringClass, bit: int) -> MomentReport:
    """Moments 1..4 and the variance in one pass."""
    return run_variance_table([n], string_class, bit)[0]
