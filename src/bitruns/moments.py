"""Exact moments of the longest run length over an ensemble.

The m-th power of the longest run of a designated bit has a generating
function built from the family (H, H_k): the coefficient of z^n in

    sum_k w_m(k) (H - H_k)

is sum over class strings of length n of (longest run)^m, where the
telescoping weights are w_1 = 1, w_2 = 2k - 1, w_3 = 3k^2 - 3k + 1 and
w_4 = 4k^3 - 6k^2 + 4k - 1.  Truncating the sum at k = N + 2 is exact
through z^N since H - H_k vanishes to that order afterwards.

The same telescoping gives the run-bitsum product: with R_k the
bitsum-marked GF of strings whose longest 0-run is below k, the sum over
k = 1..n of a_n - [z^n] R_k is the sum of (longest 0-run) * bitsum over
class strings of length n, where a_n = [z^n] R_(n+1) is the total bitsum.

``table2`` reads that sum, and sum_{k=1..n} w_m(k) (d_n - [z^n] H_k)
with d_n = [z^n] H_(n+1) for m = 1, 2, at a few lengths, so it expands
no H_k or R_k.  With the catalog's ``zero_cap_form``, 1/(E + z^(k + l1)) is a
geometric series in z^(k + l1), so with V_c = z^(c l1) / E^(c + 1) and
W_c = V_(c + 1) / z^l1, for k > lo0,

    [z^n] H_k = sum_c (-1)^c ([z^(n - ck)] P0 Q V_c - [z^(n - (c+1)k)] Q V_c),
    [z^n] R_k = sum_c (-1)^c (c + 1) ([z^(n - ck)] P0^2 t1 W_c
                - 2 [z^(n - (c+1)k)] P0 t1 W_c + [z^(n - (c+2)k)] t1 W_c).

V_c and W_c vanish below z^(c l1), so only c(k + l1) <= n contributes:
O(n/k) terms per k.  Both are z^(c l1) times a row U = 1 / E^(c + 1) or
1 / E^(c + 2), and each row U_c = 1 / E^(c + 1) is the one before it
divided by E, one short recurrence, read at most through
z^(N - (c - 1)(lo0 + 1 + l1) - l1) for c >= 1.  The rows are streamed,
two held at a time, and every (n, k) coefficient is accumulated from
strided slices of them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, mul
from typing import NamedTuple, Sequence

from .catalog import RunFamily, count_gf, run_family, zero_cap_form
from .ensembles import StringClass
from .errors import EmptyEnsemble, UnsupportedMoment
from .series import RationalGF, TruncatedSeries, gf_expand, terms_mul, valuation

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


def _divide(src: list, e: tuple, length: int) -> list:
    """Coefficients z^0..z^(length-1) of src / E, for E (sparse terms)
    with constant term 1."""
    tail = [(f, -d) for f, d in e[1:]]
    pad = e[-1][0]
    out = [0] * (pad + length)
    head = src[:length]
    out[pad : pad + len(head)] = head
    for i in range(pad, pad + length):
        s = out[i]
        for f, d in tail:
            s += d * out[i - f]
        out[i] = s
    return out[pad:]


def _add_strided(acc: list, start: int, row: list, top: int, step: int, coeff: int) -> None:
    """acc[start + j] += coeff * row[top - j * step] for every j >= 0 with
    a nonnegative index; step 0 adds coeff * row[top] to all of
    acc[start:]."""
    if top < 0:
        return
    if not step:
        x = coeff * row[top]
        acc[start:] = [y + x for y in acc[start:]]
        return
    seg = row[top::-step]
    end = start + len(seg)
    acc[start:end] = map(add, acc[start:end], map(mul, seg, repeat(coeff)))


def zero_cap_coefficients(string_class: StringClass, ns: Sequence[int]) -> dict:
    """n -> (h, r) for each length n in ns: h[k - 1] = [z^n] H_k and
    r[k - 1] = [z^n] R_k of the 0-runs for k = 1..n + 1.

    k = n + 1 caps nothing, so h[n] is the class count and r[n] the total
    bitsum at length n >= 1 (at n = 0 both count the empty string).  No
    H_k or R_k is expanded; see the module docstring.
    """
    form = zero_cap_form(string_class)
    lo0, l1, e = form.lo0, form.l1, form.e
    k0 = lo0 + 1
    order = max(ns)
    small_h = RationalGF.from_terms(form.q, form.q1).expand(order)
    small_r = RationalGF.from_terms(form.t1, terms_mul(form.q1, form.q1)).expand(order)
    acc = {
        n: (
            [small_h[n]] * min(lo0, n + 1) + [0] * (n + 1 - lo0),
            [small_r[n]] * min(lo0, n + 1) + [0] * (n + 1 - lo0),
        )
        for n in ns
    }
    # (j, x, a): a * [z^(n - x - (c + j) k)] of z^(c l1) times the row:
    # V_c = z^(c l1) U_c for H and W_c = z^(c l1) U_(c + 1) for R, where
    # U_c = 1 / E^(c + 1).
    h_terms = [(0, x, a) for x, a in terms_mul(form.p0, form.q)]
    h_terms += [(1, x, -a) for x, a in form.q]
    r_terms = [(0, x, a) for x, a in terms_mul(form.p0, form.p0, form.t1)]
    r_terms += [(1, x, -2 * a) for x, a in terms_mul(form.p0, form.t1)]
    r_terms += [(2, x, a) for x, a in form.t1]
    u = _divide([1], e, order + 1)
    c = 0
    while c * (k0 + l1) <= order:
        # every R term has the factor t1, which starts at z^l1
        u_next = _divide(u, e, max(order - c * (k0 + l1) - l1 + 1, 0))
        sign = -1 if c & 1 else 1
        for n, (h, r) in acc.items():
            top = n - c * (k0 + l1)
            if top < 0:
                continue
            for j, x, a in h_terms:
                _add_strided(h, lo0, u, top - x - j * k0, c + j, sign * a)
            for j, x, a in r_terms:
                _add_strided(r, lo0, u_next, top - x - j * k0, c + j, sign * (c + 1) * a)
        u = u_next
        c += 1
    return acc


def zero_run_bitsum_numerators(string_class: StringClass, ns: Sequence[int]) -> list:
    """(sum of R0, of R0^2, of R0 * bitsum) over the class strings of each
    length in ns, R0 the longest 0-run, from one cap expansion."""
    caps = zero_cap_coefficients(string_class, ns)
    out = []
    for n in ns:
        h, r = caps[n]
        d, a = h[n], r[n]
        out.append(
            (
                n * d - sum(h[:n]),
                n * n * d - sum(map(mul, range(1, 2 * n, 2), h)),
                n * a - sum(r[:n]),
            )
        )
    return out


# Bounded: the table functions read every length off one expansion, so
# these only save repeated single-length calls such as run_moment over m.
@lru_cache(maxsize=8)
def _numerator_cached(string_class: StringClass, bit: int, order: int) -> tuple:
    return moment_numerator(run_family(string_class, bit), order)


@lru_cache(maxsize=8)
def _counts_cached(string_class: StringClass, order: int):
    return count_gf(string_class).expand(order)


def checked_counts(string_class: StringClass, ns: Sequence[int]) -> TruncatedSeries:
    """The class counts through max(ns), a nonempty list of lengths;
    raises ValueError for a negative length and EmptyEnsemble for one
    with no class strings."""
    if any(n < 0 for n in ns):
        raise ValueError("lengths must be nonnegative")
    counts = _counts_cached(string_class, max(ns))
    for n in ns:
        if counts[n] == 0:
            raise EmptyEnsemble(f"no {string_class} strings of length {n}")
    return counts


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
    counts = checked_counts(string_class, ns)
    num = _numerator_cached(string_class, bit, max(ns))
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
