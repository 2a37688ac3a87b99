"""Exact moments of the longest run length over an ensemble.

The m-th power of the longest run of a designated bit telescopes over
the family (H, H_k), H_k the GF of the class strings with no run of k
such bits: with d_n = [z^n] H,

    sum_{k=1..n} w_m(k) (d_n - [z^n] H_k)

is the sum over class strings of length n of (longest run)^m, where the
weights are w_m(k) = k^m - (k-1)^m: w_1 = 1, w_2 = 2k - 1,
w_3 = 3k^2 - 3k + 1 and w_4 = 4k^3 - 6k^2 + 4k - 1.  The same
telescoping gives the run-bitsum product: with R_k the bitsum-marked GF
of strings whose longest 0-run is below k and a_n = [z^n] R the total
bitsum, the sum over k = 1..n of a_n - [z^n] R_k sums (longest 0-run) *
bitsum.

No H_k or R_k is expanded.  With the catalog's ``cap_form``,
1/(E + z^(k + l)) is a geometric series in z^(k + l), so with
U_c = 1 / E^(c + 1), for k > lo,

    [z^n] H_k = sum_c (-1)^c ([z^(n - c(k + l))] P Q U_c
                - [z^(n - c(k + l) - k)] Q U_c),
    [z^n] R_k = sum_c (-1)^c (c + 1) ([z^(n - c(k + l))] P^2 t1 U_(c+1)
                - 2 [z^(n - c(k + l) - k)] P t1 U_(c+1)
                + [z^(n - c(k + l) - 2k)] t1 U_(c+1)),

and only c(k + l) <= n contributes: O(n/k) terms per k.  At a fixed n
and c, the coefficients for k = lo + 1, lo + 2, ... are strided slices
of the rows P Q U_c and Q U_c, so the weighted sums over k are a few
dot products per (n, c).  Each row U_c is the one before it divided by
E by ``series.divide``, the one short recurrence that every expansion
in the package runs, and is needed only through z^(N - c(lo + 1 + l))
for N = max(ns); the rows are streamed, and each is multiplied once by
its sparse numerators.  Memory is O(N) integers for the rows plus a few
sums per length; the time is O(N^2) for the rows plus O(n log n) dot
product terms per requested length n, so a dense sweep of every length
to N costs O(N^2 log N).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub
from typing import NamedTuple, Sequence

from .catalog import cap_form, count_gf
from .ensembles import StringClass
from .errors import EmptyEnsemble, UndefinedFamily, UnsupportedMoment
from .series import RationalGF, divide, terms_mul

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


def _times(t: tuple, row: list, length: int) -> list:
    """Coefficients z^0..z^(length-1) of the sparse t times row, which
    holds at least that many; row itself when t is 1."""
    if t == ((0, 1),):
        return row
    out = [0] * max(length, 0)
    for i, (x, a) in enumerate(t):
        seg = row[: max(length - x, 0)]
        if a != 1:
            seg = map(mul, seg, repeat(a))
        out[x:] = map(add, out[x:], seg) if i else seg
    return out


def _strided_sum(row: list, top: int, step: int) -> int:
    """row[top] + row[top - step] + ... down to index 0, for step >= 1;
    0 if top < 0."""
    return sum(row[top::-step]) if top >= 0 else 0


def run_numerators(
    string_class: StringClass,
    bit: int,
    ns: Sequence[int],
    bitsum: bool = False,
) -> list:
    """For each length n in ns, in order: the sums of R^m, m = 1..MAX_MOMENT,
    over the class strings of length n, R their longest run of `bit`,
    followed with `bitsum` (bit 0) by the sum of R * bitsum.  No H_k is
    expanded; see the module docstring."""
    if not ns:
        return []
    if any(n < 0 for n in ns):
        raise ValueError("lengths must be nonnegative")
    form = cap_form(string_class, bit)
    if bitsum and form.t1 is None:
        raise UndefinedFamily(f"no bitsum-marked run family for bit={bit}")
    lo, l, e = form.lo, form.lo_other, form.e
    k0, step = lo + 1, lo + 1 + l
    lengths = sorted(set(ns))
    order = lengths[-1]
    weights = [
        [moment_weight(m, k) for k in range(k0, order + 1)]
        for m in range(2, MAX_MOMENT + 1)
    ]
    # k <= lo: no run fits, H_k = Q / q_other and R_k = t1 / q_other^2,
    # and sum_{k=1..j} w_m(k) = j^m
    small_h = RationalGF(form.q, form.q_other).expand(order)
    if bitsum:
        q2 = terms_mul(form.q_other, form.q_other)
        small_r = RationalGF(form.t1, q2).expand(order)
        # t1 starts at z^l: the R rows are kept divided by z^l, read l lower
        t = tuple((x - l, a) for x, a in form.t1)
        r_terms = (terms_mul(form.p, form.p, t), terms_mul(form.p, t), t)
    # sums[n]: sum over k = 1..n of w_m(k) [z^n] H_k for m = 1..MAX_MOMENT
    # and of [z^n] R_k; full[n]: [z^n] of the uncapped H and R
    sums, full = {}, {}
    for n in lengths:
        j = min(lo, n)
        sums[n] = [small_h[n] * j**m for m in range(1, MAX_MOMENT + 1)]
        sums[n].append(small_r[n] * j if bitsum else 0)
    u = divide([1], e, order + 1)
    for c in range(order // step + 1):
        # At top = n - c step, [z^n] H_k for k = k0, k0 + 1, ... is
        # (-1)^c times [z^top] of P Q U_c stepping down by c, less
        # [z^(top - k0)] of Q U_c stepping down by c + 1, summed over c;
        # U_c = 1 / E^(c + 1).  [z^n] R_k has (c + 1) (-1)^c times the
        # reads of P^2 t U_(c+1), -2 P t U_(c+1) and t U_(c+1) from
        # top - l, top - l - k0 and top - l - 2 k0, by c, c + 1 and c + 2.
        last = order - c * step + 1
        b_row = _times(form.q, u, last)
        a_row = _times(form.p, b_row, last)
        size = max(last - (l if bitsum else step), 0)
        u_next = divide(u, e, size)
        if bitsum:
            r_a, r_b, r_c = (
                _times(r, u_next, last - l - i * k0) for i, r in enumerate(r_terms)
            )
        for n in lengths[bisect_left(lengths, c * step) :]:
            top = n - c * step
            seg = a_row[top::-c] if c else [a_row[n]] * (n - lo)
            if top >= k0:
                seg_b = b_row[top - k0 :: -(c + 1)]
                seg[: len(seg_b)] = map(sub, seg, seg_b)
            got = [sum(seg)] + [sum(map(mul, w, seg)) for w in weights]
            if not c:
                full[n] = (a_row[n], r_a[n - l] if bitsum and n >= l else 0)
            if bitsum:
                first = _strided_sum(r_a, top - l, c) if c else full[n][1] * len(seg)
                got.append(
                    (c + 1)
                    * (
                        first
                        - 2 * _strided_sum(r_b, top - l - k0, c + 1)
                        + _strided_sum(r_c, top - l - 2 * k0, c + 2)
                    )
                )
            s = sums[n]
            s[: len(got)] = map(sub if c & 1 else add, s, got)
        u = u_next
    out = {}
    for n in lengths:
        h, r = full[n]
        s = sums[n]
        row = [n**m * h - s[m - 1] for m in range(1, MAX_MOMENT + 1)]
        out[n] = tuple(row + [n * r - s[-1]] if bitsum else row)
    return [out[n] for n in ns]


def checked_counts(string_class: StringClass, ns: Sequence[int]) -> tuple:
    """The class counts through max(ns), a nonempty list of lengths, with
    the empty string counted at n = 0; raises ValueError for a negative
    length and EmptyEnsemble for one with no class strings."""
    if any(n < 0 for n in ns):
        raise ValueError("lengths must be nonnegative")
    # the empty string is a member of every class, whatever the count
    # GF's z^0 convention
    counts = (1,) + count_gf(string_class).expand(max(ns))[1:]
    for n in ns:
        if counts[n] == 0:
            raise EmptyEnsemble(f"no {string_class} strings of length {n}")
    return counts


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
    cap sum."""
    if not ns:
        return []
    counts = checked_counts(string_class, ns)
    out = []
    for n, sums in zip(ns, run_numerators(string_class, bit, ns)):
        mean, second, third, fourth = (Fraction(s, counts[n]) for s in sums)
        variance = second - mean * mean
        out.append(
            MomentReport(n, string_class, bit, mean, second, variance, third, fourth)
        )
    return out
