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

Only the caps below a split K are expanded.  With the catalog's
``cap_form``, both capped families read alike: for k > lo,

    F_k = (P - z^k)^d B / (E + z^(k + l))^d,

H_k with d = 1 and B = Q, R_k with d = 2 and B = t1, and F_k =
B / q_other^d for k <= lo.  With U_c = 1 / E^(c + 1), expanding
1 / (E + z^(k + l))^d in z^(k + l) and (P - z^k)^d in z^k gives

    [z^n] F_k = sum_c sum_i (-1)^(c + i) C(c + d - 1, d - 1) C(d, i)
                [z^(n - c(k + l) - ik)] P^(d - i) B U_(c + d - 1),

and only c(k + l) <= n contributes: O(n/k) terms per k.  At a fixed n,
c and i, the coefficients for k = K, K + 1, ... are a slice of the row
P^(d - i) B U_(c + d - 1) with stride c + i, so the weighted sums over
k >= K are a few dot products per (n, c).  The c = i = 0 term is the
uncapped F for every k, and sum_{k=1..j} w_m(k) = j^m, so the weighted
sum over k = 1..n of [z^n] F - [z^n] F_k is min(lo, n)^m ([z^n] F -
[z^n] B / q_other^d), plus w_m(k) ([z^n] F - [z^n] F_k) for each cap
lo < k < K, less the dot products of the other terms.  Each cap below K
is one expansion of F_k to N = max(ns), and F_k is dropped before the
next.  Each row U_j is the one before it divided by E; that and every
expansion run ``series.divide``, the one short recurrence of the
package.  A row is read only through z^(N - (j + 1 - d)(K + l)), so
only the c with c(K + l) <= N need one: about N / (K + l) rows.  The
rows are streamed, and each is multiplied once by B and d times by P,
Horner-wise.  Memory is O(N) integers for one expansion or a few rows,
plus a few sums per length.  The time is O(N K) steps for the caps
below K, O(N^2 / K) for the rows and, per requested length n, dot
products over about n / K values of c, O(n log n) terms in all.
K = max(lo + 1, isqrt(N // 2)) balances the first two at O(N^1.5);
a dense sweep of every length to N adds O(N^2 log N) dot product terms.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import repeat
from math import comb, isqrt
from operator import add, mul, sub
from typing import NamedTuple, Sequence

from .catalog import CapForm, cap_form, count_gf
from .ensembles import StringClass
from .errors import EmptyEnsemble, UndefinedFamily, UnsupportedMoment
from .series import RationalGF, divide, terms, terms_mul

MAX_MOMENT = 4


def moment_weight(m: int, k: int) -> int:
    """Telescoping weight w_m(k) = k^m - (k-1)^m."""
    if not 1 <= m <= MAX_MOMENT:
        raise UnsupportedMoment(f"moment order {m} not in 1..{MAX_MOMENT}")
    return k**m - (k - 1) ** m


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


def _signed_sum(fs: list, segs: list) -> list:
    """The termwise sum of f * seg over the pairs of fs and segs, the
    longest seg first."""
    out = segs[0] if fs[0] == 1 else list(map(mul, segs[0], repeat(fs[0])))
    for f, seg in zip(fs[1:], segs[1:]):
        out[: len(seg)] = map(sub, out, seg if f == -1 else map(mul, seg, repeat(-f)))
    return out


def run_numerators(
    string_class: StringClass,
    bit: int,
    ns: Sequence[int],
    bitsum: bool = False,
) -> list:
    """For each length n in ns, in order: the sums of R^m, m = 1..MAX_MOMENT,
    over the class strings of length n, R their longest run of `bit`,
    followed with `bitsum` (bit 0) by the sum of R * bitsum.  No H_k is
    expanded from the cap K = max(lo + 1, isqrt(N // 2)) up; see the
    module docstring."""
    if not ns:
        return []
    if any(n < 0 for n in ns):
        raise ValueError("lengths must be nonnegative")
    form = cap_form(string_class, bit)
    if bitsum and form.t1 is None:
        raise UndefinedFamily(f"no bitsum-marked run family for bit={bit}")
    lengths = sorted(set(ns))
    # a cap below K costs one expansion to N, and each row from K up about
    # as much, with about N / K rows: the two balance at K ~ sqrt(N)
    split = max(form.lo + 1, isqrt(lengths[-1] // 2))
    sums = _cap_sums(form, lengths, bitsum, split)
    return [tuple(sums[n]) for n in ns]


def _cap_sums(form: CapForm, lengths: list, bitsum: bool, split: int) -> dict:
    """run_numerators' sums by length, for the sorted distinct lengths:
    the caps lo < k < split each off its own expansion, and those from
    split up off the rows."""
    lo, e, l = form.lo, form.e, form.lo_other
    step = split + l
    order = lengths[-1]
    weights = [
        [moment_weight(m, k) for k in range(split, order + 1)]
        for m in range(2, MAX_MOMENT + 1)
    ]

    def read(num: tuple, den: tuple) -> list:
        """[z^n] num / den at each length; the expansion is dropped."""
        series = RationalGF(num, den).expand(order)
        return [series[n] for n in lengths]

    # (d, b0, B / z^b0, moments, first sum) of H_k and, with bitsum, R_k:
    # B's lowest power z^b0 is kept out of the rows, which are read b0
    # lower, so that B = z^b0 (t1 = z) multiplies no row
    families, sums = [], {n: [] for n in lengths}
    for d, b, moments in [(1, form.q, MAX_MOMENT), (2, form.t1, 1)][: 1 + bitsum]:
        b0, at = b[0][0], len(sums[order])
        families.append((d, b0, tuple((x - b0, a) for x, a in b), moments, at))
        # sum_{k=1..j} w_m(k) = j^m: F_k = B / q_other^d for k <= lo, and
        # the c = i = 0 term is the uncapped F for every k >= split
        f = read(terms_mul(*[form.p] * d, b), terms_mul(*[e] * d))
        g = read(b, terms_mul(*[form.q_other] * d))
        for n, x, y in zip(lengths, f, g):
            j = min(lo, n)
            sums[n] += [j**m * (x - y) for m in range(1, moments + 1)]
        for k in range(lo + 1, min(split, order + 1)):
            p, q = terms(form.p + ((k, -1),)), terms(e + ((k + l, 1),))
            fk = read(terms_mul(*[p] * d, b), terms_mul(*[q] * d))
            w = [moment_weight(m, k) for m in range(1, moments + 1)]
            i = bisect_left(lengths, k)
            for n, x, y in zip(lengths[i:], f[i:], fk[i:]):
                s, y = sums[n], x - y
                for m, wm in enumerate(w, at):
                    s[m] += wm * y

    def width(j: int) -> int:
        """How far the families read U_j: at c = j + 1 - d, to N - c step - b0."""
        return max([0] + [order - (j + 1 - d) * step - b0 + 1 for d, b0, *_ in families])

    us = []  # U_c .. U_(c + d_max - 1), U_j = 1 / E^(j + 1)
    for j in range(families[-1][0]):
        us.append(divide(us[-1] if us else [1], e, width(j)))
    for c in range(order // step + 1):
        # term (c, i) of [z^n] F_k, k = split, split + 1, ...: rows[i]
        # from n - c step - i split - b0 down by c + i
        for d, b0, b, moments, at in families:
            first = c * step + (c == 0) * split + b0
            todo = lengths[bisect_left(lengths, first) :]
            if not todo:
                continue
            last = order - c * step - b0 + 1
            rows = [_times(b, us[d - 1], last)]
            for _ in range(d):
                rows.insert(0, _times(form.p, rows[0], last))
            scale = (-1) ** c * comb(c + d - 1, d - 1)
            fs = [(-1) ** i * comb(d, i) for i in range(c == 0, d + 1)]
            slices = [(rows[i], c + i) for i in range(c == 0, d + 1)]
            dots = weights[: moments - 1]
            for n in todo:
                tops = range(n - first, -1, -split)
                segs = [row[t::-by] for (row, by), t in zip(slices, tops)]
                if dots:
                    # merged first, so that each weighted dot runs once
                    vec = _signed_sum(fs, segs)
                    got = [sum(vec)] + [sum(map(mul, w, vec)) for w in dots]
                else:
                    got = [sum(map(mul, fs, map(sum, segs)))]
                s = sums[n]
                for m, y in enumerate(got, at):
                    s[m] -= scale * y
        us = us[1:] + [divide(us[-1], e, width(c + len(us)))]
    return sums


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
