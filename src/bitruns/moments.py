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

No H_k or R_k is expanded.  With the catalog's ``cap_form``, both
capped families read alike: for k > lo,

    F_k = (P - z^k)^d B / (E + z^(k + l))^d,

H_k with d = 1 and B = Q, R_k with d = 2 and B = t1, and F_k =
B / q_other^d for k <= lo.  With U_c = 1 / E^(c + 1), expanding
1 / (E + z^(k + l))^d in z^(k + l) and (P - z^k)^d in z^k gives

    [z^n] F_k = sum_c sum_i (-1)^(c + i) C(c + d - 1, d - 1) C(d, i)
                [z^(n - c(k + l) - ik)] P^(d - i) B U_(c + d - 1),

and only c(k + l) <= n contributes: O(n/k) terms per k.  At a fixed n,
c and i, the coefficients for k = lo + 1, lo + 2, ... are a slice of
the row P^(d - i) B U_(c + d - 1) with stride c + i, so the weighted
sums over k are a few dot products per (n, c).  The c = i = 0 term is
the uncapped F for every k, and sum_{k=1..j} w_m(k) = j^m, so the
weighted sum over k = 1..n of [z^n] F - [z^n] F_k is min(lo, n)^m
([z^n] F - [z^n] B / q_other^d) less the dot products of the other
terms.  Each row U_j is the one before it divided by E by
``series.divide``, the one short recurrence that every expansion in the
package runs, and is read only through z^(N - (j + 1 - d)(lo + 1 + l))
for N = max(ns); the rows are streamed, and each is multiplied once by
B and d times by P, Horner-wise.  Memory is O(N) integers for the rows
plus a few sums per length; the time is O(N^2) for the rows plus
O(n log n) dot product terms per requested length n, so a dense sweep
of every length to N costs O(N^2 log N).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import repeat
from math import comb
from operator import add, mul, sub
from typing import NamedTuple, Sequence

from .catalog import cap_form, count_gf
from .ensembles import StringClass
from .errors import EmptyEnsemble, UndefinedFamily, UnsupportedMoment
from .series import RationalGF, divide, terms_mul

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
    expanded; see the module docstring."""
    if not ns:
        return []
    if any(n < 0 for n in ns):
        raise ValueError("lengths must be nonnegative")
    form = cap_form(string_class, bit)
    if bitsum and form.t1 is None:
        raise UndefinedFamily(f"no bitsum-marked run family for bit={bit}")
    lo, e = form.lo, form.e
    k0, step = lo + 1, lo + 1 + form.lo_other
    lengths = sorted(set(ns))
    order = lengths[-1]
    weights = [
        [moment_weight(m, k) for k in range(k0, order + 1)]
        for m in range(2, MAX_MOMENT + 1)
    ]
    # (d, b0, B / z^b0, moments, first sum) of H_k and, with bitsum, R_k:
    # B's lowest power z^b0 is kept out of the rows, which are read b0
    # lower, so that B = z^b0 (t1 = z) multiplies no row
    families, sums = [], {n: [] for n in lengths}
    for d, b, moments in [(1, form.q, MAX_MOMENT), (2, form.t1, 1)][: 1 + bitsum]:
        b0, at = b[0][0], len(sums[order])
        families.append((d, b0, tuple((x - b0, a) for x, a in b), moments, at))
        # sum_{k=1..j} w_m(k) = j^m: F_k = B / q_other^d for k <= lo, and
        # the c = i = 0 term is the uncapped F for every k > lo
        f = RationalGF(terms_mul(*[form.p] * d, b), terms_mul(*[e] * d))
        g = RationalGF(b, terms_mul(*[form.q_other] * d))
        f, g = f.expand(order), g.expand(order)
        for n in lengths:
            j = min(lo, n)
            sums[n] += [j**m * (f[n] - g[n]) for m in range(1, moments + 1)]

    def width(j: int) -> int:
        """How far the families read U_j: at c = j + 1 - d, to N - c step - b0."""
        return max([0] + [order - (j + 1 - d) * step - b0 + 1 for d, b0, *_ in families])

    us = []  # U_c .. U_(c + d_max - 1), U_j = 1 / E^(j + 1)
    for j in range(families[-1][0]):
        us.append(divide(us[-1] if us else [1], e, width(j)))
    for c in range(order // step + 1):
        # term (c, i) of [z^n] F_k, k = k0, k0 + 1, ...: rows[i] from
        # n - c step - i k0 - b0 down by c + i
        for d, b0, b, moments, at in families:
            last = order - c * step - b0 + 1
            rows = [_times(b, us[d - 1], last)]
            for _ in range(d):
                rows.insert(0, _times(form.p, rows[0], last))
            scale = (-1) ** c * comb(c + d - 1, d - 1)
            fs = [(-1) ** i * comb(d, i) for i in range(c == 0, d + 1)]
            slices = [(rows[i], c + i) for i in range(c == 0, d + 1)]
            dots = weights[: moments - 1]
            first = c * step + (c == 0) * k0 + b0
            for n in lengths[bisect_left(lengths, first) :]:
                tops = range(n - first, -1, -k0)
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
    return [tuple(sums[n]) for n in ns]


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
