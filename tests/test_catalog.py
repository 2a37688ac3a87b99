import math
import re

import pytest

from bitruns.catalog import (
    _parts,
    _theta_ones,
    alternating_gf,
    bitsum_gfs,
    bivariate_denominator,
    cap_form,
    count_gf,
    cross_gf,
    defined_families,
    run_family,
    shortest_runs,
)
from bitruns.ensembles import (
    StringClass,
    bit_string,
    class_member,
    enumerate_classes,
    enumerate_joint,
)
from bitruns.errors import UndefinedFamily, UnsupportedClass
from bitruns.jointdp import _at_most
from bitruns.moments import moment_weight, run_numerators
from bitruns.series import RationalGF, dense_terms, merged, terms_mul

from families import FAMILIES

U, SOL, MUL, BIM, PER = (
    StringClass.UNCONSTRAINED,
    StringClass.SOLUS,
    StringClass.MULTUS,
    StringClass.BIMULTUS,
    StringClass.PERSOLUS,
)


def test_count_gf_prefixes():
    assert count_gf(StringClass.UNCONSTRAINED).expand(5) == (1, 2, 4, 8, 16, 32)
    assert count_gf(StringClass.SOLUS).expand(7) == (1, 2, 3, 5, 8, 13, 21, 34)
    assert count_gf(StringClass.MULTUS).expand(7) == (1, 1, 2, 4, 7, 12, 21, 37)
    assert count_gf(StringClass.BIMULTUS).expand(7) == (0, 0, 2, 2, 4, 6, 10, 16)
    assert count_gf(StringClass.PERSOLUS).expand(7) == (0, 1, 1, 3, 4, 5, 8, 12)


def test_bitsum_gfs_match_oracle():
    """a_n and b_n sum the bitsum and its square over the class strings
    for every class, multus included, at n <= 14."""
    order = 14
    dists = [enumerate_classes(n) for n in range(order + 1)]
    for cls in StringClass:
        a, b = (gf.expand(order) for gf in bitsum_gfs(cls))
        for n, by_class in enumerate(dists):
            counts = by_class[cls].counts
            assert a[n] == sum(cnt * s for (_, _, s), cnt in counts), (cls, n)
            assert b[n] == sum(cnt * s * s for (_, _, s), cnt in counts), (cls, n)


def test_bitsum_triples_match_oracle():
    """The reference (a, b, c) triples and the constructor's (a, b) agree
    with the oracle at n <= 9, and c_n = d_n b_n - a_n^2."""
    for cls, triple in REFERENCE_BITSUMS.items():
        a, b, c = (gf.expand(9) for gf in triple)
        assert (a, b) == tuple(gf.expand(9) for gf in bitsum_gfs(cls)), cls
        d = count_gf(cls).expand(9)
        for n in range(1, 10):
            dist = enumerate_joint(n, cls)
            wa = sum(cnt * s for (_, _, s), cnt in dist.counts)
            wb = sum(cnt * s * s for (_, _, s), cnt in dist.counts)
            assert a[n] == wa, (cls, n)
            assert b[n] == wb, (cls, n)
            assert c[n] == d[n] * wb - wa * wa, (cls, n)


# The constructor's bitsum-marked GFs, which the zero-run cap sum
# replaced, kept as its reference: copies of the former
# catalog.alternating_bitsum_gf and catalog.bitsum_hk.


def _constructor_bitsum_gf(string_class, zero_cap=None):
    """(q_0 + a_0)^2 t_1 / (q_0 q_1 - a_0 a_1)^2 with the 0-runs capped."""
    (_, p0, _), _, den = _parts(string_class, zero_cap, None)
    d = merged(den)
    return RationalGF(terms_mul(p0, p0, _theta_ones(string_class)), terms_mul(d, d))


def _constructor_bitsum_hk(string_class, k):
    """R_k: the total bitsum over class strings whose longest 0-run is < k."""
    if k < 1:
        raise ValueError("run thresholds must be >= 1")
    return _constructor_bitsum_gf(string_class, k - 1)


def test_bitsum_hk_match_oracle():
    """R_k sums the bitsum over strings whose longest 0-run is < k."""
    for cls in StringClass:
        for k in range(1, 12):
            series = _constructor_bitsum_hk(cls, k).expand(10)
            for n in range(11):
                want = sum(
                    cnt * s
                    for (r0, _, s), cnt in enumerate_joint(n, cls).counts
                    if r0 < k
                )
                assert series[n] == want, (cls, k, n)
        assert _constructor_bitsum_hk(cls, 12).expand(10) == bitsum_gfs(cls)[0].expand(10)
    with pytest.raises(ValueError):
        _constructor_bitsum_hk(StringClass.SOLUS, 0)


def _sparse_times(t, row, order):
    """Coefficients z^0..z^order of the sparse t times the dense row."""
    out = [0] * (order + 1)
    for x, a in t:
        for i in range(x, order + 1):
            out[i] += a * row[i - x]
    return out


def _cap_coefficients(string_class, bit, order):
    """n -> (h, r) for n = 0..order: h[k - 1] = [z^n] H_k for the runs of
    `bit` and, for bit 0, r[k - 1] = [z^n] R_k, for k = 1..n + 1.

    A per-k reader of cap_form's geometric series, independent of the
    streamed sum in bitruns.moments: each H_k and R_k is assembled as
    (P - z^k) Q sum_c (-1)^c z^(c(k + l)) / E^(c + 1) and (P - z^k)^2 t1
    sum_c (-1)^c (c + 1) z^(c(k + l)) / E^(c + 2) and expanded."""
    f = cap_form(string_class, bit)
    rows, den = [], f.e
    for _ in range(order + 2):
        rows.append(RationalGF(((0, 1),), den).expand(order))
        den = terms_mul(den, f.e)
    small_h = RationalGF(f.q, f.q_other).expand(order)
    small_r = RationalGF(f.t1 or (), terms_mul(f.q_other, f.q_other)).expand(order)
    cols = []
    for k in range(1, order + 2):
        if k <= f.lo:
            cols.append((small_h, small_r))
            continue
        p_k = f.p + ((k, -1),)
        h, r = [0] * (order + 1), [0] * (order + 1)
        c = 0
        while c * (k + f.lo_other) <= order:
            shift = c * (k + f.lo_other)
            for i in range(shift, order + 1):
                h[i] += (-1) ** c * rows[c][i - shift]
                r[i] += (-1) ** c * (c + 1) * rows[c + 1][i - shift]
            c += 1
        h = _sparse_times(terms_mul(p_k, f.q), h, order)
        r = _sparse_times(terms_mul(p_k, p_k, f.t1 or ()), r, order)
        cols.append((h, r))
    return {
        n: ([col[0][n] for col in cols[: n + 1]], [col[1][n] for col in cols[: n + 1]])
        for n in range(order + 1)
    }


def test_zero_cap_coefficients_match_oracle():
    """[z^n] H_k and [z^n] R_k read off cap_form count and sum the bitsum
    over the strings whose longest 0-run is < k, for k = 1..n + 1."""
    ns = range(1, 11)
    for cls in StringClass:
        caps = _cap_coefficients(cls, 0, ns[-1])
        for n in ns:
            counts = enumerate_joint(n, cls).counts
            h, r = caps[n]
            for k in range(1, n + 2):
                below = [(s, cnt) for (r0, _, s), cnt in counts if r0 < k]
                assert h[k - 1] == sum(cnt for _, cnt in below), (cls, n, k)
                assert r[k - 1] == sum(s * cnt for s, cnt in below), (cls, n, k)


def test_defined_families():
    fams = defined_families()
    assert len(fams) == 8
    assert (StringClass.SOLUS, 1) not in fams
    assert (StringClass.PERSOLUS, 1) not in fams


def test_run_family_undefined():
    # a run family is its (class, bit) pair: run_family only validates
    assert all(run_family(cls, bit) is None for cls, bit in defined_families())
    with pytest.raises(UndefinedFamily):
        run_family(StringClass.SOLUS, 1)
    with pytest.raises(UndefinedFamily):
        run_family(StringClass.PERSOLUS, 1)


def test_hk_counts_no_long_runs():
    """H_k expansions count class strings whose longest bit-run is < k."""
    for cls, bit in defined_families():
        fam = FAMILIES[cls, bit]
        for k in range(1, 7):
            series = fam.hk(k).expand(9)
            for n in range(1, 10):
                want = sum(
                    cnt
                    for key, cnt in enumerate_joint(n, cls).counts
                    if key[bit] < k
                )
                assert series[n] == want, (cls, bit, k, n)


def test_h_is_count_gf_limit():
    # for large k the no-k-run constraint is vacuous at small n
    for cls, bit in defined_families():
        fam = FAMILIES[cls, bit]
        assert fam.hk(12).expand(9) == fam.H.expand(9)


def test_cross_gf_counts():
    for cls in (StringClass.UNCONSTRAINED, StringClass.MULTUS):
        start = 0 if cls is StringClass.UNCONSTRAINED else 1
        for i in range(1, 6):
            for j in range(1, 6):
                series = cross_gf(cls, i, j).expand(8)
                for n in range(start, 9):
                    want = sum(
                        cnt
                        for (r0, r1, _), cnt in enumerate_joint(n, cls).counts
                        if r1 < i and r0 < j
                    )
                    assert series[n] == want, (cls, i, j, n)


def test_shortest_runs():
    """(lo0, lo1) where both bits have a run family, read off the shortest
    runs the oracle finds; one refusal, worded alike, for the others."""
    for cls in StringClass:
        both = {b for c, b in defined_families() if c is cls} == {0, 1}
        if not both:
            with pytest.raises(UnsupportedClass, match=f"^no two-run generating function for {cls}$"):
                shortest_runs(cls)
            continue
        runs = [[], []]
        for v in range(1 << 10):
            if class_member(v, 10, cls):
                for run in re.findall("0+|1+", bit_string(v, 10)):
                    runs[int(run[0])].append(len(run))
        assert shortest_runs(cls) == (min(runs[0]), min(runs[1])), cls


def test_cross_gf_rejects_bad_input():
    with pytest.raises(ValueError):
        cross_gf(StringClass.UNCONSTRAINED, 0, 1)
    for cls in (SOL, PER):  # 1-runs of one length have no run family
        with pytest.raises(UnsupportedClass):
            cross_gf(cls, 2, 2)
    # bimultus f_{a,b}, which no hand-written form covered, counts exactly
    series = {
        (a, b): cross_gf(BIM, a, b).expand(14) for a in range(1, 8) for b in range(1, 8)
    }
    for n in range(1, 15):
        counts = enumerate_joint(n, BIM).counts
        for (a, b), s in series.items():
            want = sum(cnt for (r0, r1, _), cnt in counts if r1 < a and r0 < b)
            assert s[n] == want, (a, b, n)


def valuation(f, g):
    """Exponent of the lowest nonzero term of f - g; math.inf if f == g.

    The expansions of f and g agree exactly below it, and differ there.
    f - g = (N_f D_g - N_g D_f) / (D_f D_g), and D_f D_g has a nonzero
    constant term, so the valuation is that of the sparse cross product.
    """
    diff: dict = {}
    get = diff.get
    for e1, c1 in f.num_terms:
        for e2, c2 in g.den_terms:
            e = e1 + e2
            diff[e] = get(e, 0) + c1 * c2
    for e1, c1 in g.num_terms:
        for e2, c2 in f.den_terms:
            e = e1 + e2
            diff[e] = get(e, 0) - c1 * c2
    return min((e for e, c in diff.items() if c), default=math.inf)


def test_valuation_examples():
    geom = RationalGF([(0, 1)], [(0, 1), (1, -1)])
    head = RationalGF([(0, 1), (5, -1)], [(0, 1), (1, -1)])  # 1 + ... + z^4
    assert valuation(geom, head) == valuation(head, geom) == 5
    # one function, two representations
    assert valuation(geom, RationalGF([(0, 2)], [(0, 2), (1, -2)])) == math.inf
    assert valuation(geom, RationalGF([(1, 1)], [(0, 1), (1, -1)])) == 0


def _first_difference(f, g, order):
    a, b = f.expand(order), g.expand(order)
    return next((n for n in range(order + 1) if a[n] != b[n]), math.inf)


def _valuation_cases():
    """(f, base) pairs that share a prefix, from every catalog family."""
    for cls, bit in defined_families():
        fam = FAMILIES[cls, bit]
        for k in range(1, 41):
            yield fam.hk(k), fam.H
    for cls in (StringClass.UNCONSTRAINED, StringClass.SOLUS):
        top = _constructor_bitsum_hk(cls, 42)
        for k in range(1, 41):
            yield _constructor_bitsum_hk(cls, k), top
    for cls in (StringClass.UNCONSTRAINED, StringClass.MULTUS, StringClass.BIMULTUS):
        ones, zeros = FAMILIES[cls, 1], FAMILIES[cls, 0]
        for m in range(1, 21):
            yield ones.hk(m), ones.H
            yield zeros.hk(m), zeros.H
            for other in range(m, 41 - m):
                yield cross_gf(cls, m, other), ones.hk(m)
                yield cross_gf(cls, other, m), zeros.hk(m)
        yield count_gf(cls), cross_gf(cls, 3, 4)


def test_valuation_is_the_first_differing_coefficient():
    """The valuation that the reference-form identities below rest on is
    where the expansions part."""
    for f, base in _valuation_cases():
        assert valuation(f, base) == _first_difference(f, base, 100), (f, base)


def test_count_gfs_are_the_uncapped_constructor():
    for cls in StringClass:
        gf, count = alternating_gf(cls), count_gf(cls)
        if cls is MUL:
            # the multus count keeps the empty string; the constructor
            # sets z^0 to 0, as every other multus GF does
            assert valuation(gf, count) == 0
            plus_one = RationalGF(gf.num_terms + gf.den_terms, gf.den_terms)
            assert valuation(plus_one, count) == math.inf
        else:
            assert valuation(gf, count) == math.inf, cls


def test_bivariate_denominator_marks_the_ones():
    """At u = 1 the bivariate denominator D(z, u) is the constructor's;
    with u marking each 1 it annihilates the oracle's counts by (length,
    bitsum) beyond the numerator's degree (4 for every class):
    sum of c f(n - ez, s - eu) over the terms c z^ez u^eu is 0."""
    order = 12
    dists = [enumerate_classes(n) for n in range(order + 1)]
    for cls in StringClass:
        den = bivariate_denominator(cls)
        at_one: dict = {}
        for e, _, c in den:
            at_one[e] = at_one.get(e, 0) + c
        assert merged(at_one) == alternating_gf(cls).den_terms, cls
        f = [{} for _ in dists]
        for n, by_class in enumerate(dists):
            for (_, _, s), cnt in by_class[cls].counts:
                f[n][s] = f[n].get(s, 0) + cnt
        for n in range(5, order + 1):
            for s in range(n + 1):
                assert sum(c * f[n - e].get(s - u, 0) for e, u, c in den) == 0, (cls, n, s)


def test_bitsum_gfs_equal_reference_forms():
    """a and b equal the hand-written forms as rational functions, and a
    is the uncapped bitsum-marked R."""
    for cls in StringClass:
        a, b = bitsum_gfs(cls)
        assert valuation(_constructor_bitsum_gf(cls), a) == math.inf, cls
        if cls in REFERENCE_BITSUMS:
            ref_a, ref_b, _ = REFERENCE_BITSUMS[cls]
            assert valuation(a, ref_a) == math.inf, cls
            assert valuation(b, ref_b) == math.inf, cls


# The hand-written closed forms that the constructor replaced, kept as its
# reference.  Several count correctly only from a minimal k (MIN_VALID_K);
# the moment sums then added a correction G, or replaced the k = 1 term.


_gf = RationalGF


def _p(*coeffs):
    return dense_terms(coeffs)


#: The hand-written (a, b, c) bitsum GFs, c_n = d_n b_n - a_n^2, that
#: bitsum_gfs replaced; multus had none.
_SOLUS_DEN = _p(1, -1, -1)

REFERENCE_BITSUMS = {
    U: (
        _gf(((1, 1),), terms_mul(_p(1, -2), _p(1, -2))),
        _gf(((1, 1),), terms_mul(_p(1, -2), _p(1, -2), _p(1, -2))),
        _gf(((1, 1),), terms_mul(_p(1, -4), _p(1, -4))),
    ),
    SOL: (
        _gf(((1, 1),), terms_mul(_SOLUS_DEN, _SOLUS_DEN)),
        _gf(_p(0, 1, -1, 1), terms_mul(_SOLUS_DEN, _SOLUS_DEN, _SOLUS_DEN)),
        _gf(
            _p(0, 1, -1),
            terms_mul(_p(1, 1), _p(1, 1), _p(1, 1), _p(1, -3, 1), _p(1, -3, 1)),
        ),
    ),
    BIM: (
        _gf(_p(0, 0, 2, -1), terms_mul(_p(1, -1, -1), _p(1, -1, -1))),
        _gf(
            _p(0, 0, 4, -7, 4, -1, 4, -1),
            terms_mul(_p(1, -1, 1), _p(1, -1, -1), _p(1, -1, -1), _p(1, -1, -1)),
        ),
        _gf(
            _p(0, 0, 4, -11, 11, -13, 2, 17, -5, -1),
            terms_mul(
                _p(1, 1), _p(1, 1), _p(1, -3, 1), _p(1, -3, 1), _p(1, -1, 2, 1, 1)
            ),
        ),
    ),
    PER: (
        _gf(
            terms_mul(((1, 1),), _p(1, -1, 1), _p(1, -1, 1)),
            terms_mul(_p(1, -1, 0, -1), _p(1, -1, 0, -1)),
        ),
        _gf(
            terms_mul(((1, 1),), _p(1, -1, 1), _p(1, -1, 1), _p(1, -1, 0, 1)),
            terms_mul(_p(1, -1, 0, -1), _p(1, -1, 0, -1), _p(1, -1, 0, -1)),
        ),
        _gf(
            terms_mul(((3, 1),), _p(2, 4, -6, -6, -16, -8, 8, 14, 5, -2, -3, -1)),
            terms_mul(
                _p(1, -1, -2, -1),
                _p(1, -1, -2, -1),
                _p(1, 0, 1, -1),
                _p(1, 0, 1, -1),
                _p(1, 0, 1, -1),
            ),
        ),
    ),
}


def _ref_hk_unconstrained(k):
    return _gf([(0, 1), (k, -1)], [(0, 1), (1, -2), (k + 1, 1)])


def _ref_hk_solus0(k):
    return _gf(
        [(0, 1), (1, 1), (k, -1), (k + 1, -1)],
        [(0, 1), (1, -1), (2, -1), (k + 1, 1)],
    )


def _ref_hk_multus1(k):
    return _gf(
        [(1, 1), (3, 1), (k, -1), (k + 1, -1)],
        [(0, 1), (1, -2), (2, 1), (3, -1), (k + 1, 1)],
    )


def _ref_hk_multus0(k):
    return _gf(
        [(1, 1), (3, 1), (k, -1), (k + 1, 1), (k + 2, -2)],
        [(0, 1), (1, -2), (2, 1), (3, -1), (k + 2, 1)],
    )


def _ref_hk_bimultus(k):
    return _gf(
        [(2, 2), (3, -2), (4, 2), (k, -1), (k + 1, 1), (k + 2, -2)],
        [(0, 1), (1, -2), (2, 1), (4, -1), (k + 2, 1)],
    )


def _ref_hk_persolus0(k):
    return _gf(
        [(1, 1), (3, 2), (k, -1), (k + 1, -2)],
        [(0, 1), (1, -1), (3, -1), (k + 1, 1)],
    )


_ZERO = _gf((), _p(1))

#: (class, bit): (H_k, MIN_VALID_K, G, the k = 1 replacement or None)
REFERENCE_FAMILIES = {
    (U, 0): (_ref_hk_unconstrained, 1, _ZERO, None),
    (U, 1): (_ref_hk_unconstrained, 1, _ZERO, None),
    (SOL, 0): (_ref_hk_solus0, 1, _ZERO, None),
    (MUL, 1): (_ref_hk_multus1, 2, _gf(_p(0, -1), terms_mul(_p(1, -1), _p(1, -1, 1))), None),
    (MUL, 0): (_ref_hk_multus0, 1, _ZERO, None),
    # the printed bimultus G disagrees with the published moments, so the
    # k = 1 term was replaced by the all-ones strings instead
    (BIM, 0): (_ref_hk_bimultus, 2, _ZERO, _gf([(2, 1)], _p(1, -1))),
    (BIM, 1): (_ref_hk_bimultus, 2, _ZERO, _gf([(2, 1)], _p(1, -1))),
    (PER, 0): (_ref_hk_persolus0, 2, _gf(_p(0, -1, -2, -1), _p(1, 0, 1)), None),
}


def _ref_cross_unconstrained(i, j):
    return _gf(
        [(0, 1), (i, -1), (j, -1), (i + j, 1)],
        [(0, 1), (1, -2), (i + 1, 1), (j + 1, 1), (i + j, -1)],
    )


def _ref_cross_multus(i, j):
    if i == 1 and j == 1:
        return _ZERO
    if i == 1:  # no 1s: the all-zero strings of length 1..j-1
        return _gf([(1, 1), (j, -1)], _p(1, -1))
    if j == 1:  # no 0s: the all-one strings of length 2..i-1
        return _ZERO if i <= 2 else _gf([(2, 1), (i, -1)], _p(1, -1))
    return _gf(
        [(1, 1), (3, 1), (i, -1), (i + 1, -1), (j, -1), (j + 1, 1), (j + 2, -2),
         (i + j, 2)],
        [(0, 1), (1, -2), (2, 1), (3, -1), (i + 1, 1), (j + 2, 1), (i + j, -1)],
    )


def _ref_bitsum_hk(cls, k):
    # z (1 - z^k)^2 / D_k^2, with D_k the H_k denominator
    base = _p(1, -2) if cls is U else _p(1, -1, -1)
    one_minus = ((0, 1), (k, -1))
    den = base + ((k + 1, 1),)
    return _gf(terms_mul(((1, 1),), one_minus, one_minus), terms_mul(den, den))


@pytest.mark.parametrize("cls,bit", list(REFERENCE_FAMILIES))
def test_hk_equals_reference_form(cls, bit):
    hk, min_valid_k, _, _ = REFERENCE_FAMILIES[cls, bit]
    fam = FAMILIES[cls, bit]
    for k in range(min_valid_k, 61):
        assert valuation(fam.hk(k), hk(k)) == math.inf, k


def test_cross_gf_equals_reference_form():
    for a in range(1, 61):
        for b in range(1, 61):
            assert valuation(cross_gf(U, a, b), _ref_cross_unconstrained(a, b)) == math.inf
            assert valuation(cross_gf(MUL, a, b), _ref_cross_multus(a, b)) == math.inf, (a, b)


def test_bitsum_hk_equals_reference_form():
    for cls in (U, SOL):
        for k in range(1, 61):
            assert valuation(_constructor_bitsum_hk(cls, k), _ref_bitsum_hk(cls, k)) == math.inf


@pytest.mark.parametrize("cls,bit", list(REFERENCE_FAMILIES))
def test_moment_numerator_equals_reference_route(series_moments, cls, bit):
    """G plus the weighted reference H_k, with the k = 1 replacement,
    gives the moment numerators the exact H_k give with no G, on the
    series route and on the cap sum."""
    hk, _, g, first = REFERENCE_FAMILIES[cls, bit]
    order = 60
    h = FAMILIES[cls, bit].H.expand(order)
    start = g.expand(order) if first is None else (0,) * (order + 1)
    acc = [list(start) for _ in range(4)]
    for k in range(1, order + 3):
        c = (first if k == 1 and first is not None else hk(k)).expand(order)
        for m, a in enumerate(acc, 1):
            w = moment_weight(m, k)
            for n in range(order + 1):
                a[n] += w * (h[n] - c[n])
    assert series_moments(FAMILIES[cls, bit], order) == acc
    got = run_numerators(cls, bit, range(order + 1))
    assert [list(col) for col in zip(*got)] == acc


# ---------------------------------------------------------------------------
# the zero-run cap sum against the routes it replaced

CAP_ORDER = 60


def _series_rs_numerator(string_class, order):
    """Copy of the former moments.rs_numerator: sum over k of the expanded
    R_(order + 2) - R_k, each R_k expanded in full."""
    full = _constructor_bitsum_hk(string_class, order + 2).expand(order)
    acc = [0] * (order + 1)
    for k in range(1, order + 2):
        c = _constructor_bitsum_hk(string_class, k).expand(order)
        for n in range(order + 1):
            acc[n] += full[n] - c[n]
    return acc


@pytest.mark.parametrize("cls", [U, SOL])
def test_zero_cap_coefficients_equal_bounded_compositions(cls):
    """[z^n] H_k and [z^n] R_k are the sums over s of N(n - s, s, k - 1)
    and s N(n - s, s, k - 1), for every k and n <= 60."""
    ns = range(CAP_ORDER + 1)
    caps = _cap_coefficients(cls, 0, CAP_ORDER)
    for n in ns:
        at_most = [(s, _at_most(n - s, s, cls)) for s in range(n + 1)]
        h, r = caps[n]
        for k in range(1, n + 2):
            counts = [(s, count(k - 1)) for s, count in at_most]
            assert h[k - 1] == sum(c for _, c in counts), (n, k)
            assert r[k - 1] == sum(s * c for s, c in counts), (n, k)


@pytest.mark.parametrize("cls", list(StringClass))
def test_zero_cap_coefficients_equal_constructor_gfs(cls):
    """For every k and 1 <= n <= 60 cap_form gives the coefficients of
    the constructor's H_k and R_k; at z^0 it counts the empty string."""
    caps = _cap_coefficients(cls, 0, CAP_ORDER)
    assert caps[0] == ([1], [0])
    for k in range(1, CAP_ORDER + 2):
        hk = alternating_gf(cls, k - 1).expand(CAP_ORDER)
        rk = _constructor_bitsum_hk(cls, k).expand(CAP_ORDER)
        for n in range(max(k - 1, 1), CAP_ORDER + 1):
            h, r = caps[n]
            assert (h[k - 1], r[k - 1]) == (hk[n], rk[n]), (k, n)


@pytest.mark.parametrize("cls", [c for c, bit in defined_families() if bit])
def test_one_cap_coefficients_equal_constructor_gfs(cls):
    """For every k and 1 <= n <= 60 cap_form gives the coefficients of
    the constructor's H_k for the 1-runs, and at n <= 10 the counts of
    the strings whose longest 1-run is < k."""
    caps = _cap_coefficients(cls, 1, CAP_ORDER)
    assert caps[0][0] == [1]
    for k in range(1, CAP_ORDER + 2):
        hk = alternating_gf(cls, None, k - 1).expand(CAP_ORDER)
        for n in range(max(k - 1, 1), CAP_ORDER + 1):
            assert caps[n][0][k - 1] == hk[n], (k, n)
    for n in range(1, 11):
        counts = enumerate_joint(n, cls).counts
        for k in range(1, n + 2):
            want = sum(cnt for (_, r1, _), cnt in counts if r1 < k)
            assert caps[n][0][k - 1] == want, (n, k)


def test_cap_form_pieces():
    """E, P and Q for the 1-runs of multus, and the families without one."""
    f = cap_form(MUL, 1)
    assert (f.lo, f.lo_other) == (2, 1)
    assert f.e == dense_terms((1, -2, 1, -1))  # (1 - z)^2 - z^3
    assert f.p == dense_terms((1, -1, 1)) and f.q == ((0, 1),)
    assert f.t1 is None
    assert cap_form(SOL, 0).t1 == _theta_ones(SOL)
    for cls in (SOL, PER):
        with pytest.raises(UndefinedFamily):
            cap_form(cls, 1)


def _zero_run_bitsum_numerators(cls, ns):
    """The sums of R0, R0^2 and R0 * bitsum that table2 reads."""
    return [(r[0], r[1], r[-1]) for r in run_numerators(cls, 0, ns, bitsum=True)]


@pytest.mark.parametrize("cls", list(StringClass))
def test_zero_run_bitsum_numerators_equal_series_route(series_moments, cls):
    """The three table2 numerators equal the series route's first two for
    bit 0 and the former rs_numerator, at every n <= 60, for a sweep, for
    single lengths and for repeated, unsorted lengths."""
    r1, r2 = series_moments(FAMILIES[cls, 0], CAP_ORDER)[:2]
    rs = _series_rs_numerator(cls, CAP_ORDER)
    want = {n: (r1[n], r2[n], rs[n]) for n in range(CAP_ORDER + 1)}
    ns = list(range(CAP_ORDER + 1))
    assert _zero_run_bitsum_numerators(cls, ns) == [want[n] for n in ns]
    for n in (0, 1, 2, 3, 17, CAP_ORDER):
        assert _zero_run_bitsum_numerators(cls, [n]) == [want[n]]
    mixed = [40, 3, 40, 0, 11]
    assert _zero_run_bitsum_numerators(cls, mixed) == [want[n] for n in mixed]
