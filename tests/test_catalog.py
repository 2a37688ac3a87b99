import math

import pytest

from bitruns.catalog import (
    CROSS_MIN_CLOSED,
    bitsum_hk,
    bitsum_triple,
    count_gf,
    cross_gf,
    defined_families,
    run_family,
)
from bitruns.ensembles import StringClass, enumerate_joint
from bitruns.errors import UndefinedFamily, UnsupportedClass
from bitruns.series import valuation


def test_count_gf_prefixes():
    assert count_gf(StringClass.UNCONSTRAINED).expand(5).coeffs == (1, 2, 4, 8, 16, 32)
    assert count_gf(StringClass.SOLUS).expand(7).coeffs == (1, 2, 3, 5, 8, 13, 21, 34)
    assert count_gf(StringClass.MULTUS).expand(7).coeffs == (1, 1, 2, 4, 7, 12, 21, 37)
    assert count_gf(StringClass.BIMULTUS).expand(7).coeffs == (0, 0, 2, 2, 4, 6, 10, 16)
    assert count_gf(StringClass.PERSOLUS).expand(7).coeffs == (0, 1, 1, 3, 4, 5, 8, 12)


def test_bitsum_triples_match_oracle():
    for cls in (
        StringClass.UNCONSTRAINED,
        StringClass.SOLUS,
        StringClass.BIMULTUS,
        StringClass.PERSOLUS,
    ):
        t = bitsum_triple(cls)
        a, b, c = t.a.expand(9), t.b.expand(9), t.c.expand(9)
        d = count_gf(cls).expand(9)
        for n in range(1, 10):
            dist = enumerate_joint(n, cls)
            wa = sum(cnt * s for (_, _, s), cnt in dist.counts)
            wb = sum(cnt * s * s for (_, _, s), cnt in dist.counts)
            assert a[n] == wa
            assert b[n] == wb
            assert c[n] == d[n] * wb - wa * wa


def test_bitsum_triple_unsupported():
    with pytest.raises(UnsupportedClass):
        bitsum_triple(StringClass.MULTUS)


def test_bitsum_hk_match_oracle():
    """bitsum_hk(k) sums the bitsum over strings whose longest 0-run is < k."""
    for cls in (StringClass.UNCONSTRAINED, StringClass.SOLUS):
        for k in range(1, 12):
            series = bitsum_hk(cls, k).expand(10)
            for n in range(11):
                want = sum(
                    cnt * s
                    for (r0, _, s), cnt in enumerate_joint(n, cls).counts
                    if r0 < k
                )
                assert series[n] == want, (cls, k, n)
        assert bitsum_hk(cls, 12).expand(10) == bitsum_triple(cls).a.expand(10)
    with pytest.raises(ValueError):
        bitsum_hk(StringClass.SOLUS, 0)
    with pytest.raises(UnsupportedClass):
        bitsum_hk(StringClass.MULTUS, 3)


def test_defined_families():
    fams = defined_families()
    assert len(fams) == 8
    assert (StringClass.SOLUS, 1) not in fams
    assert (StringClass.PERSOLUS, 1) not in fams


def test_run_family_undefined():
    with pytest.raises(UndefinedFamily):
        run_family(StringClass.SOLUS, 1)
    with pytest.raises(UndefinedFamily):
        run_family(StringClass.PERSOLUS, 1)


def test_hk_counts_no_long_runs():
    """H_k expansions count class strings whose longest bit-run is < k."""
    for cls, bit in defined_families():
        fam = run_family(cls, bit)
        for k in range(fam.min_valid_k, 7):
            series = fam.hk(k).expand(9)
            for n in range(max(fam.valid_from_n, 1), 10):
                want = sum(
                    cnt
                    for key, cnt in enumerate_joint(n, cls).counts
                    if key[bit] < k
                )
                assert series[n] == want, (cls, bit, k, n)


def test_h_is_count_gf_limit():
    # for large k the no-k-run constraint is vacuous at small n
    for cls, bit in defined_families():
        fam = run_family(cls, bit)
        assert fam.hk(12).expand(9).coeffs == fam.H.expand(9).coeffs


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


def test_cross_gf_min_closed_metadata():
    assert CROSS_MIN_CLOSED[StringClass.UNCONSTRAINED] == 1
    assert CROSS_MIN_CLOSED[StringClass.MULTUS] == 2


def test_cross_gf_rejects_bad_input():
    with pytest.raises(ValueError):
        cross_gf(StringClass.UNCONSTRAINED, 0, 1)
    with pytest.raises(UnsupportedClass):
        cross_gf(StringClass.BIMULTUS, 2, 2)


def _first_difference(f, g, order):
    a, b = f.expand(order).coeffs, g.expand(order).coeffs
    return next((n for n in range(order + 1) if a[n] != b[n]), math.inf)


def _valuation_cases():
    """(f, base) for every GF family the telescoping sums seed from a base."""
    for cls, bit in defined_families():
        fam = run_family(cls, bit)
        for k in range(1, 41):
            yield fam.hk_moment_overrides.get(k) or fam.hk(k), fam.H
        yield fam.G, fam.H
    for cls in (StringClass.UNCONSTRAINED, StringClass.SOLUS):
        top = bitsum_hk(cls, 42)
        for k in range(1, 41):
            yield bitsum_hk(cls, k), top
    for cls in (StringClass.UNCONSTRAINED, StringClass.MULTUS):
        ones, zeros = run_family(cls, 1), run_family(cls, 0)
        for m in range(1, 21):
            yield ones.hk(m), ones.H
            yield zeros.hk(m), zeros.H
            for other in range(m, 41 - m):
                yield cross_gf(cls, m, other), ones.hk(m)
                yield cross_gf(cls, other, m), zeros.hk(m)
        yield count_gf(cls), cross_gf(cls, 3, 4)


def test_valuation_is_the_first_differing_coefficient():
    """The seeded prefix length of every sum is where the expansions part."""
    for f, base in _valuation_cases():
        assert valuation(f, base) == _first_difference(f, base, 100), (f, base)
