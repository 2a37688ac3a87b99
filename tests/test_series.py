import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitruns.errors import NonUnitConstantTerm
from bitruns.series import (
    RationalGF,
    TruncatedSeries,
    dense_terms,
    gf_expand,
    terms,
    terms_mul,
    valuation,
)


def test_terms_normalize():
    assert terms([(2, 1), (0, 3), (2, -1), (1, 0), (0, 1)]) == ((0, 4),)
    assert terms([(3, 2), (1, -1)]) == ((1, -1), (3, 2))
    assert terms([]) == ()
    assert dense_terms([1, 0, -2, 0, 0]) == ((0, 1), (2, -2))
    assert dense_terms([0, 0]) == ()


def test_terms_arithmetic():
    assert terms_mul(((0, 1), (1, 1)), ((0, 1), (1, -1))) == ((0, 1), (2, -1))
    assert terms_mul(((1, 1),), ((0, 1), (3, -2))) == ((1, 1), (4, -2))
    assert terms_mul(((0, 1), (1, 1)), ((0, -1), (1, -1))) == ((0, -1), (1, -2), (2, -1))
    assert terms_mul(((0, 2),), ()) == ()
    assert terms_mul() == ((0, 1),)


def test_rational_gf_dense_view():
    gf = RationalGF.from_terms([(3, 2), (0, 1)], [(0, 1), (2, -1)])
    assert gf.num_terms == ((0, 1), (3, 2))
    assert gf.numerator == (1, 0, 0, 2)
    assert gf.denominator == (1, 0, -1)
    assert gf == RationalGF((1, 0, 0, 2, 0), (1, 0, -1))
    assert hash(gf) == hash(RationalGF((1, 0, 0, 2), (1, 0, -1, 0)))
    assert repr(gf) == "RationalGF([1, 0, 0, 2], [1, 0, -1])"
    assert RationalGF((0, 0), (1,)).numerator == (0,)
    with pytest.raises(ValueError):
        RationalGF.from_terms([(-1, 1)], [(0, 1)])
    with pytest.raises(ValueError):
        RationalGF.from_terms([(0, 1)], [(1, 1)])


def test_valuation_examples():
    geom = RationalGF((1,), (1, -1))
    head = RationalGF.from_terms([(0, 1), (5, -1)], [(0, 1), (1, -1)])  # 1 + ... + z^4
    assert valuation(geom, head) == valuation(head, geom) == 5
    # one function, two representations
    assert valuation(geom, RationalGF((2,), (2, -2))) == math.inf
    assert valuation(geom, RationalGF((0, 1), (1, -1))) == 0


def test_seeded_expansion_continues_the_recurrence():
    fib = RationalGF((1,), (1, -1, -1))
    assert gf_expand(fib, 8, (1, 1, 2)).coeffs == (1, 1, 2, 3, 5, 8, 13, 21, 34)
    assert gf_expand(fib, 2, (1, 1, 2)).coeffs == (1, 1, 2)
    with pytest.raises(ValueError):
        gf_expand(fib, 1, (1, 1, 2))


_coeff = st.integers(-3, 3).filter(bool)


@st.composite
def _unit_gfs(draw):
    """Random sparse GFs with a unit constant term in the denominator."""
    num = draw(st.lists(st.tuples(st.integers(0, 12), _coeff), max_size=5))
    tail = draw(st.lists(st.tuples(st.integers(1, 12), _coeff), max_size=4))
    d0 = draw(st.sampled_from((1, -1)))
    return RationalGF.from_terms(num, [(0, d0)] + tail)


@st.composite
def _nearby(draw, f):
    """A GF that agrees with f to a random order: f + z^s h."""
    h = draw(_unit_gfs())
    s = draw(st.integers(0, 15))
    num = terms_mul(f.num_terms, h.den_terms) + terms_mul(
        ((s, 1),), h.num_terms, f.den_terms
    )
    return RationalGF.from_terms(num, terms_mul(f.den_terms, h.den_terms))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), f=_unit_gfs(), order=st.integers(0, 30))
def test_seeded_expansion_equals_full(data, f, order):
    g = data.draw(_nearby(f) | _unit_gfs())
    full, other = f.expand(order).coeffs, g.expand(order).coeffs
    v = valuation(f, g)
    agree = min(v, order + 1)
    # the valuation is exactly where the expansions first differ
    assert full[:agree] == other[:agree]
    if v <= order:
        assert full[v] != other[v]
    p = data.draw(st.integers(0, agree))
    assert gf_expand(f, order, other[:p]) == f.expand(order)


def test_series_requires_constant_term():
    with pytest.raises(ValueError):
        TruncatedSeries([])


def test_series_order_and_indexing():
    s = TruncatedSeries([1, 2, 3])
    assert s.order == 2
    assert s[1] == 2
    assert s == TruncatedSeries((1, 2, 3))


def test_series_arithmetic_takes_min_order():
    a = TruncatedSeries([1, 1, 1, 1])
    b = TruncatedSeries([1, 2, 3])
    assert (a + b).coeffs == (2, 3, 4)
    assert (a - b).coeffs == (0, -1, -2)
    assert a.scale(2).coeffs == (2, 2, 2, 2)


def test_series_product_is_cauchy():
    geom = TruncatedSeries([1] * 5)
    sq = geom * geom
    assert sq.coeffs == (1, 2, 3, 4, 5)


def test_truncate():
    s = TruncatedSeries([1, 2, 3])
    assert s.truncate(1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        s.truncate(5)


def test_from_poly_pads():
    assert TruncatedSeries.from_poly((1, 2), 4).coeffs == (1, 2, 0, 0, 0)


def test_gf_expand_fibonacci():
    gf = RationalGF((1,), (1, -1, -1))
    assert gf.expand(8).coeffs == (1, 1, 2, 3, 5, 8, 13, 21, 34)


def test_gf_expand_negative_unit_denominator():
    assert gf_expand(RationalGF((-1,), (-1, 2)), 4).coeffs == (1, 2, 4, 8, 16)


def test_gf_expand_requires_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        RationalGF((1,), (2, -1)).expand(3)


def test_gf_zero_denominator_constant_rejected():
    with pytest.raises(ValueError):
        RationalGF((1,), (0, 1))
