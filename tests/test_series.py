import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitruns.errors import NonUnitConstantTerm
from bitruns.series import RationalGF, dense_terms, divide, terms, terms_mul


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
    gf = RationalGF([(3, 2), (0, 1), (5, 0)], [(0, 1), (2, -1)])
    assert gf.num_terms == ((0, 1), (3, 2))
    assert gf.denominator == (1, 0, -1)
    assert gf == RationalGF([(0, 1), (3, 1), (3, 1)], ((0, 1), (2, -1)))
    assert hash(gf) == hash(RationalGF({3: 2, 0: 1}.items(), [(2, -1), (0, 1)]))
    assert repr(gf) == "RationalGF(((0, 1), (3, 2)), ((0, 1), (2, -1)))"
    assert eval(repr(gf)) == gf
    assert RationalGF([(0, 0)], [(0, 1)]).num_terms == ()
    with pytest.raises(ValueError):
        RationalGF([(-1, 1)], [(0, 1)])
    with pytest.raises(ValueError):
        RationalGF([(0, 1)], [(1, 1)])


_coeff = st.integers(-3, 3).filter(bool)


@st.composite
def _unit_gfs(draw):
    """Random sparse GFs with a unit constant term in the denominator;
    the numerator may reach past the expansion order."""
    num = draw(st.lists(st.tuples(st.integers(0, 40), _coeff), max_size=5))
    tail = draw(st.lists(st.tuples(st.integers(1, 12), _coeff), max_size=4))
    d0 = draw(st.sampled_from((1, -1)))
    return RationalGF(num, [(0, d0)] + tail)


def _cauchy(coeffs, t, order):
    """Coefficients z^0..z^order of the dense coeffs times the sparse t."""
    out = [0] * (order + 1)
    for e, c in t:
        for n in range(e, order + 1):
            out[n] += c * coeffs[n - e]
    return out


@settings(max_examples=300, deadline=None)
@given(f=_unit_gfs(), order=st.integers(0, 30))
def test_expansion_times_denominator_is_numerator(f, order):
    got = f.expand(order)
    assert type(got) is tuple and len(got) == order + 1
    want = [0] * (order + 1)
    for e, c in f.num_terms:
        if e <= order:
            want[e] = c
    assert _cauchy(got, f.den_terms, order) == want


def test_divide_edge_cases():
    fib = dense_terms((1, -1, -1))
    assert divide([1], fib, 0) == []
    assert divide([1], fib, 9) == [1, 1, 2, 3, 5, 8, 13, 21, 34]
    # over den = 1 the source comes back, cut or padded to the length
    assert divide([3, 0, -4], ((0, 1),), 5) == [3, 0, -4, 0, 0]
    assert divide([3, 0, -4], ((0, 1),), 2) == [3, 0]
    assert divide([3, 0, -4], ((0, 1),), 0) == []


def test_gf_expand_fibonacci():
    gf = RationalGF([(0, 1)], dense_terms((1, -1, -1)))
    assert gf.expand(8) == (1, 1, 2, 3, 5, 8, 13, 21, 34)


def test_gf_expand_negative_unit_denominator():
    assert RationalGF([(0, -1)], [(0, -1), (1, 2)]).expand(4) == (1, 2, 4, 8, 16)


def test_gf_expand_requires_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        RationalGF([(0, 1)], [(0, 2), (1, -1)]).expand(3)
    with pytest.raises(ValueError, match="nonnegative"):
        RationalGF([(0, 1)], [(0, 1), (1, -1)]).expand(-1)


def test_gf_zero_denominator_constant_rejected():
    with pytest.raises(ValueError):
        RationalGF([(0, 1)], [(1, 1)])
