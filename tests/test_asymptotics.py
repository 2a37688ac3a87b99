from fractions import Fraction

import mpmath
import pytest

from bitruns import asymptotics
from bitruns.asymptotics import (
    DIGITS,
    MEAN_OFFSETS,
    density_limits,
    finite_vs_asymptote,
    growth_constant,
    growth_constant_residual,
    mean_asymptote,
    variance_limit,
    working_precision,
)
from bitruns.catalog import bitsum_gfs, count_gf
from bitruns.ensembles import StringClass
from bitruns.errors import UnsupportedClass

U, SOL, MUL, BIM, PER = (
    StringClass.UNCONSTRAINED,
    StringClass.SOLUS,
    StringClass.MULTUS,
    StringClass.BIMULTUS,
    StringClass.PERSOLUS,
)


def _closed_forms():
    """The radicals that the dominant-root route replaced, at the working
    precision: beta per class, and the density (mean, variance) where a
    closed form is known."""
    sqrt, cbrt, one = mpmath.sqrt, mpmath.cbrt, mpmath.mpf(1)
    golden = (1 + sqrt(5)) / 2
    s69, s93, r = 3 * sqrt(69), 3 * sqrt(93), 457 * sqrt(93)
    beta = {
        U: mpmath.mpf(2),
        SOL: golden,
        BIM: golden,
        MUL: (2 + cbrt((25 + s69) / 2) + cbrt((25 - s69) / 2)) / 3,
        PER: (1 + cbrt((29 + s93) / 2) + cbrt((29 - s93) / 2)) / 3,
    }
    density = {
        U: (one / 2, one / 4),
        SOL: ((5 - sqrt(5)) / 10, 1 / (5 * sqrt(5))),
        BIM: (one / 2, (5 + 3 * sqrt(5)) / 40),
        PER: (
            (1 - cbrt((31 + s93) / 1922) - cbrt((31 - s93) / 1922)) / 3,
            cbrt(one * 93 / 2) * (cbrt(8649 + r) + cbrt(8649 - r)) / 2883,
        ),
    }
    return beta, density


def _smallest_root(cls):
    """The smallest-modulus root of the hand-written count denominator."""
    den = dict(count_gf(cls).den_terms)
    dense = [mpmath.mpf(den.get(e, 0)) for e in range(max(den), -1, -1)]
    return min(mpmath.polyroots(dense, maxsteps=100), key=abs)


def test_growth_constants_10_digits():
    assert mpmath.nstr(growth_constant(StringClass.SOLUS), 11) == "1.6180339887"
    assert mpmath.nstr(growth_constant(StringClass.MULTUS), 11) == "1.7548776662"
    assert mpmath.nstr(growth_constant(StringClass.PERSOLUS), 11) == "1.4655712319"
    assert growth_constant(StringClass.UNCONSTRAINED) == 2
    assert growth_constant(StringClass.BIMULTUS) == growth_constant(StringClass.SOLUS)


def test_growth_constant_residuals():
    for cls in StringClass:
        assert growth_constant_residual(cls) < mpmath.mpf(10) ** -28
        assert abs(1 / growth_constant(cls) - _smallest_root(cls)) < mpmath.mpf(10) ** -28


@pytest.mark.parametrize("dps", [DIGITS, 1010])
def test_limits_equal_their_closed_forms(dps):
    """The dominant root reproduces every radical to a few units in the
    last place, at the least and at a high working precision."""
    with mpmath.workdps(dps):
        beta, density = _closed_forms()
        for cls in StringClass:
            assert abs(growth_constant(cls) - beta[cls]) <= 4 * mpmath.eps * beta[cls], cls
            if cls in density:
                got = density_limits(cls)
                for value, ref in zip((got.mean, got.variance), density[cls]):
                    assert abs(value - ref) <= 4 * mpmath.eps, cls
        # the two golden-ratio classes agree to the last bit, and the
        # symmetric bimultus density is exactly one half
        assert growth_constant(BIM) == growth_constant(SOL)
        assert density_limits(BIM).mean == mpmath.mpf(1) / 2


def test_density_limits_are_the_slopes_of_the_exact_bitsum_moments():
    """E(S_n) and V(S_n) are linear in n up to terms that decay like a
    power of the ratio of the two smallest root moduli, so their slopes
    between n = 300 and 600 match the limits to far more than 40 places."""
    n, m = 300, 600
    for cls in StringClass:
        d = count_gf(cls).expand(m)
        a, b = (gf.expand(m) for gf in bitsum_gfs(cls))
        mean = {k: Fraction(a[k], d[k]) for k in (n, m)}
        var = {k: Fraction(b[k], d[k]) - mean[k] ** 2 for k in (n, m)}
        lim = density_limits(cls)
        for moments, limit in ((mean, lim.mean), (var, lim.variance)):
            slope = (moments[m] - moments[n]) / (m - n)
            with mpmath.workdps(DIGITS):
                exact = mpmath.mpf(slope.numerator) / slope.denominator
                assert abs(exact - limit) < mpmath.mpf(10) ** -40, cls


def test_variance_limits():
    expect = {
        StringClass.UNCONSTRAINED: "3.5070480758",
        StringClass.MULTUS: "5.2840019997",
        StringClass.SOLUS: "7.1868910445",
        StringClass.BIMULTUS: "7.1868910445",
        StringClass.PERSOLUS: "11.3414222234",
    }
    for cls, text in expect.items():
        assert abs(variance_limit(cls) - mpmath.mpf(text)) < mpmath.mpf("1e-10")


def test_mean_offsets_cover_all_families():
    assert MEAN_OFFSETS[(StringClass.MULTUS, 1)] == Fraction(3, 2)
    assert MEAN_OFFSETS[(StringClass.MULTUS, 0)] == Fraction(5, 2)
    assert (StringClass.SOLUS, 1) not in MEAN_OFFSETS


def test_mean_asymptote():
    a = mean_asymptote(100, StringClass.SOLUS, 0)
    b = mean_asymptote(1000, StringClass.SOLUS, 0)
    assert b > a  # grows logarithmically
    # the multus 1-run asymptote sits one above the 0-run asymptote
    gap = mean_asymptote(50, StringClass.MULTUS, 1) - mean_asymptote(
        50, StringClass.MULTUS, 0
    )
    assert abs(gap - 1) < mpmath.mpf("1e-30")
    with pytest.raises(UnsupportedClass, match="^no mean asymptote for solus bit=1$"):
        mean_asymptote(10, StringClass.SOLUS, 1)
    with pytest.raises(ValueError):
        mean_asymptote(0, StringClass.SOLUS, 0)


def test_density_limits():
    b = density_limits(StringClass.BIMULTUS)
    assert b.mean == mpmath.mpf(1) / 2
    assert abs(b.variance - mpmath.mpf("0.2927050983")) < mpmath.mpf("1e-10")
    p = density_limits(StringClass.PERSOLUS)
    assert abs(p.mean - mpmath.mpf("0.1942540040")) < mpmath.mpf("1e-10")
    assert abs(p.variance - mpmath.mpf("0.0495615175")) < mpmath.mpf("1e-10")
    u = density_limits(StringClass.UNCONSTRAINED)
    assert (u.mean, u.variance) == (mpmath.mpf(1) / 2, mpmath.mpf(1) / 4)
    s = density_limits(StringClass.SOLUS)
    assert abs(s.mean - mpmath.mpf("0.2763932023")) < mpmath.mpf("1e-10")
    assert abs(s.variance - mpmath.mpf("0.0894427191")) < mpmath.mpf("1e-10")
    m = density_limits(StringClass.MULTUS)
    assert abs(m.mean - mpmath.mpf("0.5885044113")) < mpmath.mpf("1e-10")
    assert abs(m.variance - mpmath.mpf("0.2810976123")) < mpmath.mpf("1e-10")


def test_reference_density_estimates():
    """The published solus and multus (mean, variance) estimates are the
    exact limits truncated to 3 places."""
    for cls, published in ((SOL, ("0.276", "0.089")), (MUL, ("0.588", "0.281"))):
        d = density_limits(cls)
        truncated = tuple(Fraction(int(mpmath.floor(1000 * v)), 1000) for v in d[1:])
        assert truncated == tuple(map(Fraction, published)), cls


def test_finite_vs_asymptote():
    reports = finite_vs_asymptote([20, 40], StringClass.SOLUS, 0)
    assert [r.n for r in reports] == [20, 40]
    for r in reports:
        assert isinstance(r.mean, Fraction)
        assert isinstance(r.variance, Fraction)
        # the reference is computed at the library's least working precision
        with mpmath.workdps(DIGITS):
            mexact = mpmath.mpf(r.mean.numerator) / r.mean.denominator
            assert abs(r.mean_gap - (mexact - r.mean_asymptote)) < mpmath.mpf("1e-40")
        # finite-size variance sits below the conjectured limit
        assert r.variance_gap < 0


def test_finite_vs_asymptote_checks_lengths_before_the_moments(monkeypatch):
    def forbidden(*args):
        raise AssertionError("moments started")

    monkeypatch.setattr(asymptotics, "run_variance_table", forbidden)
    with pytest.raises(ValueError, match="the asymptote needs n >= 1"):
        finite_vs_asymptote([4000, 0], StringClass.SOLUS, 0)


def test_working_precision_follows_places():
    before = mpmath.mp.dps
    with working_precision(6):
        assert mpmath.mp.dps == DIGITS
    with working_precision(90):
        assert mpmath.mp.dps >= 100
        scoped = growth_constant(StringClass.SOLUS)
    assert mpmath.mp.dps == before
    bare = growth_constant(StringClass.SOLUS)
    with mpmath.workdps(120):
        exact = (1 + mpmath.sqrt(5)) / 2
        assert abs(scoped - exact) < mpmath.mpf(10) ** -95
        # a bare call still computes at DIGITS digits
        assert abs(bare - exact) < mpmath.mpf(10) ** -(DIGITS - 2)
