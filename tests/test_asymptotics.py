from fractions import Fraction

import mpmath
import pytest

from bitruns import asymptotics
from bitruns.asymptotics import (
    DIGITS,
    MEAN_OFFSETS,
    REFERENCE_DENSITY_ESTIMATES,
    density_limits,
    finite_vs_asymptote,
    growth_constant,
    growth_constant_from_roots,
    growth_constant_residual,
    mean_asymptote,
    variance_limit,
    working_precision,
)
from bitruns.ensembles import StringClass
from bitruns.errors import UndefinedFamily, UnsupportedClass


def test_growth_constants_10_digits():
    assert mpmath.nstr(growth_constant(StringClass.SOLUS), 11) == "1.6180339887"
    assert mpmath.nstr(growth_constant(StringClass.MULTUS), 11) == "1.7548776662"
    assert mpmath.nstr(growth_constant(StringClass.PERSOLUS), 11) == "1.4655712319"
    assert growth_constant(StringClass.UNCONSTRAINED) == 2
    assert growth_constant(StringClass.BIMULTUS) == growth_constant(StringClass.SOLUS)


def test_growth_constant_residuals():
    for cls in StringClass:
        assert growth_constant_residual(cls) < mpmath.mpf(10) ** -28
        assert abs(
            growth_constant(cls) - growth_constant_from_roots(cls)
        ) < mpmath.mpf(10) ** -28


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
    with pytest.raises(UndefinedFamily):
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
    with pytest.raises(UnsupportedClass):
        density_limits(StringClass.UNCONSTRAINED)


def test_reference_density_estimates():
    assert REFERENCE_DENSITY_ESTIMATES[StringClass.SOLUS] == (0.276, 0.089)
    assert REFERENCE_DENSITY_ESTIMATES[StringClass.MULTUS] == (0.588, 0.281)


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
