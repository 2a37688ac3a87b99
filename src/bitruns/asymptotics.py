"""High-precision limit constants and asymptotic comparisons.

Each ensemble's count sequence grows like beta^n where 1/beta is the
smallest root of the count-GF denominator.  The growth constant feeds
the conjectured longest-run asymptotics

    E(R_n) ~ ln(n)/ln(beta) - (offset - gamma/ln(beta)),
    V(R_n) ~ 1/12 + pi^2 / (6 ln(beta)^2),

with a small half-integer offset depending on the ensemble and bit.
Everything is computed with mpmath at 50 significant digits; the closed
radical forms are cross-checked against the denominator polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
from mpmath import mp, mpf

from .catalog import count_gf
from .ensembles import StringClass
from .errors import UndefinedFamily, UnsupportedClass
from .moments import run_variance_table

mp.dps = 50


def _golden() -> mpf:
    return (1 + mpmath.sqrt(5)) / 2


def growth_constant(string_class: StringClass) -> mpf:
    """beta in closed radical form."""
    if string_class is StringClass.UNCONSTRAINED:
        return mpf(2)
    if string_class in (StringClass.SOLUS, StringClass.BIMULTUS):
        return _golden()
    if string_class is StringClass.MULTUS:
        s = 3 * mpmath.sqrt(69)
        return (2 + mpmath.cbrt((25 + s) / 2) + mpmath.cbrt((25 - s) / 2)) / 3
    s = 3 * mpmath.sqrt(93)
    return (1 + mpmath.cbrt((29 + s) / 2) + mpmath.cbrt((29 - s) / 2)) / 3


def growth_constant_residual(string_class: StringClass) -> mpf:
    """|den(1/beta)| where den is the count-GF denominator; should vanish."""
    beta = growth_constant(string_class)
    return abs(mpmath.polyval(list(reversed(count_gf(string_class).denominator)), 1 / beta))


def growth_constant_from_roots(string_class: StringClass) -> mpf:
    """beta recomputed as the reciprocal of the denominator's smallest root."""
    den = count_gf(string_class).denominator
    roots = mpmath.polyroots([mpf(c) for c in reversed(den)], maxsteps=100)
    smallest = min(roots, key=abs)
    return mpmath.re(1 / smallest)


def variance_limit(string_class: StringClass) -> mpf:
    """Limit of the longest-run variance: 1/12 + pi^2 / (6 ln(beta)^2)."""
    lb = mpmath.log(growth_constant(string_class))
    return mpf(1) / 12 + mpmath.pi**2 / (6 * lb * lb)


#: offset in the conjectured mean asymptote, per (class, bit)
MEAN_OFFSETS = {
    (StringClass.UNCONSTRAINED, 0): Fraction(3, 2),
    (StringClass.UNCONSTRAINED, 1): Fraction(3, 2),
    (StringClass.SOLUS, 0): Fraction(2),
    (StringClass.MULTUS, 1): Fraction(3, 2),
    (StringClass.MULTUS, 0): Fraction(5, 2),
    (StringClass.BIMULTUS, 0): Fraction(5, 2),
    (StringClass.BIMULTUS, 1): Fraction(5, 2),
    (StringClass.PERSOLUS, 0): Fraction(5, 2),
}


def mean_asymptote(n: int, string_class: StringClass, bit: int) -> mpf:
    """Conjectured large-n approximation to the expected longest run."""
    if n < 1:
        raise ValueError("the asymptote needs n >= 1")
    try:
        offset = MEAN_OFFSETS[(string_class, bit)]
    except KeyError:
        raise UndefinedFamily(
            f"no mean asymptote for {string_class} bit={bit}"
        ) from None
    lb = mpmath.log(growth_constant(string_class))
    off = mpf(offset.numerator) / offset.denominator
    return mpmath.log(n) / lb - (off - mpmath.euler / lb)


@dataclass(frozen=True)
class DensityLimits:
    """Limits of E(S_n)/n and V(S_n)/n over a class."""

    string_class: StringClass
    mean: mpf
    variance: mpf


def density_limits(string_class: StringClass) -> DensityLimits:
    """Closed-form bitsum density limits (bimultus and persolus only)."""
    if string_class is StringClass.BIMULTUS:
        return DensityLimits(
            string_class,
            mean=mpf(1) / 2,
            variance=(5 + 3 * mpmath.sqrt(5)) / 40,
        )
    if string_class is StringClass.PERSOLUS:
        s = 3 * mpmath.sqrt(93)
        mean = (1 - mpmath.cbrt((31 + s) / 1922) - mpmath.cbrt((31 - s) / 1922)) / 3
        r = 457 * mpmath.sqrt(93)
        var = (
            mpmath.cbrt(mpf(93) / 2)
            * (mpmath.cbrt(8649 + r) + mpmath.cbrt(8649 - r))
            / 2883
        )
        return DensityLimits(string_class, mean=mean, variance=var)
    raise UnsupportedClass(f"no closed density limits for {string_class}")


#: published density estimates for the two one-sided ensembles, kept for
#: comparison alongside the exact limits above: (mean, variance) of S_n / n
REFERENCE_DENSITY_ESTIMATES = {
    StringClass.SOLUS: (0.276, 0.089),
    StringClass.MULTUS: (0.588, 0.281),
}


@dataclass(frozen=True)
class AsymptoteReport:
    """Exact finite-n moments next to their conjectured asymptotes."""

    n: int
    string_class: StringClass
    bit: int
    mean: Fraction
    mean_asymptote: mpf
    mean_gap: mpf
    variance: Fraction
    variance_limit: mpf
    variance_gap: mpf


def finite_vs_asymptote(
    ns: Sequence[int], string_class: StringClass, bit: int
) -> list:
    """Compare exact mean and variance with the asymptotes at several n."""
    vlim = variance_limit(string_class)
    out = []
    for r in run_variance_table(ns, string_class, bit):
        ma = mean_asymptote(r.n, string_class, bit)
        mexact = mpf(r.mean.numerator) / r.mean.denominator
        vexact = mpf(r.variance.numerator) / r.variance.denominator
        out.append(
            AsymptoteReport(
                n=r.n,
                string_class=string_class,
                bit=bit,
                mean=r.mean,
                mean_asymptote=ma,
                mean_gap=mexact - ma,
                variance=r.variance,
                variance_limit=vlim,
                variance_gap=vexact - vlim,
            )
        )
    return out
