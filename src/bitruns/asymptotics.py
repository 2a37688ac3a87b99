"""High-precision limit constants and asymptotic comparisons.

Each ensemble's count sequence grows like beta^n where 1/beta is the
smallest root of the count-GF denominator.  The growth constant feeds
the conjectured longest-run asymptotics

    E(R_n) ~ ln(n)/ln(beta) - (offset - gamma/ln(beta)),
    V(R_n) ~ 1/12 + pi^2 / (6 ln(beta)^2),

with a small half-integer offset depending on the ensemble and bit.
Everything is computed with mpmath at the caller's working precision but
never below DIGITS significant digits; ``working_precision`` raises it
to what a number of printed places needs.  The closed radical forms are
cross-checked against the denominator polynomial.

mpmath is imported on the first call that computes a value, so commands
that print no limit constant never load it.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .catalog import count_gf
from .ensembles import StringClass
from .errors import UndefinedFamily, UnsupportedClass
from .moments import run_variance_table

if TYPE_CHECKING:
    from mpmath import mpf

#: least working precision, in significant digits
DIGITS = 50

#: digits carried beyond the printed places: room for the integer part
#: and for the cancellation in the finite-n gaps
GUARD_DIGITS = 10


def working_precision(places: int):
    """Context manager under which values computed here, and read back
    with str(), are good to `places` decimal places."""
    import mpmath

    return mpmath.workdps(max(DIGITS, places + GUARD_DIGITS))


def _at_working_precision(fn):
    """Run fn at the caller's mpmath precision, but never below DIGITS."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        import mpmath

        with mpmath.workdps(max(mpmath.mp.dps, DIGITS)):
            return fn(*args, **kwargs)

    return wrapper


def _golden() -> mpf:
    import mpmath

    return (1 + mpmath.sqrt(5)) / 2


@_at_working_precision
def growth_constant(string_class: StringClass) -> mpf:
    """beta in closed radical form."""
    import mpmath

    if string_class is StringClass.UNCONSTRAINED:
        return mpmath.mpf(2)
    if string_class in (StringClass.SOLUS, StringClass.BIMULTUS):
        return _golden()
    if string_class is StringClass.MULTUS:
        s = 3 * mpmath.sqrt(69)
        return (2 + mpmath.cbrt((25 + s) / 2) + mpmath.cbrt((25 - s) / 2)) / 3
    s = 3 * mpmath.sqrt(93)
    return (1 + mpmath.cbrt((29 + s) / 2) + mpmath.cbrt((29 - s) / 2)) / 3


@_at_working_precision
def growth_constant_residual(string_class: StringClass) -> mpf:
    """|den(1/beta)| where den is the count-GF denominator; should vanish."""
    import mpmath

    beta = growth_constant(string_class)
    return abs(mpmath.polyval(list(reversed(count_gf(string_class).denominator)), 1 / beta))


@_at_working_precision
def growth_constant_from_roots(string_class: StringClass) -> mpf:
    """beta recomputed as the reciprocal of the denominator's smallest root."""
    import mpmath

    den = count_gf(string_class).denominator
    roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(den)], maxsteps=100)
    smallest = min(roots, key=abs)
    return mpmath.re(1 / smallest)


@_at_working_precision
def variance_limit(string_class: StringClass) -> mpf:
    """Limit of the longest-run variance: 1/12 + pi^2 / (6 ln(beta)^2)."""
    import mpmath

    lb = mpmath.log(growth_constant(string_class))
    return mpmath.mpf(1) / 12 + mpmath.pi**2 / (6 * lb * lb)


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


@_at_working_precision
def mean_asymptote(n: int, string_class: StringClass, bit: int) -> mpf:
    """Conjectured large-n approximation to the expected longest run."""
    import mpmath

    if n < 1:
        raise ValueError("the asymptote needs n >= 1")
    try:
        offset = MEAN_OFFSETS[(string_class, bit)]
    except KeyError:
        raise UndefinedFamily(
            f"no mean asymptote for {string_class} bit={bit}"
        ) from None
    lb = mpmath.log(growth_constant(string_class))
    off = mpmath.mpf(offset.numerator) / offset.denominator
    return mpmath.log(n) / lb - (off - mpmath.euler / lb)


class DensityLimits(NamedTuple):
    """Limits of E(S_n)/n and V(S_n)/n over a class."""

    string_class: StringClass
    mean: mpf
    variance: mpf


@_at_working_precision
def density_limits(string_class: StringClass) -> DensityLimits:
    """Closed-form bitsum density limits (bimultus and persolus only)."""
    import mpmath

    if string_class is StringClass.BIMULTUS:
        return DensityLimits(
            string_class,
            mean=mpmath.mpf(1) / 2,
            variance=(5 + 3 * mpmath.sqrt(5)) / 40,
        )
    if string_class is StringClass.PERSOLUS:
        s = 3 * mpmath.sqrt(93)
        mean = (1 - mpmath.cbrt((31 + s) / 1922) - mpmath.cbrt((31 - s) / 1922)) / 3
        r = 457 * mpmath.sqrt(93)
        var = (
            mpmath.cbrt(mpmath.mpf(93) / 2)
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


class AsymptoteReport(NamedTuple):
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


@_at_working_precision
def finite_vs_asymptote(
    ns: Sequence[int], string_class: StringClass, bit: int
) -> list:
    """Compare exact mean and variance with the asymptotes at several n;
    every length is checked against the asymptote's n >= 1 before the
    moments are summed."""
    import mpmath

    if ns and min(ns) < 1:
        raise ValueError("the asymptote needs n >= 1")
    vlim = variance_limit(string_class)
    out = []
    for r in run_variance_table(ns, string_class, bit):
        ma = mean_asymptote(r.n, string_class, bit)
        mexact = mpmath.mpf(r.mean.numerator) / r.mean.denominator
        vexact = mpmath.mpf(r.variance.numerator) / r.variance.denominator
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
