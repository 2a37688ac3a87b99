"""High-precision limit constants and asymptotic comparisons.

Every limit comes from one place, the dominant root of the class GF's
denominator D(z, u) as the alternating-run constructor of
``bitruns.catalog`` builds it, with u marking each 1.  Its smallest
positive root rho at u = 1 gives the growth constant beta = 1/rho: the
class counts grow like beta^n.  By the quasi-powers theorem (Flajolet &
Sedgewick, *Analytic Combinatorics*, ch. IX) the bitsum S_n has
E(S_n)/n -> -x'(0) and V(S_n)/n -> -x''(0) for x(t) = log rho(e^t), which
implicit differentiation of D reads off the same root.  The growth
constant feeds the conjectured longest-run asymptotics

    E(R_n) ~ ln(n)/ln(beta) - (offset - gamma/ln(beta)),
    V(R_n) ~ 1/12 + pi^2 / (6 ln(beta)^2),

with a small half-integer offset depending on the ensemble and bit.
Everything is computed with mpmath at the caller's working precision but
never below DIGITS significant digits; ``working_precision`` raises it
to what a number of printed places needs.  The hand-written count GF's
denominator cross-checks the root (``growth_constant_residual``).

mpmath is imported with this module, and only the ``asymptotics``
command and the package's lazy ``bitruns.__getattr__`` import it, so no
other command loads mpmath.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple, Sequence

import mpmath

from .catalog import bivariate_denominator, count_gf
from .ensembles import StringClass
from .errors import UndefinedFamily
from .moments import run_variance_table

#: least working precision, in significant digits
DIGITS = 50

#: digits carried beyond the printed places: room for the integer part
#: and for the cancellation in the finite-n gaps
GUARD_DIGITS = 10


def working_precision(places: int):
    """Context manager under which values computed here, and read back
    with str(), are good to `places` decimal places."""
    return mpmath.workdps(max(DIGITS, places + GUARD_DIGITS))


def _at_working_precision(fn):
    """Run fn at the caller's mpmath precision, but never below DIGITS."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with mpmath.workdps(max(mpmath.mp.dps, DIGITS)):
            return fn(*args, **kwargs)

    return wrapper


class _Root(NamedTuple):
    """What the dominant root gives: beta, ln(beta) and the bitsum
    density's mean and variance."""

    beta: mpmath.mpf
    log_beta: mpmath.mpf
    mean: mpmath.mpf
    variance: mpmath.mpf


# one entry per (class, working precision): every asymptote row asks for
# beta and ln(beta)
@functools.lru_cache(maxsize=64)
def _dominant_root(string_class: StringClass, dps: int) -> _Root:
    """The limits read off rho, the smallest positive root of D(z, 1), at
    `dps` digits.  With G_ij = sum of c ez^i eu^j rho^ez over the terms
    c z^ez u^eu of D, x(t) = log rho(e^t) has x' = -G01/G10 and
    x'' = -(G02 + 2 G11 x' + G20 x'^2)/G10 at t = 0."""
    den = bivariate_denominator(string_class)

    def g(i: int, j: int, z):
        return sum(c * e**i * f**j * z**e for e, f, c in den)

    # Newton from the middle of the first cell of a grid on (0, 1] at
    # whose right end D(z, 1), which is 1 at z = 0, is no longer positive
    k = next(k for k in range(1, 65) if g(0, 0, Fraction(k, 64)) <= 0)
    rho = mpmath.findroot(
        lambda z: g(0, 0, z),
        mpmath.mpf(2 * k - 1) / 128,
        solver="newton",
        df=lambda z: g(1, 0, z) / z,
    )
    g10 = g(1, 0, rho)
    x1 = -g(0, 1, rho) / g10
    x2 = -(g(0, 2, rho) + 2 * g(1, 1, rho) * x1 + g(2, 0, rho) * x1 * x1) / g10
    beta = 1 / rho
    return _Root(beta, mpmath.log(beta), -x1, -x2)


@_at_working_precision
def growth_constant(string_class: StringClass) -> mpmath.mpf:
    """beta: 1 over the smallest positive root of the class GF's denominator."""
    return _dominant_root(string_class, mpmath.mp.dps).beta


@_at_working_precision
def growth_constant_residual(string_class: StringClass) -> mpmath.mpf:
    """|den(1/beta)| where den is the count-GF denominator; should vanish."""
    rho = 1 / growth_constant(string_class)
    return abs(sum(c * rho**e for e, c in count_gf(string_class).den_terms))


@_at_working_precision
def variance_limit(string_class: StringClass) -> mpmath.mpf:
    """Limit of the longest-run variance: 1/12 + pi^2 / (6 ln(beta)^2)."""
    lb = _dominant_root(string_class, mpmath.mp.dps).log_beta
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
def mean_asymptote(n: int, string_class: StringClass, bit: int) -> mpmath.mpf:
    """Conjectured large-n approximation to the expected longest run."""
    if n < 1:
        raise ValueError("the asymptote needs n >= 1")
    try:
        offset = MEAN_OFFSETS[(string_class, bit)]
    except KeyError:
        raise UndefinedFamily(
            f"no mean asymptote for {string_class} bit={bit}"
        ) from None
    lb = _dominant_root(string_class, mpmath.mp.dps).log_beta
    off = mpmath.mpf(offset.numerator) / offset.denominator
    return mpmath.log(n) / lb - (off - mpmath.euler / lb)


class DensityLimits(NamedTuple):
    """Limits of E(S_n)/n and V(S_n)/n over a class."""

    string_class: StringClass
    mean: mpmath.mpf
    variance: mpmath.mpf


@_at_working_precision
def density_limits(string_class: StringClass) -> DensityLimits:
    """The bitsum density's limits, E(S_n)/n and V(S_n)/n."""
    root = _dominant_root(string_class, mpmath.mp.dps)
    return DensityLimits(string_class, mean=root.mean, variance=root.variance)


class AsymptoteReport(NamedTuple):
    """Exact finite-n moments next to their conjectured asymptotes."""

    n: int
    string_class: StringClass
    bit: int
    mean: Fraction
    mean_asymptote: mpmath.mpf
    mean_gap: mpmath.mpf
    variance: Fraction
    variance_limit: mpmath.mpf
    variance_gap: mpmath.mpf


@_at_working_precision
def finite_vs_asymptote(
    ns: Sequence[int], string_class: StringClass, bit: int
) -> list:
    """Compare exact mean and variance with the asymptotes at several n;
    every length is checked against the asymptote's n >= 1 before the
    moments are summed."""
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
