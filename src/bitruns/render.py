"""Decimal rendering of exact rationals and high-precision floats.

Every printed decimal takes one of two routes: a value read as an exact
rational (``format_fraction``, and ``format_float`` for a float's
decimal literal) or a correlation, the square root of one
(``signed_sqrt_ratio``).  Both round half to even on Python integers, so
a value printed to any number of places is correct in every digit
shown.  The printed form is Decimal's own for the rounded value, sign
included.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from math import isqrt

def _scaled(q: Fraction, places: int) -> tuple:
    """(|q| * 10^places) as an integer numerator and denominator."""
    num, den = abs(q.numerator), q.denominator
    if places >= 0:
        return num * 10**places, den
    return num, den * 10**-places


def _render(negative: bool, digits: int, places: int) -> str:
    """Decimal's string for (-1)^negative * digits * 10^-places."""
    return str(decimal.Decimal(f"{'-' if negative else ''}{digits}E{-places}"))


def format_fraction(q: Fraction, places: int = 6) -> str:
    """Fixed-point rendering of an exact rational."""
    num, den = _scaled(q, places)
    whole, rest = divmod(num, den)
    if 2 * rest > den or (2 * rest == den and whole % 2):
        whole += 1
    return _render(q < 0, whole, places)


def signed_sqrt_ratio(num: Fraction, den: Fraction, places: int = 6) -> str:
    """Render sign(num) * sqrt(num^2 / den) where den > 0.

    Used for correlation coefficients: num is a covariance and den a
    product of variances.  The root of the exact rational num^2 / den,
    scaled by 10^places, is rounded by comparing it with the midpoint
    above its integer part, squared, and the covariance sign restored.
    """
    a, b = _scaled(num * num / den, 2 * places)
    root = isqrt(a // b)
    # sign of sqrt(a / b) - (root + 1/2), from both sides squared times 4b
    excess = 4 * a - (2 * root + 1) ** 2 * b
    if excess > 0 or (excess == 0 and root % 2):
        root += 1
    return _render(num < 0, root, places)


def format_float(x, places: int = 6) -> str:
    """Rendering of anything whose str() is a decimal literal (str, int,
    mpf), read exactly."""
    return format_fraction(Fraction(str(x)), places)
