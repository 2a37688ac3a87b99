import random
from fractions import Fraction

from bitruns.render import format_float, format_fraction, signed_sqrt_ratio


def test_format_fraction_rounds_half_even():
    assert format_fraction(Fraction(1, 3)) == "0.333333"
    assert format_fraction(Fraction(-1, 7), 4) == "-0.1429"
    assert format_fraction(Fraction(5, 2), 0) == "2"  # ties to even
    assert format_fraction(Fraction(7, 2), 0) == "4"


def test_signed_sqrt_ratio():
    assert signed_sqrt_ratio(Fraction(-1, 2), Fraction(1)) == "-0.500000"
    assert signed_sqrt_ratio(Fraction(3), Fraction(4)) == "1.500000"
    assert signed_sqrt_ratio(Fraction(0), Fraction(9)) == "0.000000"


def test_format_float():
    assert format_float("2.5000004", 6) == "2.500000"
    assert format_float(3, 2) == "3.00"


def _fixed(k, places, negative):
    digits = str(k).rjust(places + 1, "0")
    return ("-" if negative else "") + digits[:-places] + "." + digits[-places:]


def _round_sqrt(t):
    """sqrt(t) rounded half to even, by bisection on exact rationals."""
    lo, hi = 0, 1
    while Fraction(2 * hi + 1, 2) ** 2 < t:
        hi *= 2
    while lo < hi:  # smallest k with (k + 1/2)^2 >= t
        mid = (lo + hi) // 2
        if Fraction(2 * mid + 1, 2) ** 2 >= t:
            hi = mid
        else:
            lo = mid + 1
    if Fraction(2 * lo + 1, 2) ** 2 == t and lo % 2:
        lo += 1
    return lo


def test_exact_at_precision_60_against_big_integers():
    p = 60
    rng = random.Random(60)
    values = [Fraction(1, 3), Fraction(-2, 7), Fraction(10**15 + 1, 3)]
    values += [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**20)) for _ in range(200)]
    # exact halves at the 60th place, ties to even both ways
    values += [Fraction(2 * m + 1, 2 * 10**p) for m in (10**54, 10**54 + 1, -(10**55) - 7)]
    for q in values:
        if abs(q) < Fraction(1, 10**6):
            continue  # Decimal prints those in exponent form
        assert format_fraction(q, p) == _fixed(round(abs(q) * 10**p), p, q < 0), q
        den = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))
        r = abs(q) * abs(q) / den
        if r >= Fraction(1, 10**12):
            want = _fixed(_round_sqrt(r * 10 ** (2 * p)), p, q < 0)
            assert signed_sqrt_ratio(q, den, p) == want, (q, den)
        # den = 1: the root is |q| itself, so halves stay exact halves
        assert signed_sqrt_ratio(q, Fraction(1), p) == format_fraction(q, p), q
    assert format_fraction(Fraction(2 * 10**55 + 5, 2 * 10**p), p).endswith("0002")
    assert format_fraction(Fraction(2 * 10**55 + 7, 2 * 10**p), p).endswith("0004")


def test_sign_and_exponent_form_kept():
    assert format_fraction(Fraction(-1, 10**9)) == "-0.000000"
    assert signed_sqrt_ratio(Fraction(-1, 10**9), Fraction(1)) == "-0.000000"
    assert format_fraction(Fraction(0), 10) == "0E-10"
    assert format_float("-2.5", 0) == "-2"
