"""The series route for the run moments, kept as the reference of the
cap sum in `bitruns.moments` that replaced it."""

import pytest

from bitruns.moments import MAX_MOMENT, moment_weight
from bitruns.series import TruncatedSeries, gf_expand, valuation


def series_moment_numerator(family, order):
    """Copy of the former moments.moment_numerator: series for moments
    1..MAX_MOMENT, entry m - 1 with z^n coefficient summing (longest
    run)^m over class strings of length n <= order.

    Each H_k is expanded once, from z^v = valuation(H_k, H) on, and its
    difference from H is added into all the sums with the weights
    w_m(k); k = order + 2 is the last H_k that differs from H through
    z^order."""
    h = family.H.expand(order).coeffs
    acc = [[0] * (order + 1) for _ in range(MAX_MOMENT)]
    for k in range(1, order + 3):
        gf = family.hk(k)
        v = valuation(gf, family.H)
        if v > order:
            continue
        w = [moment_weight(m, k) for m in range(1, MAX_MOMENT + 1)]
        c = gf_expand(gf, order, h[:v]).coeffs
        for n in range(v, order + 1):
            d = h[n] - c[n]
            for a, wm in zip(acc, w):
                a[n] += wm * d
    return tuple(TruncatedSeries(a) for a in acc)


@pytest.fixture
def series_moments():
    """The series-route reference for the run moment numerators."""
    return series_moment_numerator
