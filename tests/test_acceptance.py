"""Acceptance gate: one test per published-value criterion.

Each test pins the package against independently published reference
values: golden Taylor coefficients, two correlation tables, few-ones
sequences, exhaustive-enumeration equivalence, and 10-digit constants.
Tolerances are stated per criterion; everything not explicitly toleranced
is exact integer or rational equality.
"""

import decimal
from fractions import Fraction
from operator import mul

import mpmath
import pytest

from bitruns.asymptotics import (
    density_limits,
    growth_constant,
    growth_constant_residual,
    variance_limit,
)
from bitruns.catalog import bitsum_gfs, count_gf
from bitruns.crossrun import cross_numerator, cross_report_table, joint_rs_report_table
from bitruns.ensembles import StringClass, oracle_tally
from bitruns.jointdp import (
    fewones_closed_form,
    fewones_count,
    fewones_peak,
    joint_table,
    rs_numerator_approx,
)
from bitruns.moments import MAX_MOMENT, run_numerators, run_variance_table
from bitruns.render import signed_sqrt_ratio

from families import FAMILIES, oracle, oracle_sum

U = StringClass.UNCONSTRAINED
SOL = StringClass.SOLUS
M = StringClass.MULTUS
B = StringClass.BIMULTUS
P = StringClass.PERSOLUS

# ---------------------------------------------------------------------------
# criterion 1: golden coefficients, exact

COUNT_SERIES = {
    U: [1, 2, 4, 8, 16, 32, 64, 128],
    SOL: [1, 2, 3, 5, 8, 13, 21, 34],
    M: [1, 1, 2, 4, 7, 12, 21, 37],
    B: [0, 0, 2, 2, 4, 6, 10, 16],
    P: [0, 1, 1, 3, 4, 5, 8, 12],
}

BITSUM_SERIES = {
    (B, "a"): [0, 0, 2, 3, 8, 15, 30],
    (B, "b"): [0, 0, 4, 9, 24, 51, 114],
    (B, "c"): [0, 0, 4, 9, 32, 81, 240],
    (P, "a"): [0, 1, 0, 2, 4, 5, 10],
    (P, "b"): [0, 1, 0, 2, 6, 7, 16],
    (P, "c"): [0, 0, 0, 2, 8, 10, 28],
}

MOMENT_NUMERATORS = {
    (U, 1, 1): [0, 1, 4, 11, 27, 62, 138, 300, 643, 1363, 2866],
    (U, 1, 2): [0, 1, 6, 21, 61, 158, 386, 902, 2051, 4565, 10006],
    (SOL, 0, 1): [0, 1, 4, 9, 18, 34, 62, 110, 192, 331, 565],
    (SOL, 0, 2): [0, 1, 6, 19, 48, 106, 218, 424, 798, 1463, 2631],
    (M, 1, 1): [0, 0, 2, 7, 16, 32, 62, 118, 221, 409, 751],
    (M, 1, 2): [0, 0, 4, 17, 46, 104, 220, 448, 889, 1729, 3313],
    (M, 0, 1): [0, 1, 2, 5, 11, 23, 45, 87, 165, 309, 573],
    (M, 0, 2): [0, 1, 4, 11, 27, 63, 135, 281, 565, 1115, 2161],
    (B, 0, 1): [0, 0, 2, 3, 8, 15, 28, 50, 87, 150, 255],
    (B, 0, 2): [0, 0, 4, 9, 24, 51, 102, 196, 361, 656, 1165],
    (P, 0, 1): [0, 0, 2, 7, 12, 18, 30, 49, 76, 118, 183],
    (P, 0, 2): [0, 0, 4, 17, 38, 70, 128, 227, 384, 636, 1037],
}


def test_criterion_1_golden_coefficients(series_moments):
    for cls, want in COUNT_SERIES.items():
        assert list(count_gf(cls).expand(len(want) - 1)) == want, cls
    for (cls, which), want in BITSUM_SERIES.items():
        order = len(want) - 1
        a, b = (gf.expand(order) for gf in bitsum_gfs(cls))
        d = count_gf(cls).expand(order)
        got = {"a": a, "b": b, "c": [dn * bn - an * an for dn, bn, an in zip(d, b, a)]}[which]
        assert list(got) == want, (cls, which)
    for (cls, bit, m), want in MOMENT_NUMERATORS.items():
        got = series_moments(FAMILIES[cls, bit], 10)[m - 1]
        assert got == want, (cls, bit, m)
        got = run_numerators(cls, bit, range(len(want)))
        assert [row[m - 1] for row in got] == want, (cls, bit, m)


# ---------------------------------------------------------------------------
# criterion 2: cross-moment numerators, exact

CROSS_NUM = {
    U: [0, 0, 2, 10, 34, 96, 248, 604, 1418, 3240, 7260],
    M: [0, 0, 0, 4, 16, 45, 106, 232, 484, 977, 1927],
}

RS_NUM = [0, 0, 2, 7, 18, 43, 94, 196, 392, 764, 1454]


def test_criterion_2_cross_numerators():
    for cls, want in CROSS_NUM.items():
        assert cross_numerator(cls, range(11)) == want, cls

    # run-bitsum product numerator, two independent routes
    via_tables = []
    for n in range(11):
        table = joint_table(n, SOL)
        via_tables.append(
            sum(
                c * y * (n - x)
                for x, row in enumerate(table.rows)
                for y, c in enumerate(row)
            )
        )
    assert via_tables == RS_NUM

    approx5 = rs_numerator_approx(10, 5)
    assert list(approx5[:10]) == RS_NUM[:10]
    assert list(rs_numerator_approx(10, 6)) == RS_NUM


def test_criterion_2_rs_approx_five_levels_z10_known_gap():
    # The five-level approximation is exact only through z^9 (the sharp
    # bound z^(2 ell_max - 1) in rs_numerator_approx).  Its z^10 shortfall
    # is sum R0*S over the solus strings with at least five ones and a
    # zero run of 2 or more: four strings, each with R0*S = 2*5, so 40,
    # and the coefficient is 1414, not 1454.  The reference's "1454 from
    # five levels" is read here as five bitsum levels 1..5, which is
    # ell_max = 6; test_criterion_2_cross_numerators checks that value.
    dist = oracle(10)[SOL]
    gap = oracle_sum(dist, lambda r0, r1, s: r0 * s * (s >= 5 and r0 >= 2))
    assert gap > 0
    assert rs_numerator_approx(10, 5)[10] == RS_NUM[10] - gap


# ---------------------------------------------------------------------------
# criterion 3: two-run correlation table, |error| <= 5e-7 against the
# published 6-decimal values, except where the published entry is a
# truncation (not a rounding) of the exact value

TABLE1 = {
    10: ("-0.383683", "-0.443900"),
    20: ("-0.225906", "-0.256080"),
    30: ("-0.165175", "-0.187941"),
    40: ("-0.132345", "-0.151033"),
    50: ("-0.111286", "-0.127411"),
    60: ("-0.096550", "-0.110810"),
    70: ("-0.085616", "-0.098434"),
}


def _exact_rho(cov: Fraction, var_product: Fraction) -> decimal.Decimal:
    ctx = decimal.Context(prec=50)
    q = cov * cov / var_product
    r = ctx.sqrt(ctx.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator)))
    return -r if cov < 0 else r


def _matches_published(exact: decimal.Decimal, published: str) -> bool:
    ref = decimal.Decimal(published)
    diff = abs(exact - ref)
    if diff <= decimal.Decimal("5e-7"):
        return True
    # a published value truncated toward zero at 6 places can sit up to
    # 1e-6 from the exact value
    truncated = exact.quantize(decimal.Decimal("1e-6"), rounding=decimal.ROUND_DOWN)
    return truncated == ref


def test_criterion_3_table1():
    ns = sorted(TABLE1)
    cols = {cls: cross_report_table(ns, cls) for cls in (U, M)}
    for i, n in enumerate(ns):
        for col, cls in enumerate((U, M)):
            r = cols[cls][i]
            exact = _exact_rho(r.covariance, r.var_r0 * r.var_other)
            assert _matches_published(exact, TABLE1[n][col]), (n, cls, str(exact))


# ---------------------------------------------------------------------------
# criterion 4: run-bitsum correlation table at desk scale, plus spot values

TABLE2 = {
    100: ("-0.441772", "-0.525562"),
    200: ("-0.361888", "-0.437637"),
    300: ("-0.319761", "-0.389680"),
    400: ("-0.292051", "-0.357617"),
}

TABLE2_SPOT = {
    10: ("-0.752444", "-0.796825"),
    20: ("-0.654958", "-0.728540"),
    50: ("-0.530128", "-0.616674"),
}


def test_criterion_4_table2_desk_scale():
    for spec in (TABLE2, TABLE2_SPOT):
        for n, (rho_u, rho_s) in spec.items():
            for cls, want in ((U, rho_u), (SOL, rho_s)):
                r = joint_rs_report_table([n], cls)[0]
                exact = _exact_rho(r.covariance, r.var_r0 * r.var_other)
                assert _matches_published(exact, want), (n, cls, str(exact))


TABLE2_FULL = {
    500: ("-0.271797", "-0.333956"),
    1000: ("-0.215704", "-0.267488"),
    1400: ("-0.192050", "-0.239074"),
}


def test_criterion_4_table2_full_scale():
    # the published full-size values through the generating-function route
    ns = sorted(TABLE2_FULL)
    for col, cls in enumerate((U, SOL)):
        for n, r in zip(ns, joint_rs_report_table(ns, cls)):
            exact = _exact_rho(r.covariance, r.var_r0 * r.var_other)
            assert _matches_published(exact, TABLE2_FULL[n][col]), (n, cls, str(exact))


# Recorded from the former series route, which expanded every H_k and R_k
# through z^2000; ten places, unconstrained and solus.
TABLE2_2000 = ("-0.1693732428", "-0.2116256761")


def test_table2_row_at_2000_is_pinned():
    for cls, want in zip((U, SOL), TABLE2_2000):
        (r,) = joint_rs_report_table([2000], cls)
        assert signed_sqrt_ratio(r.covariance, r.var_r0 * r.var_other, 10) == want


# ---------------------------------------------------------------------------
# criterion 5: few-ones sequences and the five-ones peak formulas, exact

FEWONES_K7 = {
    2: [2, 3, 4, 5, 6, 7, 7, 6, 5, 4, 3, 2, 1],
    3: [2, 3, 5, 8, 12, 17, 22, 27, 32, 35, 36, 35, 32, 27, 21, 15, 10, 6, 3, 1],
    4: [2, 3, 5, 8, 13, 21, 32, 47, 67, 91, 118, 145, 169, 187, 197, 197, 186,
        166, 140, 111, 82, 56, 35, 20, 10, 4, 1],
    5: [2, 3, 5, 8, 13, 21, 33, 52, 82, 126, 188, 271, 376, 500, 637, 777, 907,
        1013, 1081, 1102, 1073, 997, 882, 741, 590, 444, 314, 207, 126, 70, 35,
        15, 5, 1],
    6: [2, 3, 5, 8, 13, 21, 33, 52, 83, 132, 209, 327, 502, 752, 1095, 1543,
        2098, 2749, 3468, 4210, 4915, 5517, 5953, 6173, 6148, 5876, 5385, 4727,
        3968, 3178, 2422, 1751, 1196, 767, 458, 252, 126, 56, 21, 6, 1],
    7: [2, 3, 5, 8, 13, 21, 33, 52, 83, 132, 210, 334, 530, 836, 1305, 2005,
        3017, 4428, 6317, 8739, 11705, 15163, 18983, 22957, 26812, 30236, 32916,
        34582, 35052, 34262, 32277, 29282, 25556, 21431, 17242, 13282, 9772,
        6846, 4550, 2855, 1680, 919, 462, 210, 84, 28, 7, 1],
}


def test_criterion_5_fewones_sequences():
    for ell, want in FEWONES_K7.items():
        assert len(want) == 7 * ell - 1
        if ell <= 5:
            got = [fewones_closed_form(n, ell, 7) for n in range(1, len(want) + 1)]
        else:
            got = [fewones_count(n, ell, 7) for n in range(1, len(want) + 1)]
        assert got == want, ell
        # and zero beyond the support
        assert fewones_count(len(want) + 1, ell, 7) == 0

    for k in range(2, 10):
        seq = [fewones_count(n, 5, k) for n in range(1, 5 * k)]
        idx, val = fewones_peak(k)
        assert val == max(seq), k
        assert seq[idx - 1] == val, k


# ---------------------------------------------------------------------------
# criterion 6: oracle equivalence and mass conservation

ORACLE_NMAX = 14
MASS_NMAX = 400


def test_criterion_6_oracle_equivalence():
    for cls in StringClass:
        counts = count_gf(cls).expand(ORACLE_NMAX)
        for n in range(1, ORACLE_NMAX + 1):
            dist = oracle(n)[cls]
            assert counts[n] == dist.total, (cls, n)
            if dist.total == 0:
                continue
            bits = (0, 1) if cls in (U, M, B) else (0,)
            for bit in bits:
                (r,) = run_variance_table([n], cls, bit)
                for m, got in ((1, r.mean), (2, r.second_moment)):
                    want = Fraction(oracle_sum(dist, lambda *key: key[bit] ** m), dist.total)
                    assert got == want, (cls, n, bit, m)
            if cls in (U, M):
                want = oracle_sum(dist, lambda r0, r1, s: r0 * r1)
                assert cross_numerator(cls, [n]) == [want], (cls, n)
            if cls in (U, SOL):
                table = joint_table(n, cls)
                marginal = oracle_tally(dist, lambda r0, r1, s: (n - s, r0))
                for x in range(n + 1):
                    for y in range(x + 1):
                        assert table.count(x, y) == marginal.get((x, y), 0), (
                            cls,
                            n,
                            x,
                            y,
                        )


def test_criterion_6_mass_conservation_to_400():
    """Every joint table to n = 400 is nonnegative, sums to the class
    count, and gives the cap sum's totals of R0 and of R0 * S: row x of a
    table holds the strings with x zeros, so S = n - x, by R0 = y."""
    ns = range(MASS_NMAX + 1)
    for cls, counts in ((U, [2**n for n in ns]), (SOL, count_gf(SOL).expand(MASS_NMAX))):
        sums = run_numerators(cls, 0, ns, bitsum=True)
        for n in ns:
            total = r0 = r0s = 0
            for x, row in enumerate(joint_table(n, cls).rows):
                assert min(row) >= 0, (cls, n, x)
                by_run = sum(map(mul, range(len(row)), row))
                total += sum(row)
                r0 += by_run
                r0s += (n - x) * by_run
            assert total == counts[n], (cls, n)
            assert (r0, r0s) == (sums[n][0], sums[n][MAX_MOMENT]), (cls, n)


# ---------------------------------------------------------------------------
# criterion 7: constants to 10 published digits, residuals < 1e-28

TEN_DIGIT = [
    (lambda: growth_constant(SOL), "1.6180339887"),
    (lambda: growth_constant(M), "1.7548776662"),
    (lambda: growth_constant(P), "1.4655712318"),
    (lambda: variance_limit(U), "3.5070480758"),
    (lambda: variance_limit(M), "5.2840019997"),
    (lambda: variance_limit(SOL), "7.1868910445"),
    (lambda: variance_limit(B), "7.1868910445"),
    (lambda: variance_limit(P), "11.3414222234"),
    (lambda: density_limits(B).variance, "0.2927050983"),
    (lambda: density_limits(P).mean, "0.1942540040"),
    (lambda: density_limits(P).variance, "0.0495615175"),
]


def test_criterion_7_constants():
    for fn, text in TEN_DIGIT:
        decimals = len(text.split(".")[1])
        # all printed digits correct whether the source rounded or truncated
        assert abs(fn() - mpmath.mpf(text)) < mpmath.mpf(10) ** -decimals, text
    assert density_limits(B).mean == mpmath.mpf(1) / 2
    for cls in StringClass:
        assert growth_constant_residual(cls) < mpmath.mpf(10) ** -28, cls
        # 1/beta is the smallest-modulus root of the count denominator
        den = dict(count_gf(cls).den_terms)
        dense = [mpmath.mpf(den.get(e, 0)) for e in range(max(den), -1, -1)]
        roots = mpmath.polyroots(dense, maxsteps=100)
        assert abs(1 / growth_constant(cls) - min(roots, key=abs)) < mpmath.mpf(10) ** -28, cls


# ---------------------------------------------------------------------------
# full-size table run, one length at a time; optional, a few seconds

@pytest.mark.slow
def test_full_table2_to_1400():
    want = {
        500: ("-0.271797", "-0.333956"),
        1000: ("-0.215704", "-0.267488"),
        1400: ("-0.192050", "-0.239074"),
    }
    for n, (rho_u, rho_s) in want.items():
        for cls, ref in ((U, rho_u), (SOL, rho_s)):
            r = joint_rs_report_table([n], cls)[0]
            exact = _exact_rho(r.covariance, r.var_r0 * r.var_other)
            assert _matches_published(exact, ref), (n, cls, str(exact))
