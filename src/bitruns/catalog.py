"""Catalog of the generating functions of the five string classes.

Every class is a language of alternating 0-runs and 1-runs whose
lengths lie in fixed ranges (``_RUNS``): unconstrained strings allow
any run length, solus and persolus 1-runs have length exactly 1, multus
and bimultus 1-runs and bimultus and persolus 0-runs are at least 2
long.  With A_b = sum of z^l over the allowed lengths l of the runs of
bit b, the class GF is

    (1 + A_0)(1 + A_1) / (1 - A_0 A_1).

``alternating_gf`` builds it from sparse terms: A_b = a_b / q_b with
q_b = 1 - z (or 1 for a single length) and a_b = z^lo - z^(hi+1) (or
z^lo when the range has no upper end), so the GF is

    (q_0 + a_0)(q_1 + a_1) / (q_0 q_1 - a_0 a_1).

Capping the runs of one bit at k - 1 gives the run family's H_k,
capping both gives the two-run f_{a,b}, and a cap below a range's
minimum gives A_b = 0.  Every one of them counts exactly for every
k >= 1, under the z^0 convention below.  Marking each 1 by u and taking
d/du at u = 1 gives the bitsum-marked R = (1 + A_0)^2 θA_1 /
(1 - A_0 A_1)^2 with θ = z d/dz.  In every run family the runs have no
upper length and the other bit's a is one term z^l, so capping the runs
below k turns the denominator into E + z^(k + l) for a fixed E: H_k,
and for the 0-runs R_k, are geometric series in z^(k + l) over fixed
rational functions (``cap_form``).  The run moments read them at single
lengths and build only the H_k with k below about sqrt(N / 2).  A run
family is thus only its (class, bit) pair (``defined_families``,
checked by ``run_family``); ``alternating_gf`` with the runs of that
bit capped gives H and H_k as GFs where one is wanted.

The z^0 convention (``first_length``): where the runs of some bit are
at least 2 long (multus, bimultus and persolus) every GF sets the
coefficient of z^0 to 0, though the empty string is a member (the
constructor subtracts the denominator from the numerator), and
comparisons with enumeration start at n = 1 there.  The one exception
is the multus count GF, which keeps the empty string.

``_RUNS`` is the only statement of a class's runs: the run families,
the z^0 convention and every GF read it when called.

The total bitsum a and squared bitsum b are (u d/du) F and
(u d/du)^2 F at u = 1 for the class GF F with each 1 marked by u, so
they are built from ``cap_form``'s pieces for the 0-runs
(``bitsum_gfs``): a = P^2 t1 / E^2 and
b = P^2 ((q_1 θt1 - 2 t1 θq_1) E + 2 z^lo t1^2) / (q_1 E^3).  Both vanish
at z^0, so the z^0 convention does not touch them.

With u marking each 1 the denominator is q_0(z) q_1(uz) - a_0(z) a_1(uz)
(``bivariate_denominator``); ``asymptotics`` reads every limit constant
off its smallest positive root.

The count GFs stay hand-written, as their few nonzero (exponent,
coefficient) terms, in lowest terms (the constructor's bimultus count
is not) and with the multus count keeping the empty string.  Their
denominators give ``asymptotics`` an independent check of the root.
The test suite ties them to the constructor, and the exhaustive oracle
certifies them.
"""

from __future__ import annotations

from typing import NamedTuple

from .ensembles import StringClass
from .errors import UndefinedFamily, UnsupportedClass
from .series import RationalGF, terms, terms_mul


#: d_n generating functions for the five classes, from their dense
#: numerator and denominator coefficients, constant term first.
_COUNT_GFS = {
    cls: RationalGF(enumerate(num), enumerate(den))
    for cls, (num, den) in {
        StringClass.UNCONSTRAINED: ((1,), (1, -2)),
        StringClass.SOLUS: ((1, 1), (1, -1, -1)),
        StringClass.MULTUS: ((1, -1, 1), (1, -2, 1, -1)),
        StringClass.BIMULTUS: ((0, 0, 2), (1, -1, -1)),
        StringClass.PERSOLUS: ((0, 1, 0, 2), (1, -1, 0, -1)),
    }.items()
}


def count_gf(string_class: StringClass) -> RationalGF:
    """Generating function of the class counts d_n."""
    return _COUNT_GFS[string_class]


# ---------------------------------------------------------------------------
# the alternating-run constructor

#: Allowed (shortest, longest) runs of 0s and of 1s; None has no upper end.
_RUNS = {
    StringClass.UNCONSTRAINED: ((1, None), (1, None)),
    StringClass.SOLUS: ((1, None), (1, 1)),
    StringClass.MULTUS: ((1, None), (2, None)),
    StringClass.BIMULTUS: ((2, None), (2, None)),
    StringClass.PERSOLUS: ((2, None), (1, 1)),
}

_ONE = ((0, 1),)
_MINUS_ONE = ((0, -1),)
_ONE_MINUS_Z = ((0, 1), (1, -1))


def first_length(string_class: StringClass) -> int:
    """The first length at which the class GFs count the class strings:
    1 where the runs of some bit are at least 2 long, whose GFs set z^0
    to 0, else 0."""
    return int(any(lo >= 2 for lo, _ in _RUNS[string_class]))


def _runs(lo: int, hi, cap) -> tuple:
    """(q, q + a, a) for a / q = sum of z^l over lo <= l <= min(hi, cap):
    q = 1 and a that sum where at most one length is allowed, else
    q = 1 - z and a = z^lo - z^(hi + 1) (z^lo with no upper end)."""
    if cap is not None and (hi is None or cap < hi):
        hi = cap
    if hi is not None and hi <= lo:
        q, a = _ONE, tuple((l, 1) for l in range(lo, hi + 1))
    else:
        q, a = _ONE_MINUS_Z, ((lo, 1),) + (() if hi is None else ((hi + 1, -1),))
    return q, terms(q + a), a


def _parts(string_class: StringClass, zero_cap, one_cap) -> tuple:
    """The (q, q + a, a) of the 0-runs and of the 1-runs, and the terms
    of q_0 q_1 - a_0 a_1."""
    (lo0, hi0), (lo1, hi1) = _RUNS[string_class]
    zeros, ones = _runs(lo0, hi0, zero_cap), _runs(lo1, hi1, one_cap)
    (q0, _, a0), (q1, _, a1) = zeros, ones
    return zeros, ones, terms(terms_mul(q0, q1) + terms_mul(a0, a1, _MINUS_ONE))


def bivariate_denominator(string_class: StringClass) -> tuple:
    """The terms (z exponent, u exponent, coefficient) of the class GF's
    denominator q_0(z) q_1(uz) - a_0(z) a_1(uz), with u marking each 1."""
    (q0, _, a0), (q1, _, a1), _ = _parts(string_class, None, None)
    den: dict = {}
    for (x, y), sign in (((q0, q1), 1), ((a0, a1), -1)):
        for e, c in x:
            for f, d in y:
                den[e + f, f] = den.get((e + f, f), 0) + sign * c * d
    return tuple((e, f, c) for (e, f), c in sorted(den.items()) if c)


def alternating_gf(string_class: StringClass, zero_cap=None, one_cap=None) -> RationalGF:
    """GF of the class strings whose 0-runs are at most `zero_cap` long
    and whose 1-runs are at most `one_cap` long (None: no cap), with the
    class's z^0 convention."""
    (_, p0, _), (_, p1, _), den = _parts(string_class, zero_cap, one_cap)
    num = terms_mul(p0, p1)
    if first_length(string_class):
        num += terms_mul(den, _MINUS_ONE)
    return RationalGF(num, den)


def _theta(t) -> tuple:
    """z d/dz of a sparse polynomial."""
    return tuple((e, e * c) for e, c in t if e)


def _theta_ones(string_class: StringClass) -> tuple:
    """t_1 with θA_1 = t_1 / q_1^2 for the uncapped 1-runs:
    t_1 = q_1 θa_1 - a_1 θq_1."""
    q1, _, a1 = _runs(*_RUNS[string_class][1], None)
    return terms(terms_mul(q1, _theta(a1)) + terms_mul(a1, _theta(q1), _MINUS_ONE))


class CapForm(NamedTuple):
    """H_k of the runs of one bit as a series in the cap, for n >= 1.

    Capping the runs of bit b below k > lo gives A_b = (z^lo - z^k)/(1 - z),
    and the other bit's a is the one term z^lo_other (every row of _RUNS
    has a one-term a).  With E = (1 - z) q_other - z^(lo + lo_other),
    P = 1 - z + z^lo and Q = q_other + z^lo_other the constructor's GF is

        H_k = (P - z^k) Q / (E + z^(k + lo_other)),

    and for k <= lo no run of bit b fits: H_k = Q / q_other.  For bit 0,
    t1 gives the bitsum-marked
    R_k = (P - z^k)^2 t1 / (E + z^(k + lo_other))^2, and R_k = t1 / q_other^2
    for k <= lo; for bit 1, t1 is None.  E has constant term 1.  At z^0
    these count the empty string for every class."""

    lo: int
    lo_other: int
    q_other: tuple
    p: tuple
    q: tuple
    e: tuple
    t1: tuple | None


def cap_form(string_class: StringClass, bit: int) -> CapForm:
    """The pieces of H_k, and for bit 0 of R_k, when the runs of `bit`
    are capped; raises UndefinedFamily where the runs of `bit` have one
    allowed length."""
    run_family(string_class, bit)
    zeros, ones, den = _parts(string_class, None, None)
    (_, p, _), (q_other, q, _) = (ones, zeros) if bit else (zeros, ones)
    lo, lo_other = _RUNS[string_class][bit][0], _RUNS[string_class][1 - bit][0]
    t1 = None if bit else _theta_ones(string_class)
    return CapForm(lo, lo_other, q_other, p, q, den, t1)


def bitsum_gfs(string_class: StringClass) -> tuple:
    """(a, b): the GFs of the total bitsum a_n and the total squared
    bitsum b_n over the class strings of length n.

    With u marking each 1, a = (u d/du) F and b = (u d/du)^2 F at u = 1
    for the class GF F; with cap_form's pieces for the 0-runs,

        a = P^2 t1 / E^2,
        b = P^2 ((q_1 θt1 - 2 t1 θq_1) E + 2 z^lo t1^2) / (q_1 E^3)."""
    f = cap_form(string_class, 0)
    t1, q1, e = f.t1, f.q_other, f.e
    p2, e2 = terms_mul(f.p, f.p), terms_mul(e, e)
    inner = terms(
        terms_mul(q1, _theta(t1), e)
        + terms_mul(t1, _theta(q1), e, ((0, -2),))
        + terms_mul(t1, t1, ((f.lo, 2),))
    )
    a = RationalGF(terms_mul(p2, t1), e2)
    b = RationalGF(terms_mul(p2, inner), terms_mul(q1, e2, e))
    return a, b


def run_family(string_class: StringClass, bit: int) -> None:
    """Check that runs of `bit` in the class form a run family; raises
    UndefinedFamily where they make no sense (solus and persolus 1-runs).
    The family's H and H_k are ``alternating_gf`` with the runs of `bit`
    capped, read at single lengths through ``cap_form``."""
    if (string_class, bit) not in defined_families():
        raise UndefinedFamily(f"no run family for {string_class} bit={bit}")


def defined_families() -> list:
    """All (class, bit) pairs with a run family, in a stable order: a bit
    whose runs have one allowed length has none."""
    return [
        (cls, bit)
        for cls in sorted(_RUNS, key=lambda c: c.value)
        for bit in (0, 1)
        if _RUNS[cls][bit][0] != _RUNS[cls][bit][1]
    ]


def shortest_runs(string_class: StringClass) -> tuple:
    """(lo0, lo1), the shortest 0-run and 1-run of a class with a run
    family for both bits; raises UnsupportedClass for the others."""
    families = defined_families()
    if (string_class, 0) not in families or (string_class, 1) not in families:
        raise UnsupportedClass(f"no two-run generating function for {string_class}")
    (lo0, _), (lo1, _) = _RUNS[string_class]
    return lo0, lo1


def cross_gf(string_class: StringClass, i: int, j: int) -> RationalGF:
    """GF counting class strings with no run of i 1s and no run of j 0s;
    for the classes with a run family for both bits."""
    if i < 1 or j < 1:
        raise ValueError("run thresholds must be >= 1")
    shortest_runs(string_class)
    return alternating_gf(string_class, j - 1, i - 1)
