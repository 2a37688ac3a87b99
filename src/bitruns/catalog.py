"""Catalog of the closed-form generating functions.

Count GFs, bitsum triples (a, b, c), the (G, H, H_k) run families and
the two-run f_{i,j} families are hard-coded here rather than re-derived,
each written as its few nonzero (exponent, coefficient) terms; the
exhaustive oracle certifies them in the test suite.

Two conventions matter throughout:

* The closed forms for multus/bimultus/persolus assign coefficient 0 at
  z^0 even though the empty string vacuously satisfies each predicate
  (and "0" satisfies bimultus).  The closed forms are taken as normative;
  coefficient comparisons therefore start at n = 1 for those classes.
* Several H_k closed forms contain z^(k-1) or z^(k-2) terms and only
  count correctly from a minimal k recorded as ``min_valid_k`` (validity
  meaning agreement with enumeration for n >= ``valid_from_n``).  Where a
  moment sum needs the excluded low-k terms, an exact replacement GF is
  recorded in ``hk_moment_overrides``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .ensembles import StringClass
from .errors import UndefinedFamily, UnsupportedClass
from .series import RationalGF, dense_terms, terms, terms_mul

_Z = ((1, 1),)
_Z2 = ((2, 1),)


def _p(*coeffs: int):
    """Sparse terms of the dense coefficients given, constant term first."""
    return dense_terms(coeffs)


_gf = RationalGF.from_terms


#: d_n generating functions for the five classes.
_COUNT_GFS = {
    StringClass.UNCONSTRAINED: _gf(_p(1), _p(1, -2)),
    StringClass.SOLUS: _gf(_p(1, 1), _p(1, -1, -1)),
    StringClass.MULTUS: _gf(_p(1, -1, 1), _p(1, -2, 1, -1)),
    StringClass.BIMULTUS: _gf(_p(0, 0, 2), _p(1, -1, -1)),
    StringClass.PERSOLUS: _gf(_p(0, 1, 0, 2), _p(1, -1, 0, -1)),
}


def count_gf(string_class: StringClass) -> RationalGF:
    """Generating function of the class counts d_n."""
    return _COUNT_GFS[string_class]


@dataclass(frozen=True)
class BitsumTriple:
    """GFs of the total bitsum a_n, total squared bitsum b_n and
    c_n = d_n b_n - a_n^2 over a class."""

    string_class: StringClass
    a: RationalGF
    b: RationalGF
    c: RationalGF


_SOLUS_DEN = _p(1, -1, -1)

_BITSUM_TRIPLES = {
    StringClass.UNCONSTRAINED: BitsumTriple(
        StringClass.UNCONSTRAINED,
        a=_gf(_Z, terms_mul(_p(1, -2), _p(1, -2))),
        b=_gf(_Z, terms_mul(_p(1, -2), _p(1, -2), _p(1, -2))),
        c=_gf(_Z, terms_mul(_p(1, -4), _p(1, -4))),
    ),
    StringClass.SOLUS: BitsumTriple(
        StringClass.SOLUS,
        a=_gf(_Z, terms_mul(_SOLUS_DEN, _SOLUS_DEN)),
        b=_gf(
            terms_mul(_Z, _p(1, -1, 1)),
            terms_mul(_SOLUS_DEN, _SOLUS_DEN, _SOLUS_DEN),
        ),
        c=_gf(
            terms_mul(_Z, _p(1, -1)),
            terms_mul(_p(1, 1), _p(1, 1), _p(1, 1), _p(1, -3, 1), _p(1, -3, 1)),
        ),
    ),
    StringClass.BIMULTUS: BitsumTriple(
        StringClass.BIMULTUS,
        a=_gf(terms_mul(_Z2, _p(2, -1)), terms_mul(_p(1, -1, -1), _p(1, -1, -1))),
        b=_gf(
            terms_mul(_Z2, _p(4, -7, 4, -1, 4, -1)),
            terms_mul(_p(1, -1, 1), _p(1, -1, -1), _p(1, -1, -1), _p(1, -1, -1)),
        ),
        c=_gf(
            terms_mul(_Z2, _p(4, -11, 11, -13, 2, 17, -5, -1)),
            terms_mul(
                _p(1, 1), _p(1, 1), _p(1, -3, 1), _p(1, -3, 1), _p(1, -1, 2, 1, 1)
            ),
        ),
    ),
    StringClass.PERSOLUS: BitsumTriple(
        StringClass.PERSOLUS,
        a=_gf(
            terms_mul(_Z, _p(1, -1, 1), _p(1, -1, 1)),
            terms_mul(_p(1, -1, 0, -1), _p(1, -1, 0, -1)),
        ),
        b=_gf(
            terms_mul(_Z, _p(1, -1, 1), _p(1, -1, 1), _p(1, -1, 0, 1)),
            terms_mul(_p(1, -1, 0, -1), _p(1, -1, 0, -1), _p(1, -1, 0, -1)),
        ),
        c=_gf(
            terms_mul(((3, 1),), _p(2, 4, -6, -6, -16, -8, 8, 14, 5, -2, -3, -1)),
            terms_mul(
                _p(1, -1, -2, -1),
                _p(1, -1, -2, -1),
                _p(1, 0, 1, -1),
                _p(1, 0, 1, -1),
                _p(1, 0, 1, -1),
            ),
        ),
    ),
}


def bitsum_triple(string_class: StringClass) -> BitsumTriple:
    """The (a, b, c) bitsum GFs; every class but multus has closed forms
    here."""
    try:
        return _BITSUM_TRIPLES[string_class]
    except KeyError:
        raise UnsupportedClass(
            f"no bitsum generating functions for {string_class}"
        ) from None


#: The H_k denominator without its z^(k+1) term, for the classes with a
#: bitsum-marked run GF.
_BITSUM_HK_DEN = {
    StringClass.UNCONSTRAINED: _p(1, -2),
    StringClass.SOLUS: _SOLUS_DEN,
}


def bitsum_hk(string_class: StringClass, k: int) -> RationalGF:
    """GF of the total bitsum over class strings whose longest 0-run is
    shorter than k (each 1 marked by u, differentiated at u = 1).

    Cutting a string at its marked 1 leaves two strings with no 0-run of
    k, so the GF is z H_k^2 for unconstrained strings and z (H_k / (1+z))^2
    for solus, where the pieces may not touch the marked 1 with a 1.  Both
    reduce to z (1 - z^k)^2 / D_k^2 with D_k the H_k denominator.  Through
    z^n it equals the triple's ``a`` once k > n.
    """
    if k < 1:
        raise ValueError("run thresholds must be >= 1")
    try:
        base = _BITSUM_HK_DEN[string_class]
    except KeyError:
        raise UnsupportedClass(
            f"no bitsum-marked run generating function for {string_class}"
        ) from None
    one_minus = ((0, 1), (k, -1))
    den = terms(base + ((k + 1, 1),))
    return _gf(terms_mul(_Z, one_minus, one_minus), terms_mul(den, den))


@dataclass(frozen=True)
class RunFamily:
    """The (G, H, H_k) data behind the longest-run moment formulas.

    ``hk(k)`` counts class strings with no run of k designated bits, valid
    for k >= min_valid_k and n >= valid_from_n.  ``g_in_moment_sum`` and
    ``hk_moment_overrides`` say how the moment engine must treat the low-k
    terms: either the paper's G absorbs the invalid closed-form k=1 term
    (the usual case) or an exact replacement GF is substituted.
    """

    string_class: StringClass
    bit: int
    G: RationalGF
    H: RationalGF
    hk: Callable[[int], RationalGF]
    min_valid_k: int = 1
    valid_from_n: int = 0
    g_in_moment_sum: bool = True
    hk_moment_overrides: Mapping[int, RationalGF] = field(default_factory=dict)


def _hk_unconstrained(k: int) -> RationalGF:
    # (1 - z^k) / (1 - 2z + z^(k+1))
    return _gf([(0, 1), (k, -1)], [(0, 1), (1, -2), (k + 1, 1)])


def _hk_solus0(k: int) -> RationalGF:
    # (1 + z - z^k - z^(k+1)) / (1 - z - z^2 + z^(k+1))
    return _gf(
        [(0, 1), (1, 1), (k, -1), (k + 1, -1)],
        [(0, 1), (1, -1), (2, -1), (k + 1, 1)],
    )


def _hk_multus1(k: int) -> RationalGF:
    # z (1 + z^2 - z^(k-1) - z^k) / (1 - 2z + z^2 - z^3 + z^(k+1))
    return _gf(
        [(1, 1), (3, 1), (k, -1), (k + 1, -1)],
        [(0, 1), (1, -2), (2, 1), (3, -1), (k + 1, 1)],
    )


def _hk_multus0(k: int) -> RationalGF:
    # z (1 + z^2 - z^(k-1) + z^k - 2z^(k+1)) / (1 - 2z + z^2 - z^3 + z^(k+2))
    return _gf(
        [(1, 1), (3, 1), (k, -1), (k + 1, 1), (k + 2, -2)],
        [(0, 1), (1, -2), (2, 1), (3, -1), (k + 2, 1)],
    )


def _hk_bimultus(k: int) -> RationalGF:
    # z^2 (2 - 2z + 2z^2 - z^(k-2) + z^(k-1) - 2z^k)
    #   / (1 - 2z + z^2 - z^4 + z^(k+2))
    return _gf(
        [(2, 2), (3, -2), (4, 2), (k, -1), (k + 1, 1), (k + 2, -2)],
        [(0, 1), (1, -2), (2, 1), (4, -1), (k + 2, 1)],
    )


def _hk_persolus0(k: int) -> RationalGF:
    # z (1 + 2z^2 - z^(k-1) - 2z^k) / (1 - z - z^3 + z^(k+1))
    return _gf(
        [(1, 1), (3, 2), (k, -1), (k + 1, -2)],
        [(0, 1), (1, -1), (3, -1), (k + 1, 1)],
    )


_ZERO_GF = _gf((), _p(1))

_H_MULTUS = _gf(_p(0, 1, 0, 1), _p(1, -2, 1, -1))

_FAMILIES = {}


def _add_family(fam: RunFamily) -> None:
    _FAMILIES[(fam.string_class, fam.bit)] = fam


for _bit in (0, 1):
    _add_family(
        RunFamily(
            StringClass.UNCONSTRAINED,
            _bit,
            G=_ZERO_GF,
            H=_gf(_p(1), _p(1, -2)),
            hk=_hk_unconstrained,
        )
    )

_add_family(
    RunFamily(
        StringClass.SOLUS,
        0,
        G=_ZERO_GF,
        H=_gf(_p(1, 1), _p(1, -1, -1)),
        hk=_hk_solus0,
    )
)

_add_family(
    RunFamily(
        StringClass.MULTUS,
        1,
        G=_gf(_p(0, -1), terms_mul(_p(1, -1), _p(1, -1, 1))),
        H=_H_MULTUS,
        hk=_hk_multus1,
        min_valid_k=2,
        valid_from_n=1,
    )
)

_add_family(
    RunFamily(
        StringClass.MULTUS,
        0,
        G=_ZERO_GF,
        H=_H_MULTUS,
        hk=_hk_multus0,
        min_valid_k=1,
        valid_from_n=1,
    )
)

for _bit in (0, 1):
    _add_family(
        RunFamily(
            StringClass.BIMULTUS,
            _bit,
            G=_gf(
                terms_mul(_p(0, -1), _p(1, -1, 1), _p(1, -1, 1)),
                terms_mul(_p(1, -1), _p(1, -1, 0, 1)),
            ),
            H=_gf(_p(0, 0, 2, -2, 2), _p(1, -2, 1, 0, -1)),
            hk=_hk_bimultus,
            min_valid_k=2,
            valid_from_n=1,
            # The printed G is inconsistent with the published moment
            # numerators; the k=1 term is instead replaced by the exact
            # count of strings with no designated bit at all (all-ones
            # bimultus strings: one per length n >= 2).
            g_in_moment_sum=False,
            hk_moment_overrides={1: _gf(_Z2, _p(1, -1))},
        )
    )

_add_family(
    RunFamily(
        StringClass.PERSOLUS,
        0,
        G=_gf(_p(0, -1, -2, -1), _p(1, 0, 1)),
        H=_gf(_p(0, 1, 0, 2), _p(1, -1, 0, -1)),
        hk=_hk_persolus0,
        min_valid_k=2,
        valid_from_n=1,
    )
)


def run_family(string_class: StringClass, bit: int) -> RunFamily:
    """The (G, H, H_k) family for runs of `bit` in the class; raises
    UndefinedFamily where runs of that bit make no sense (solus and
    persolus 1-runs)."""
    try:
        return _FAMILIES[(string_class, bit)]
    except KeyError:
        raise UndefinedFamily(
            f"no run family for {string_class} bit={bit}"
        ) from None


def defined_families():
    """All (class, bit) pairs with a run family, in a stable order."""
    return sorted(_FAMILIES, key=lambda cb: (cb[0].value, cb[1]))


# ---------------------------------------------------------------------------
# two-run families f_{i,j}: no run of i 1s and no run of j 0s

#: smallest index at which the closed form counts correctly (n >= 1)
CROSS_MIN_CLOSED = {StringClass.UNCONSTRAINED: 1, StringClass.MULTUS: 2}


def _cross_unconstrained(i: int, j: int) -> RationalGF:
    # (1 - z^i - z^j + z^(i+j)) / (1 - 2z + z^(i+1) + z^(j+1) - z^(i+j))
    return _gf(
        [(0, 1), (i, -1), (j, -1), (i + j, 1)],
        [(0, 1), (1, -2), (i + 1, 1), (j + 1, 1), (i + j, -1)],
    )


def _cross_multus(i: int, j: int) -> RationalGF:
    # z (1 + z^2 - z^(i-1) - z^i - z^(j-1) + z^j - 2z^(j+1) + 2z^(i+j-1))
    #   / (1 - 2z + z^2 - z^3 + z^(i+1) + z^(j+2) - z^(i+j))
    return _gf(
        [(1, 1), (3, 1), (i, -1), (i + 1, -1), (j, -1), (j + 1, 1), (j + 2, -2),
         (i + j, 2)],
        [(0, 1), (1, -2), (2, 1), (3, -1), (i + 1, 1), (j + 2, 1), (i + j, -1)],
    )


def _cross_multus_boundary(i: int, j: int) -> RationalGF:
    # Exact replacements where the closed form's z^(i-1)/z^(j-1) terms
    # break down.  Constant terms follow the z^0 = 0 convention.
    if i == 1 and j == 1:
        return _ZERO_GF
    if i == 1:
        # no 1s at all: the all-zero string, needing n <= j-1
        return _gf([(1, 1), (j, -1)], _p(1, -1))
    # j == 1: no 0s: all-ones multus strings have length 2..i-1
    if i <= 2:
        return _ZERO_GF
    return _gf([(2, 1), (i, -1)], _p(1, -1))


def cross_gf(string_class: StringClass, i: int, j: int) -> RationalGF:
    """GF counting class strings with no run of i 1s and no run of j 0s.

    For multus, indices below CROSS_MIN_CLOSED use exact boundary GFs in
    place of the closed form (which is only valid for i, j >= 2).
    Bimultus has no known closed form and raises UnsupportedClass.
    """
    if i < 1 or j < 1:
        raise ValueError("run thresholds must be >= 1")
    if string_class is StringClass.UNCONSTRAINED:
        return _cross_unconstrained(i, j)
    if string_class is StringClass.MULTUS:
        if min(i, j) < CROSS_MIN_CLOSED[StringClass.MULTUS]:
            return _cross_multus_boundary(i, j)
        return _cross_multus(i, j)
    raise UnsupportedClass(f"no two-run generating function for {string_class}")
