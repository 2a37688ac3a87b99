"""Cross-checks of every closed-form pipeline against brute force.

Each check compares a generating-function or binomial-sum result with
exhaustive enumeration over all 2^n strings, for every length up to
a bound.  Each check is a generator that compares case by case and
yields (label, got, want) only where they differ; ``_check`` turns the
first of these into the check's named result and runs no later case,
so a failure pinpoints the formula and index at fault.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .catalog import _NO_EMPTY, bitsum_gfs, count_gf, cross_gf, defined_families
from .crossrun import cross_numerator
from .ensembles import (
    DEFAULT_ORACLE_BOUND,
    JointDistribution,
    StringClass,
    _longest_one_run,
    bit_string,
    enumerate_classes,
    oracle_moment,
    to_composition,
)
from .errors import OracleBoundExceeded
from .jointdp import joint_table
from .moments import run_variance_table

#: enumerate_joint as a check sees it: run_checks hands every check one
#: memo of enumerate_classes, so each n is enumerated once per call.
Oracle = Callable[[int, StringClass], JointDistribution]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"{self.name}: {status}" + (f" ({self.detail})" if self.detail else "")


def _first_n(string_class: StringClass) -> int:
    """The first n a GF comparison starts at: 1 for the classes whose GFs
    set z^0 to 0 though the empty string is a member."""
    return 1 if string_class in _NO_EMPTY else 0


def _check(name: str, mismatches) -> CheckResult:
    """The result of one check from its (label, got, want) mismatches:
    the first one is the counterexample, and no case after it is run."""
    for label, got, want in mismatches:
        return CheckResult(name, False, f"{label}: {got} != {want}")
    return CheckResult(name, True)


def check_counts(nmax: int, oracle: Oracle) -> list:
    def bad(cls):
        series = count_gf(cls).expand(nmax)
        for n in range(_first_n(cls), nmax + 1):
            want = oracle(n, cls).total
            if series[n] != want:
                yield f"n={n}", f"series {series[n]}", f"count {want}"

    return [_check(f"counts/{cls}", bad(cls)) for cls in StringClass]


def check_bitsums(nmax: int, oracle: Oracle) -> list:
    def bad(cls):
        a, b = (gf.expand(nmax) for gf in bitsum_gfs(cls))
        for n in range(nmax + 1):
            counts = oracle(n, cls).counts
            wa = sum(cnt * s for (_, _, s), cnt in counts)
            wb = sum(cnt * s * s for (_, _, s), cnt in counts)
            if (a[n], b[n]) != (wa, wb):
                yield f"n={n}", f"({a[n]},{b[n]})", f"({wa},{wb})"

    classes = (StringClass.BIMULTUS, StringClass.PERSOLUS)
    return [_check(f"bitsums/{cls}", bad(cls)) for cls in classes]


def check_run_moments(nmax: int, oracle: Oracle) -> list:
    def bad(cls, bit):
        dists = [oracle(n, cls) for n in range(1, nmax + 1)]
        dists = [d for d in dists if d.total]
        reports = run_variance_table([d.n for d in dists], cls, bit)
        for dist, r in zip(dists, reports):
            moments = (r.mean, r.second_moment, r.third_moment, r.fourth_moment)
            for m, got in enumerate(moments, 1):
                want = Fraction(
                    sum(cnt * key[bit] ** m for key, cnt in dist.counts), dist.total
                )
                if got != want:
                    yield f"n={dist.n} m={m}", got, want

    return [
        _check(f"run-moments/{cls}/bit{bit}", bad(cls, bit))
        for cls, bit in defined_families()
    ]


def check_cross_run(nmax: int, oracle: Oracle) -> list:
    def bad(cls):
        # two-run family coefficients
        for i in range(1, 7):
            for j in range(1, 7):
                series = cross_gf(cls, i, j).expand(nmax)
                for n in range(_first_n(cls), nmax + 1):
                    counts = oracle(n, cls).counts
                    want = sum(cnt for (r0, r1, _), cnt in counts if r1 < i and r0 < j)
                    if series[n] != want:
                        yield f"f_{{{i},{j}}} n={n}", series[n], want
        # product moments
        counts = count_gf(cls).expand(nmax)
        xnum = cross_numerator(cls, range(nmax + 1))
        for n in range(1, nmax + 1):
            dist = oracle(n, cls)
            if dist.total:
                got = Fraction(xnum[n], counts[n])
                want = oracle_moment(dist, lambda r0, r1, s: r0 * r1)
                if got != want:
                    yield f"E(R0 R1) n={n}", got, want

    classes = (StringClass.UNCONSTRAINED, StringClass.MULTUS)
    return [_check(f"cross-run/{cls}", bad(cls)) for cls in classes]


def check_joint_dp(nmax: int, oracle: Oracle) -> list:
    def bad(cls):
        for n in range(nmax + 1):
            table = joint_table(n, cls)
            tally: dict = {}
            for (r0, _, s), cnt in oracle(n, cls).counts:
                key = (n - s, r0)
                tally[key] = tally.get(key, 0) + cnt
            for x in range(n + 1):
                for y in range(x + 1):
                    got, want = table.count(x, y), tally.get((x, y), 0)
                    if got != want:
                        yield f"n={n} x={x} y={y}", got, want

    classes = (StringClass.UNCONSTRAINED, StringClass.SOLUS)
    return [_check(f"joint-dp/{cls}", bad(cls)) for cls in classes]


def check_compositions(nmax: int, oracle: Oracle) -> list:
    def bad():
        for n in range(nmax + 1):
            mask = (1 << n) - 1
            seen = set()
            for v in range(1 << n):
                parts = tuple(to_composition(v, n))
                # r0 and the bitsum from word operations, not from the split
                r0 = _longest_one_run(~v & mask)
                s = v.bit_count()
                if sum(parts) != n + 1:
                    got, want = f"parts sum {sum(parts)}", n + 1
                elif len(parts) != s + 1:
                    got, want = f"{len(parts)} parts", f"bitsum+1 {s + 1}"
                elif max(parts) != r0 + 1:
                    got, want = f"max part {max(parts)}", f"r0+1 {r0 + 1}"
                else:
                    seen.add(parts)
                    continue
                yield f"n={n} {bit_string(v, n)}", got, want
            # 2^n distinct compositions: the map from strings is one to one
            if len(seen) != 2**n:
                yield f"n={n}", f"{len(seen)} compositions", 2**n

    return [_check("compositions", bad())]


_SCOPES = {
    "counts": check_counts,
    "bitsums": check_bitsums,
    "run-moments": check_run_moments,
    "cross-run": check_cross_run,
    "joint-dp": check_joint_dp,
    "compositions": check_compositions,
}


def available_scopes() -> Sequence[str]:
    return tuple(_SCOPES) + ("all",)


def run_checks(scope: str = "all", nmax: int = 10) -> list:
    """Run one named check suite, or every suite for scope 'all'.

    Every suite enumerates all 2^n strings for each n <= nmax, so nmax
    is checked against the oracle bound before any of them starts.
    """
    if scope == "all":
        fns = list(_SCOPES.values())
    elif scope in _SCOPES:
        fns = [_SCOPES[scope]]
    else:
        raise ValueError(
            f"unknown scope {scope!r}; choose from {', '.join(available_scopes())}"
        )
    if nmax < 0:
        raise ValueError(f"nmax must be nonnegative, got {nmax}")
    if nmax > DEFAULT_ORACLE_BOUND:
        raise OracleBoundExceeded(
            f"nmax={nmax} exceeds the oracle bound {DEFAULT_ORACLE_BOUND}"
        )
    by_length = lru_cache(maxsize=None)(enumerate_classes)

    def oracle(n: int, cls: StringClass) -> JointDistribution:
        return by_length(n)[cls]

    out = []
    for fn in fns:
        out.extend(fn(nmax, oracle))
    return out
