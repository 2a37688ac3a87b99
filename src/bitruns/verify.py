"""Cross-checks of every closed-form pipeline against brute force.

Each check compares a generating-function or binomial-sum result with
exhaustive enumeration over all 2^n strings, for every length up to
a bound.  Checks return named results with the first counterexample, so
a failure pinpoints the formula and index at fault.
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


def check_counts(nmax: int, oracle: Oracle) -> list:
    out = []
    for cls in StringClass:
        series = count_gf(cls).expand(nmax)
        bad = ""
        for n in range(_first_n(cls), nmax + 1):
            want = oracle(n, cls).total
            if series[n] != want:
                bad = f"n={n}: series {series[n]} != count {want}"
                break
        out.append(CheckResult(f"counts/{cls}", not bad, bad))
    return out


def check_bitsums(nmax: int, oracle: Oracle) -> list:
    out = []
    for cls in (StringClass.BIMULTUS, StringClass.PERSOLUS):
        a, b = (gf.expand(nmax) for gf in bitsum_gfs(cls))
        bad = ""
        for n in range(nmax + 1):
            counts = oracle(n, cls).counts
            wa = sum(cnt * s for (_, _, s), cnt in counts)
            wb = sum(cnt * s * s for (_, _, s), cnt in counts)
            if (a[n], b[n]) != (wa, wb):
                bad = f"n={n}: ({a[n]},{b[n]}) != ({wa},{wb})"
                break
        out.append(CheckResult(f"bitsums/{cls}", not bad, bad))
    return out


def check_run_moments(nmax: int, oracle: Oracle) -> list:
    out = []
    for cls, bit in defined_families():
        dists = [oracle(n, cls) for n in range(1, nmax + 1)]
        dists = [d for d in dists if d.total]
        reports = run_variance_table([d.n for d in dists], cls, bit)
        bad = ""
        for dist, r in zip(dists, reports):
            moments = (r.mean, r.second_moment, r.third_moment, r.fourth_moment)
            for m, got in enumerate(moments, 1):
                want = Fraction(
                    sum(cnt * key[bit] ** m for key, cnt in dist.counts),
                    dist.total,
                )
                if got != want:
                    bad = f"n={dist.n} m={m}: {got} != {want}"
                    break
            if bad:
                break
        out.append(CheckResult(f"run-moments/{cls}/bit{bit}", not bad, bad))
    return out


def check_cross_run(nmax: int, oracle: Oracle) -> list:
    out = []
    for cls in (StringClass.UNCONSTRAINED, StringClass.MULTUS):
        bad = ""
        # two-run family coefficients
        for i in range(1, 7):
            for j in range(1, 7):
                series = cross_gf(cls, i, j).expand(nmax)
                for n in range(_first_n(cls), nmax + 1):
                    want = sum(
                        cnt
                        for (r0, r1, _), cnt in oracle(n, cls).counts
                        if r1 < i and r0 < j
                    )
                    if series[n] != want:
                        bad = f"f_{{{i},{j}}} n={n}: {series[n]} != {want}"
                        break
                if bad:
                    break
            if bad:
                break
        # product moments
        if not bad:
            counts = count_gf(cls).expand(nmax)
            xnum = cross_numerator(cls, range(nmax + 1))
            for n in range(1, nmax + 1):
                dist = oracle(n, cls)
                if dist.total == 0:
                    continue
                want = oracle_moment(dist, "R0*R1")
                got = Fraction(xnum[n], counts[n])
                if got != want:
                    bad = f"E(R0 R1) n={n}: {got} != {want}"
                    break
        out.append(CheckResult(f"cross-run/{cls}", not bad, bad))
    return out


def check_joint_dp(nmax: int, oracle: Oracle) -> list:
    out = []
    for cls in (StringClass.UNCONSTRAINED, StringClass.SOLUS):
        bad = ""
        for n in range(nmax + 1):
            table = joint_table(n, cls)
            want: dict = {}
            for (r0, _, s), cnt in oracle(n, cls).counts:
                key = (n - s, r0)
                want[key] = want.get(key, 0) + cnt
            for x in range(n + 1):
                for y in range(x + 1):
                    if table.count(x, y) != want.get((x, y), 0):
                        bad = (
                            f"n={n} x={x} y={y}: "
                            f"{table.count(x, y)} != {want.get((x, y), 0)}"
                        )
                        break
                if bad:
                    break
            if bad:
                break
        out.append(CheckResult(f"joint-dp/{cls}", not bad, bad))
    return out


def check_compositions(nmax: int, oracle: Oracle) -> list:
    bad = ""
    for n in range(nmax + 1):
        mask = (1 << n) - 1
        seen = set()
        for v in range(1 << n):
            parts = tuple(to_composition(v, n))
            # r0 and the bitsum from word operations, not from the split
            r0 = _longest_one_run(~v & mask)
            s = v.bit_count()
            if sum(parts) != n + 1:
                bad = f"n={n} {bit_string(v, n)}: parts sum {sum(parts)} != {n + 1}"
            elif len(parts) != s + 1:
                bad = f"n={n} {bit_string(v, n)}: {len(parts)} parts != bitsum+1 {s + 1}"
            elif max(parts) != r0 + 1:
                bad = f"n={n} {bit_string(v, n)}: max part {max(parts)} != r0+1 {r0 + 1}"
            elif parts in seen:
                bad = f"n={n}: duplicate composition {parts}"
            if bad:
                break
            seen.add(parts)
        if not bad and len(seen) != 2**n:
            bad = f"n={n}: {len(seen)} compositions != {2**n}"
        if bad:
            break
    return [CheckResult("compositions", not bad, bad)]


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
