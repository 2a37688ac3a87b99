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

from .catalog import bitsum_gfs, count_gf, cross_gf, defined_families, first_length
from .crossrun import cross_numerator
from .ensembles import (
    DEFAULT_ORACLE_BOUND,
    JointDistribution,
    StringClass,
    _longest_one_run,
    bit_string,
    compositions,
    enumerate_classes,
    oracle_tally,
)
from .errors import LimitExceeded
from .jointdp import joint_table
from .moments import run_variance_table

#: A JointDistribution per (n, class), read with oracle_tally: run_checks hands
#: every check one memo of enumerate_classes, so each n is enumerated once.
Oracle = Callable[[int, StringClass], JointDistribution]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"{self.name}: {status}" + (f" ({self.detail})" if self.detail else "")


def _check(name: str, mismatches) -> CheckResult:
    """The result of one check from its (label, got, want) mismatches:
    the first one is the counterexample, and no case after it is run."""
    for label, got, want in mismatches:
        return CheckResult(name, False, f"{label}: {got} != {want}")
    return CheckResult(name, True)


def check_counts(nmax: int, oracle: Oracle) -> list:
    def bad(cls):
        series = count_gf(cls).expand(nmax)
        for n in range(first_length(cls), nmax + 1):
            want = oracle(n, cls).total
            if series[n] != want:
                yield f"n={n}", f"series {series[n]}", f"count {want}"

    return [_check(f"counts/{cls}", bad(cls)) for cls in StringClass]


def check_bitsums(nmax: int, oracle: Oracle) -> list:
    def bad(cls):
        a, b = (gf.expand(nmax) for gf in bitsum_gfs(cls))
        for n in range(nmax + 1):
            by_s = oracle_tally(oracle(n, cls), lambda r0, r1, s: s).items()
            wa = sum(cnt * s for s, cnt in by_s)
            wb = sum(cnt * s * s for s, cnt in by_s)
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
            runs = oracle_tally(dist, lambda r0, r1, s: (r0, r1)[bit]).items()
            moments = (r.mean, r.second_moment, r.third_moment, r.fourth_moment)
            for m, got in enumerate(moments, 1):
                want = Fraction(sum(cnt * k**m for k, cnt in runs), dist.total)
                if got != want:
                    yield f"n={dist.n} m={m}", got, want

    return [
        _check(f"run-moments/{cls}/bit{bit}", bad(cls, bit))
        for cls, bit in defined_families()
    ]


def check_cross_run(nmax: int, oracle: Oracle) -> list:
    def bad(cls):
        # one (r0, r1) tally per length serves every check below
        dists = [oracle(n, cls) for n in range(nmax + 1)]
        pairs = [oracle_tally(d, lambda r0, r1, s: (r0, r1)).items() for d in dists]
        # two-run family coefficients
        for i in range(1, 7):
            for j in range(1, 7):
                series = cross_gf(cls, i, j).expand(nmax)
                for n in range(first_length(cls), nmax + 1):
                    want = sum(cnt for (r0, r1), cnt in pairs[n] if r1 < i and r0 < j)
                    if series[n] != want:
                        yield f"f_{{{i},{j}}} n={n}", series[n], want
        # E(R0 R1), the GF mean over count_gf's count: a wrong count fails here too
        counts = count_gf(cls).expand(nmax)
        xnum = cross_numerator(cls, range(nmax + 1))
        for n in range(1, nmax + 1):
            if dists[n].total:
                got = Fraction(xnum[n], counts[n])
                xs = sum(cnt * r0 * r1 for (r0, r1), cnt in pairs[n])
                want = Fraction(xs, dists[n].total)
                if got != want:
                    yield f"E(R0 R1) n={n}", got, want

    classes = (StringClass.UNCONSTRAINED, StringClass.MULTUS)
    return [_check(f"cross-run/{cls}", bad(cls)) for cls in classes]


def check_joint_dp(nmax: int, oracle: Oracle) -> list:
    def bad(cls):
        for n in range(nmax + 1):
            table = joint_table(n, cls)
            tally = oracle_tally(oracle(n, cls), lambda r0, r1, s: (n - s, r0))
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
            # v < w exactly when v's parts, last part first, compare
            # greater than w's: a strictly decreasing stream is one to one
            prev = (n + 2,)  # above every composition of n + 1
            stream, v = compositions(n), -1
            for v, parts in zip(range(1 << n), stream):
                # r0 and the bitsum from word operations, not from the parts
                r0 = _longest_one_run(v ^ mask)
                s = v.bit_count()
                last_first = parts[::-1]
                if sum(parts) != n + 1:
                    got, want = f"parts sum {sum(parts)}", n + 1
                elif len(parts) != s + 1:
                    got, want = f"{len(parts)} parts", f"bitsum+1 {s + 1}"
                elif max(parts) != r0 + 1:
                    got, want = f"max part {max(parts)}", f"r0+1 {r0 + 1}"
                elif last_first >= prev:
                    got, want = f"parts {parts} after {prev[::-1]}", "parts in the order of v"
                else:
                    prev = last_first
                    continue
                yield f"n={n} {bit_string(v, n)}", got, want
            # one composition per string: none missing, none past the last
            seen = v + 1 + sum(1 for _ in stream)
            if seen != 1 << n:
                yield f"n={n}", f"{seen} compositions", f"2^n {1 << n}"

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
        raise LimitExceeded(
            f"nmax={nmax} exceeds the oracle bound {DEFAULT_ORACLE_BOUND}"
        )
    by_length = lru_cache(maxsize=None)(enumerate_classes)

    def oracle(n: int, cls: StringClass) -> JointDistribution:
        return by_length(n)[cls]

    out = []
    for fn in fns:
        out.extend(fn(nmax, oracle))
    return out
