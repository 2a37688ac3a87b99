import os
import subprocess
import sys
from collections import Counter
from itertools import chain, islice
from pathlib import Path

import pytest

from bitruns import verify
from bitruns.ensembles import DEFAULT_ORACLE_BOUND, run_stats
from bitruns.errors import LimitExceeded
from bitruns.verify import CheckResult, available_scopes, run_checks


def test_all_scopes_pass_at_small_n():
    results = run_checks("all", 7)
    assert results
    assert all(r.passed for r in results), [str(r) for r in results if not r.passed]


def test_individual_scope():
    results = run_checks("counts", 6)
    assert {r.name for r in results} == {
        f"counts/{c}"
        for c in ("unconstrained", "solus", "multus", "bimultus", "persolus")
    }


def test_unknown_scope():
    with pytest.raises(ValueError):
        run_checks("nope", 5)


def test_available_scopes():
    scopes = available_scopes()
    assert "all" in scopes and "joint-dp" in scopes


def test_check_result_str():
    assert str(CheckResult("x", True)) == "x: ok"
    assert str(CheckResult("x", False, "n=3")) == "x: FAIL (n=3)"


def test_each_class_and_length_enumerated_once(monkeypatch):
    calls = Counter()
    enumerate_classes = verify.enumerate_classes

    def counted(n):
        calls[n] += 1
        return enumerate_classes(n)

    monkeypatch.setattr(verify, "enumerate_classes", counted)
    results = run_checks("all", 8)
    assert all(r.passed for r in results), [str(r) for r in results if not r.passed]
    assert set(calls) == set(range(9))
    assert set(calls.values()) == {1}


def test_oracle_bound_checked_before_any_enumeration(monkeypatch):
    def forbidden(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(verify, "enumerate_classes", forbidden)
    monkeypatch.setattr(verify, "compositions", forbidden)
    message = f"^nmax={DEFAULT_ORACLE_BOUND + 1} exceeds the oracle bound {DEFAULT_ORACLE_BOUND}$"
    for scope in available_scopes():
        with pytest.raises(LimitExceeded, match=message):
            run_checks(scope, DEFAULT_ORACLE_BOUND + 1)
    with pytest.raises(ValueError):
        run_checks("counts", -1)


# -- a fault planted in each suite's route -------------------------------------

BAD_N = 4


def _off_at(expansion):
    """The expansion with 1 added at BAD_N."""
    s = list(expansion)
    s[BAD_N] += 1
    return tuple(s)


class _OffGF:
    """A generating function whose expansion is 1 off at BAD_N."""

    def __init__(self, gf):
        self.gf = gf

    def expand(self, order):
        return _off_at(self.gf.expand(order))


def _plant_counts(count_gf):
    return lambda cls: _OffGF(count_gf(cls))


def _plant_bitsums(bitsum_gfs):
    def planted(cls):
        a, b = bitsum_gfs(cls)
        return _OffGF(a), b

    return planted


def _plant_run_moments(run_variance_table):
    def planted(ns, cls, bit):
        return [
            r._replace(mean=r.mean + 1) if r.n == BAD_N else r
            for r in run_variance_table(ns, cls, bit)
        ]

    return planted


def _plant_cross_run(cross_numerator):
    return lambda cls, ns: list(_off_at(cross_numerator(cls, ns)))


def _plant_joint_dp(joint_table):
    def planted(n, cls):
        table = joint_table(n, cls)
        if n != BAD_N:
            return table
        (row, *rows) = table.rows
        return table._replace(rows=((row[0] + 1, *row[1:]), *rows))

    return planted


def _plant_compositions(compositions):
    def planted(n):
        stream = compositions(n)
        return (p[:-1] + (p[-1] + 1,) for p in stream) if n == BAD_N else stream

    return planted


#: Each suite's route in verify, and a wrapper that makes it wrong at BAD_N.
_PLANTED = {
    "counts": ("count_gf", _plant_counts),
    "bitsums": ("bitsum_gfs", _plant_bitsums),
    "run-moments": ("run_variance_table", _plant_run_moments),
    "cross-run": ("cross_numerator", _plant_cross_run),
    "joint-dp": ("joint_table", _plant_joint_dp),
    "compositions": ("compositions", _plant_compositions),
}


def test_every_suite_has_a_planted_fault():
    assert set(_PLANTED) == set(verify._SCOPES)


@pytest.mark.parametrize("scope", sorted(_PLANTED))
def test_suite_reports_a_planted_fault_at_its_length(monkeypatch, scope):
    """With its route wrong at one length, every result of the suite
    fails and names that length as the first counterexample."""
    name, plant = _PLANTED[scope]
    monkeypatch.setattr(verify, name, plant(getattr(verify, name)))
    results = run_checks(scope, BAD_N + 2)
    assert results
    for r in results:
        assert r.passed is False, str(r)
        assert f"n={BAD_N}" in r.detail, str(r)


@pytest.mark.parametrize("scope", ["compositions", "joint-dp"])
def test_suite_stops_at_its_first_counterexample(monkeypatch, scope):
    """A suite runs no case past its first mismatch: with the fault at
    BAD_N, its per-length route is called for no longer length."""
    name, plant = _PLANTED[scope]
    planted = plant(getattr(verify, name))
    lengths = set()

    def recorded(n, *args):
        lengths.add(n)
        return planted(n, *args)

    monkeypatch.setattr(verify, name, recorded)
    results = run_checks(scope, BAD_N + 3)
    assert results and not any(r.passed for r in results)
    assert max(lengths) == BAD_N


# -- the one-to-one check of the compositions suite -----------------------------


def _twins():
    """Two strings of length BAD_N with the same bitsum and longest 0-run:
    each passes the per-string checks with the other's composition."""
    seen = {}
    for v in range(1 << BAD_N):
        r0, _, s = run_stats(v, BAD_N)
        if (r0, s) in seen:
            return seen[r0, s], v
        seen[r0, s] = v


def _swap(stream, a, b):
    stream[a], stream[b] = stream[b], stream[a]


def _duplicate(stream, a, b):
    stream[b] = stream[a]


@pytest.mark.parametrize("edit", [_swap, _duplicate], ids=["swap", "duplicate"])
def test_compositions_suite_reports_a_map_that_is_not_in_order(monkeypatch, edit):
    """Two strings that share their bitsum and longest 0-run, with their
    compositions swapped or one copied to both: every per-string check
    passes, and the one-to-one check names the length."""
    compositions = verify.compositions

    def planted(n):
        stream = list(compositions(n))
        if n == BAD_N:
            edit(stream, *_twins())
        return iter(stream)

    monkeypatch.setattr(verify, "compositions", planted)
    (r,) = run_checks("compositions", BAD_N + 2)
    assert r.passed is False, str(r)
    assert f"n={BAD_N}" in r.detail, str(r)


@pytest.mark.parametrize(
    "cut,seen",
    [
        (lambda stream: islice(stream, 1), 1),
        (lambda stream: list(stream)[:-1], (1 << BAD_N) - 1),
        (lambda stream: chain(stream, [(BAD_N + 1,)]), (1 << BAD_N) + 1),
    ],
    ids=["first-only", "last-dropped", "one-extra"],
)
def test_compositions_suite_counts_the_stream(monkeypatch, cut, seen):
    """A stream that ends early or runs past the last string passes every
    per-string and order check; the count names the length."""
    compositions = verify.compositions

    def planted(n):
        stream = compositions(n)
        return iter(cut(stream)) if n == BAD_N else stream

    monkeypatch.setattr(verify, "compositions", planted)
    (r,) = run_checks("compositions", BAD_N + 2)
    assert r.passed is False, str(r)
    assert r.detail == f"n={BAD_N}: {seen} compositions != 2^n {1 << BAD_N}", str(r)


#: Spawns `python -m bitruns.cli` with the given arguments and prints its
#: exit code and its peak RSS from wait4.  It runs in a process of its own
#: because a child spawned with a shared address space, as posix_spawn
#: does, starts with its parent's peak RSS, here the test runner's.
_RSS_PROBE = """
import os, sys
argv = [sys.executable, "-m", "bitruns.cli", *sys.argv[1:]]
out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=out)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mb(*argv):
    src = str(Path(verify.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    code, maxrss = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    return maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def test_compositions_suite_memory_does_not_grow_with_nmax():
    """The one-to-one check holds one composition, not every one of a
    length: 2^17 strings peak within 5 MB of 2^10."""
    small = _peak_rss_mb("verify", "--scope", "compositions", "--nmax", "10")
    large = _peak_rss_mb("verify", "--scope", "compositions", "--nmax", "17")
    assert abs(large - small) < 5, (small, large)
