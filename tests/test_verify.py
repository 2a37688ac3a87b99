from collections import Counter

import pytest

from bitruns import verify
from bitruns.ensembles import DEFAULT_ORACLE_BOUND
from bitruns.errors import OracleBoundExceeded
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
    monkeypatch.setattr(verify, "to_composition", forbidden)
    for scope in available_scopes():
        with pytest.raises(OracleBoundExceeded):
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


def _plant_compositions(to_composition):
    def planted(v, n):
        parts = to_composition(v, n)
        return parts[:-1] + [parts[-1] + 1] if n == BAD_N else parts

    return planted


#: Each suite's route in verify, and a wrapper that makes it wrong at BAD_N.
_PLANTED = {
    "counts": ("count_gf", _plant_counts),
    "bitsums": ("bitsum_gfs", _plant_bitsums),
    "run-moments": ("run_variance_table", _plant_run_moments),
    "cross-run": ("cross_numerator", _plant_cross_run),
    "joint-dp": ("joint_table", _plant_joint_dp),
    "compositions": ("to_composition", _plant_compositions),
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
