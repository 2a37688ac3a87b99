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
