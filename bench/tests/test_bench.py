"""Smoke test of the benchmark itself, at tiny inputs.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    closed_forms,
    load_golden,
    matches_published,
)

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def smoke(request):
    name = request.param
    return (
        name,
        run.run_benchmark(name, 0, 0, trace=False, smoke=True),
        run.run_benchmark(name, 0, 0, trace=True, smoke=True),
    )


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_every_metric_is_emitted_with_its_unit(smoke):
    _, plain, traced = smoke
    for report, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        result = report["result"]
        assert result["correct"], report["lines"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(kind)
    assert plain["fail_rate"] == 0
    assert any(line.startswith("fail_rate") for line in plain["lines"])


def test_counts_equal_their_closed_forms(smoke):
    name, _, traced = smoke
    metrics = traced["result"]["metrics"]
    for metric, want in closed_forms(WORKLOADS[name], smoke=True).items():
        assert metrics[metric]["value"] == want, metric


def test_traced_stdout_is_byte_identical():
    argv = WORKLOADS["table2"].command(7, smoke=True)
    plain = run.spawn(run.cli_cmd(argv))
    traced = run.spawn(run.traced_cmd(argv))
    doc = json.loads(traced.stdout.splitlines()[-1])
    assert plain.exit == 0 and doc["exit"] == 0
    assert run.sha256(doc["stdout"]) == run.sha256(plain.stdout)


def test_corrupted_golden_row_fails_every_run():
    golden = copy.deepcopy(load_golden())
    row = golden["table1"]["rows"]["10"]
    row[1] = row[1][:-1] + ("1" if row[1][-1] != "1" else "2")
    for trace in (False, True):
        report = run.run_benchmark("table1", 0, 0, trace, smoke=True, golden=golden)
        assert report["fail_rate"] == 1
        assert not report["result"]["correct"]
        assert any(line.startswith("FAILED") for line in report["lines"])


def test_seed_shuffles_lengths_only():
    for w in WORKLOADS.values():
        a, b = w.command(1), w.command(2)
        if not w.lengths:
            assert a == b
            continue
        i = a.index("--lengths")
        assert a[:i] == b[:i] == list(w.argv)
        assert sorted(map(int, a[i + 1].split(","))) == sorted(w.lengths)
        assert sorted(map(int, b[i + 1].split(","))) == sorted(w.lengths)


def test_published_rule():
    assert matches_published("-0.3836830057", "-0.383683")
    assert not matches_published("-0.3836840057", "-0.383683")
    # a published truncation toward zero is accepted
    assert matches_published("-0.0965509000", "-0.096550")
    for garbage in ("", "nan", "-", "x"):
        assert not matches_published(garbage, "-0.096550")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
