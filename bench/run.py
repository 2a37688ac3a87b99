"""bitruns benchmark: one CLI workload, end to end or traced by layer.

    python3 bench/run.py --workload table1 --seed 3 --seconds 20 --trace 0

Runs from the repository root and imports the program from `src/`.  One
client in a closed loop starts one fresh `python -m bitruns.cli` process
at a time until `--seconds` have passed, and checks every output against
golden rows and the published digits (see bench/README.md).

With `--trace 0` it reports, as medians over the run's samples:
wall_s (spawn to exit), cpu_s (child user+sys from wait4), peak_rss_mb
(child ru_maxrss) and setup_s (a fresh `bitruns --version`).  With
`--trace 1` it alternates untraced runs with runs of bench/traced.py and
reports per-layer self times and exact work counts.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give quartiles, sample counts, fail_rate
and every failed check.  `--smoke` runs tiny inputs in a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    check_output,
    closed_forms,
    load_golden,
    sha256,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_SAMPLES = 3
MIN_TRACED = 2  # counts must repeat between two traced runs
SETUP_PER_SAMPLE = 3  # setup runs after each workload run, spread over the run
SETUP_SAMPLES = 15

#: Counts that must repeat exactly between traced runs.
EXACT_COUNTS = (
    "series.gf_expand.calls",
    "series.coeffs",
    "moments.hk_terms",
    "crossrun.pairs",
    "jointdp.cells",
    "ensembles.strings",
    "ensembles.members",
    "ensembles.enumerate_joint.calls",
    "ensembles.distinct",
    "render.calls",
)


#: What per_layer reports when no traced run completed.
NO_TRACE = {
    "counts": {},
    "self_s": {},
    "wall_s": 0.0,
    "hit_ratio": 0.0,
    "layer_bytes": 0,
    "unhooked": [],
    "stdout": "",
}


@dataclass
class Sample:
    exit: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn(cmd: list) -> Sample:
    """Run cmd to completion; wall time from spawn to exit, resource use
    of that child alone from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    proc.stderr.close()
    return Sample(
        exit=proc.returncode,
        stdout=out.decode("utf-8", "replace"),
        stderr=err[0].decode("utf-8", "replace"),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
    )


def cli_cmd(argv: list) -> list:
    return [sys.executable, "-m", "bitruns.cli", *argv]


def traced_cmd(argv: list) -> list:
    return [sys.executable, str(HERE / "traced.py"), *argv]


def median_q(values: list) -> tuple:
    """(median, first quartile, third quartile)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


class Run:
    """Samples and failures of one benchmark run."""

    def __init__(self, name: str, seed: int, smoke: bool, golden: dict):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.smoke = smoke
        self.golden = golden
        self.argv = self.workload.command(seed, smoke)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.label = ""  # kind of the latest recorded run
        self.last_failed = False

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        self.label = label
        self.last_failed = bool(problems)
        self.failed += self.last_failed
        self.problems += [f"{label} run {self.attempted}: {p}" for p in problems]

    def flag(self, problem: str) -> None:
        """Add a problem to the latest recorded run."""
        self.failed += not self.last_failed
        self.last_failed = True
        self.problems.append(f"{self.label} run {self.attempted}: {problem}")

    def untraced(self) -> Sample:
        s = spawn(cli_cmd(self.argv))
        problems = [f"exit {s.exit}: {s.stderr.strip()[-500:]}"] if s.exit else []
        problems += check_output(
            self.workload, self.argv, s.stdout, self.golden, self.seed, self.smoke
        )
        self.record("untraced", problems)
        return s

    def traced(self):
        s = spawn(traced_cmd(self.argv))
        try:
            doc = json.loads(s.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            self.record("traced", [f"exit {s.exit}: {s.stderr.strip()[-500:]}"])
            return s, None
        problems = [f"exit {doc['exit']}"] if doc["exit"] else []
        if Path(doc["source"]).resolve().parent.parent != SRC:
            problems.append(f"imported bitruns from {doc['source']}, not {SRC}")
        problems += check_output(
            self.workload, self.argv, doc["stdout"], self.golden, self.seed, self.smoke
        )
        self.record("traced", problems)
        return s, doc


def setup_sample(samples: list) -> None:
    s = spawn(cli_cmd(["--version"]))
    if s.exit or not s.stdout.strip():
        raise SystemExit(f"bench: bitruns --version failed (exit {s.exit}): {s.stderr}")
    samples.append(s.wall_s)


def end_to_end(run: Run, seconds: float) -> tuple:
    """(metrics, lines) for wall, cpu, RSS and setup time."""
    samples, setup = [], []
    setup_sample(setup)  # first start compiles bytecode; the median drops it
    least = 1 if run.smoke else MIN_SAMPLES
    deadline = time.perf_counter() + seconds
    while len(samples) < least or time.perf_counter() < deadline:
        samples.append(run.untraced())
        for _ in range(SETUP_PER_SAMPLE):
            setup_sample(setup)
    while len(setup) < (3 if run.smoke else SETUP_SAMPLES):
        setup_sample(setup)
    series = {
        "wall_s": ("s", [s.wall_s for s in samples]),
        "cpu_s": ("s", [s.cpu_s for s in samples]),
        "peak_rss_mb": ("MB", [s.peak_rss_mb for s in samples]),
        "setup_s": ("s", setup),
    }
    metrics, lines = {}, []
    for name, (unit, values) in series.items():
        med, q1, q3 = median_q(values)
        metrics[name] = {"value": med, "unit": unit}
        lines.append(
            f"{name:<12} {med:.6f} {unit}  q1 {q1:.6f}  q3 {q3:.6f}  n={len(values)}"
        )
    return metrics, lines


def per_layer(run: Run, seconds: float) -> tuple:
    """(metrics, lines) from alternating untraced and traced runs."""
    plain, traced, docs = [], [], []
    deadline = time.perf_counter() + seconds
    while len(plain) < MIN_TRACED or time.perf_counter() < deadline:
        u = run.untraced()
        t, doc = run.traced()
        plain.append(u.wall_s)
        if doc is None:
            continue  # already counted as a failure
        if sha256(doc["stdout"]) != sha256(u.stdout):
            run.flag("traced stdout differs from untraced stdout")
        if docs:
            changed = [
                k for k in EXACT_COUNTS if doc["counts"].get(k) != docs[0]["counts"].get(k)
            ]
            if changed:
                run.flag(f"counts differ from the first traced run: {changed}")
        docs.append(doc)
        traced.append(t.wall_s - doc["post_s"])
    lines = []
    if not docs:
        lines.append("no traced run completed; per-layer metrics read 0")
        docs.append(NO_TRACE)
        traced.append(0.0)
    first = docs[0]["counts"]
    if docs[0]["unhooked"]:
        lines.append(f"unhooked (reported as 0): {docs[0]['unhooked']}")

    def med(key):
        return statistics.median(d["self_s"].get(key, 0.0) for d in docs)

    def count(key):
        return first.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    wall = statistics.median(d["wall_s"] for d in docs)
    cli_self = statistics.median(
        d["wall_s"] - sum(d["self_s"].values()) for d in docs
    )
    values = {
        "series.gf_expand.calls": (count("series.gf_expand.calls"), "count"),
        "series.gf_expand.self_s": (med("series.gf_expand"), "s"),
        "series.coeffs": (count("series.coeffs"), "count"),
        "moments.moment_numerator.self_s": (med("moments.moment_numerator"), "s"),
        "moments.hk_terms": (count("moments.hk_terms"), "count"),
        "moments.numerator_cache.hit_ratio": (docs[0]["hit_ratio"], "ratio"),
        "moments.run_variance_report.self_s": (med("moments.run_variance_report"), "s"),
        "crossrun.cross_numerator.self_s": (med("crossrun.cross_numerator"), "s"),
        "crossrun.pairs": (count("crossrun.pairs"), "count"),
        "crossrun.report.self_s": (med("crossrun.report"), "s"),
        "jointdp.joint_table.self_s": (med("jointdp.joint_table"), "s"),
        "jointdp.joint_rs_report.self_s": (med("jointdp.joint_rs_report"), "s"),
        "jointdp.cells": (count("jointdp.cells"), "count"),
        "jointdp.layer_bytes": (docs[0]["layer_bytes"], "bytes_computed"),
        "ensembles.enumerate_joint.self_s": (med("ensembles.enumerate_joint"), "s"),
        "ensembles.strings": (count("ensembles.strings"), "count"),
        "ensembles.member_ratio": (
            ratio(count("ensembles.members"), count("ensembles.strings")),
            "ratio",
        ),
        "ensembles.distinct_ratio": (
            ratio(count("ensembles.distinct"), count("ensembles.enumerate_joint.calls")),
            "ratio",
        ),
        "verify.self_s": (med("verify"), "s"),
        "render.calls": (count("render.calls"), "count"),
        "render.self_s": (med("render"), "s"),
        "cli.self_s": (cli_self, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (
            statistics.median(traced) - statistics.median(plain),
            "s",
        ),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    for name, (v, unit) in values.items():
        lines.append(f"{name:<36} {v:.6g} {unit}")
    for key in sorted(docs[0]["self_s"]):
        lines.append(f"share {key:<30} {ratio(med(key), wall):7.2%} of traced wall")
    lines.append(f"share {'cli':<30} {ratio(cli_self, wall):7.2%} of traced wall")
    for name, want in closed_forms(run.workload, run.smoke).items():
        got = count(name)
        verdict = "==" if got == want else "!= (the algorithm changed)"
        lines.append(f"closed form {name}: counted {got} {verdict} {want}")
    lines.append(
        f"samples: {len(plain)} untraced, {len(docs)} traced; "
        f"stdout sha256 {sha256(docs[0]['stdout'])}"
    )
    return metrics, lines


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    golden: dict | None = None,
) -> dict:
    """One benchmark run; returns the result object and report lines."""
    run = Run(workload, seed, smoke, golden or load_golden())
    measure = per_layer if trace else end_to_end
    metrics, lines = measure(run, seconds)
    fail_rate = run.failed / run.attempted
    lines = [
        f"workload {workload} seed {seed} argv {' '.join(run.argv)}",
        *lines,
        f"{'fail_rate':<12} {fail_rate:.6f} ratio  ({run.failed}/{run.attempted})",
        *(f"FAILED {p}" for p in run.problems),
    ]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return {"result": result, "lines": lines, "fail_rate": fail_rate}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, a few seconds")
    args = p.parse_args(argv)
    if not (SRC / "bitruns" / "cli.py").is_file():
        print(f"bench: no bitruns source at {SRC / 'bitruns'}", file=sys.stderr)
        return 2
    report = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print("\n".join(report["lines"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
