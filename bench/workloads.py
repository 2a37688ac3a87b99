"""The benchmark's workloads, their inputs and the checks on their output.

Each workload is one `bitruns` CLI command.  The seed only shuffles the
order of the command's `--lengths`; golden rows are keyed by n, so any
order is checked.  Golden rows were recorded from the program with
`bench/make_golden.py`; the published digits below are copied from the
source paper's Table 1 and Table 2.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from decimal import ROUND_DOWN, Decimal, InvalidOperation
from math import comb
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: The seed whose stdout SHA-256 is pinned in golden.json.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # CLI arguments before --lengths
    lengths: tuple  # full-size --lengths; empty for commands without it
    smoke_lengths: tuple
    smoke_argv: tuple = ()  # replaces argv in smoke mode when given

    def command(self, seed: int, smoke: bool = False) -> list:
        """CLI arguments for one run; the seed shuffles --lengths only."""
        argv = list(self.smoke_argv if smoke and self.smoke_argv else self.argv)
        lengths = list(self.smoke_lengths if smoke else self.lengths)
        if lengths:
            random.Random(seed).shuffle(lengths)
            argv += ["--lengths", ",".join(map(str, lengths))]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "moments-sweep",
            ("moments", "--class", "multus", "--bit", "1"),
            tuple(range(30, 301, 30)),
            (30, 60),
        ),
        Workload(
            "table1",
            ("table1", "--precision", "10"),
            (10, 20, 30, 40, 50, 60, 70),
            (10, 20),
        ),
        Workload(
            "table2",
            ("table2", "--precision", "10"),
            (10, 20, 50, 100, 200),
            (10, 20),
        ),
        Workload(
            "verify",
            ("verify", "--scope", "all", "--nmax", "13"),
            (),
            (),
            smoke_argv=("verify", "--scope", "all", "--nmax", "6"),
        ),
    )
}

# Published correlations, six places: (unconstrained, second column).
# Table 1 pairs the unconstrained and multus classes, Table 2 the
# unconstrained and solus classes.
PUBLISHED = {
    "table1": {
        10: ("-0.383683", "-0.443900"),
        20: ("-0.225906", "-0.256080"),
        30: ("-0.165175", "-0.187941"),
        40: ("-0.132345", "-0.151033"),
        50: ("-0.111286", "-0.127411"),
        60: ("-0.096550", "-0.110810"),
        70: ("-0.085616", "-0.098434"),
    },
    "table2": {
        10: ("-0.752444", "-0.796825"),
        20: ("-0.654958", "-0.728540"),
        50: ("-0.530128", "-0.616674"),
        100: ("-0.441772", "-0.525562"),
        200: ("-0.361888", "-0.437637"),
    },
}


def matches_published(printed: str, published: str) -> bool:
    """The acceptance rule: |error| <= 5e-7, or the published entry is
    the 6-place truncation.  `printed` carries 10 places, so it stands
    for the exact value to within 5e-11."""
    try:
        value, ref = Decimal(printed), Decimal(published)
    except InvalidOperation:
        return False
    if not value.is_finite():
        return False
    if abs(value - ref) <= Decimal("5e-7"):
        return True
    return value.quantize(Decimal("1e-6"), rounding=ROUND_DOWN) == ref


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def parse_rows(stdout: str) -> tuple:
    """(header fields, [(key, fields)]) of a plain-format CLI table.

    The last column may hold spaces (verify's detail), so a row splits
    into at most as many fields as the header has."""
    lines = stdout.splitlines()
    if not lines:
        return [], []
    header = lines[0].split()
    rows = []
    for line in lines[1:]:
        fields = line.split(None, max(len(header) - 1, 0))
        rows.append((fields[0] if fields else "", fields))
    return header, rows


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_output(
    workload: Workload, argv: list, stdout: str, golden: dict, seed: int, smoke: bool
) -> list:
    """Every way this stdout differs from golden rows and published digits."""
    want = golden[workload.name]
    header, rows = parse_rows(stdout)
    problems = []
    if header != want["header"]:
        problems.append(f"header {header} != {want['header']}")
    keys = [k for k, _ in rows]
    if "--lengths" in argv:
        expected_keys = argv[argv.index("--lengths") + 1].split(",")
    else:
        expected_keys = list(want["rows"])
    if keys != expected_keys:
        problems.append(f"row keys {keys} != {expected_keys}")
    for key, fields in rows:
        golden_fields = want["rows"].get(key)
        if fields != golden_fields:
            problems.append(f"row {key}: {fields} != golden {golden_fields}")
    for key, fields in rows:
        published = PUBLISHED.get(workload.name, {}).get(int(key) if key.isdigit() else None)
        if published is None:
            continue
        for col, ref in enumerate(published, start=1):
            printed = fields[col] if col < len(fields) else ""
            if not matches_published(printed, ref):
                problems.append(
                    f"n={key} {want['header'][col]}: {printed!r} misses published {ref}"
                )
    if not smoke and seed == DEFAULT_SEED and sha256(stdout) != want["stdout_sha256"]:
        problems.append(f"stdout sha256 {sha256(stdout)} != {want['stdout_sha256']}")
    return problems


def closed_forms(workload: Workload, smoke: bool = False) -> dict:
    """Exact work counts of the algorithms at commit 363a1de, from the inputs.

    moments: every moment order m = 1..4 sums n + 2 telescoping H_k terms.
    crossrun: one (i, j) pair per 1 <= i, j <= order + 1, per class.
    jointdp: layers 0..N of (n+1)(n+2)/2 entries each, per class.
    """
    lengths = workload.smoke_lengths if smoke else workload.lengths
    if workload.name == "moments-sweep":
        return {"moments.hk_terms": 4 * sum(n + 2 for n in lengths)}
    if workload.name == "table1":
        return {"crossrun.pairs": 2 * (max(lengths) + 1) ** 2}
    if workload.name == "table2":
        return {"jointdp.cells": 2 * comb(max(lengths) + 3, 3)}
    return {}
