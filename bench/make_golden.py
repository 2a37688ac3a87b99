"""Record golden output rows for every workload into bench/golden.json.

    python3 bench/make_golden.py

Runs each workload once at full size with the default seed and stores
the header, the rows keyed by their first field and the SHA-256 of the
whole stdout.  Golden rows pin a program's output; record them only
from a commit whose output is known to be right, and never to make a
changed output pass.
"""

from __future__ import annotations

import json
import sys

from run import cli_cmd, spawn
from workloads import DEFAULT_SEED, GOLDEN_PATH, WORKLOADS, parse_rows, sha256


def main() -> int:
    golden = {}
    for name, workload in WORKLOADS.items():
        s = spawn(cli_cmd(workload.command(DEFAULT_SEED)))
        if s.exit:
            print(f"{name}: exit {s.exit}\n{s.stderr}", file=sys.stderr)
            return 1
        header, rows = parse_rows(s.stdout)
        by_key = dict(rows)
        if workload.lengths:
            by_key = {str(n): by_key[str(n)] for n in sorted(workload.lengths)}
        golden[name] = {
            "header": header,
            "rows": by_key,
            "stdout_sha256": sha256(s.stdout),
        }
        print(f"{name}: {len(rows)} rows, {s.wall_s:.2f} s")
    GOLDEN_PATH.write_text(dump(golden), encoding="utf-8")
    return 0


def dump(golden: dict) -> str:
    """JSON with one line per golden row, so a diff shows which row moved."""
    parts = []
    for name, entry in golden.items():
        rows = ",\n".join(
            f"   {json.dumps(k)}: {json.dumps(v)}" for k, v in entry["rows"].items()
        )
        parts.append(
            f" {json.dumps(name)}: {{\n"
            f"  \"header\": {json.dumps(entry['header'])},\n"
            f"  \"rows\": {{\n{rows}\n  }},\n"
            f"  \"stdout_sha256\": {json.dumps(entry['stdout_sha256'])}\n }}"
        )
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
