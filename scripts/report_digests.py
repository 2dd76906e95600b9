#!/usr/bin/env python3
"""Print a SHA-256 digest of every report the command line writes.

Runs ``rotquad compute --method all --out`` on each ``scenarios/*.json`` and
``rotquad verify --out`` (the built-in battery) in a temporary directory,
using the ``src/`` tree next to this script, and prints one
``<sha256>  <report>`` line per report.  Reports are deterministic, so two
checkouts that should compute the same integers print identical lines:

    python3 scripts/report_digests.py > digests.txt

and diff the output of two checkouts.  Exits 1 if a command writes no report.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _report_digest(args, out: Path) -> str | None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ROTQUAD_SEED", None)
    subprocess.run([sys.executable, "-m", "rotquad", *args, "--out", str(out)],
                   env=env, stdout=subprocess.DEVNULL, check=False)
    if not out.is_file():
        return None
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main() -> int:
    runs = [(["compute", str(path), "--method", "all"], f"compute/{path.name}")
            for path in sorted((ROOT / "scenarios").glob("*.json"))]
    runs.append((["verify"], "verify.json"))
    missing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (args, label) in enumerate(runs):
            digest = _report_digest(args, Path(tmp) / f"{i}.json")
            if digest is None:
                print(f"no report written: {label}", file=sys.stderr)
                missing += 1
                continue
            print(f"{digest}  {label}", flush=True)
    return 1 if missing else 0


if __name__ == "__main__":
    raise SystemExit(main())
