#!/usr/bin/env python3
"""Print a SHA-256 digest of every report the command line writes.

Runs ``rotquad compute --method all`` on each ``scenarios/*.json`` and
``rotquad verify`` (the built-in battery) in a temporary directory, using
the ``src/`` tree next to this script, with both ``--out`` and ``--csv``,
and prints one ``<sha256>  <report>`` line per written file (the JSON
report, then its CSV table).  The catalog scenarios hold no
mixed tuple, so one more scenario is written to the temporary directory
from ``catalog.sqrt2_blowup_spec()`` with points 0, infinity and 3 and the
four mixed patterns, and run once plainly and once with ``--extrapolate``;
its reports carry the blow-up estimates as ``repr`` floats.  Reports are
deterministic, so two checkouts that should compute the same values print
identical lines:

    python3 scripts/report_digests.py > digests.txt

and diff the output of two checkouts.  ``scripts/report_digests.txt`` holds
the expected lines; CI fails when the output differs from it:

    python3 scripts/report_digests.py | diff scripts/report_digests.txt -

A change that means to move a report regenerates that file with it.  Exits 1
if a command writes no report or no CSV table.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rotquad import INFINITY, Scenario, SpherePoint, save_scenario  # noqa: E402
from rotquad.catalog import sqrt2_blowup_spec  # noqa: E402


def _write_blowup_scenario(path: Path) -> None:
    points = {"q1": SpherePoint(0j), "q2": INFINITY, "q3": SpherePoint(3 + 0j)}
    tuples = (("q1", "q2", "q1", "q3"), ("q1", "q2", "q3", "q2"),
              ("q1", "q2", "q1", "q2"), ("q2", "q1", "q3", "q2"))
    save_scenario(Scenario("sqrt2-blowup", sqrt2_blowup_spec(), points, tuples), path)


def _report_digests(args, out: Path) -> tuple[str | None, str | None]:
    """Digests of the JSON report and the CSV table of one run (None if unwritten)."""
    table = out.with_suffix(".csv")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ROTQUAD_SEED", None)
    subprocess.run([sys.executable, "-m", "rotquad", *args, "--out", str(out), "--csv", str(table)],
                   env=env, stdout=subprocess.DEVNULL, check=False)
    return tuple(hashlib.sha256(f.read_bytes()).hexdigest() if f.is_file() else None
                 for f in (out, table))


def main() -> int:
    runs = [(["compute", str(path), "--method", "all"], f"compute/{path.name}")
            for path in sorted((ROOT / "scenarios").glob("*.json"))]
    runs.append((["verify"], "verify.json"))
    missing = 0
    with tempfile.TemporaryDirectory() as tmp:
        blowup = Path(tmp) / "sqrt2-blowup.json"
        _write_blowup_scenario(blowup)
        runs.append((["compute", str(blowup), "--method", "all"], "compute/sqrt2-blowup.json"))
        runs.append((["compute", str(blowup), "--method", "all", "--extrapolate"],
                     "compute/sqrt2-blowup-extrapolated.json"))
        for i, (args, label) in enumerate(runs):
            digests = _report_digests(args, Path(tmp) / f"{i}.json")
            for digest, name in zip(digests, (label, label.removesuffix(".json") + ".csv")):
                if digest is None:
                    print(f"no report written: {name}", file=sys.stderr)
                    missing += 1
                    continue
                print(f"{digest}  {name}", flush=True)
    return 1 if missing else 0


if __name__ == "__main__":
    raise SystemExit(main())
