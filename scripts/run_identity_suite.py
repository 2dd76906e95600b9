#!/usr/bin/env python3
"""Run the full verification battery and write the report.

Usage: python3 scripts/run_identity_suite.py [report.json]

Equivalent to `rotquad verify --out report.json`; exists so the battery
can be launched and archived with one command from a checkout.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rotquad.cli import main as cli_main  # noqa: E402


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "identity_report.json"
    return cli_main(["verify", "--out", out])


if __name__ == "__main__":
    raise SystemExit(main())
