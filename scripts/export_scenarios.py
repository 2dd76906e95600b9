#!/usr/bin/env python3
"""Write every catalog scenario to a directory as a JSON file.

Usage: python3 scripts/export_scenarios.py [outdir]   (default: scenarios/)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rotquad import save_scenario  # noqa: E402
from rotquad.catalog import identity_scenarios  # noqa: E402


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("scenarios")
    outdir.mkdir(parents=True, exist_ok=True)
    for sc in identity_scenarios():
        path = outdir / f"{sc.name}.json"
        save_scenario(sc, path)
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
