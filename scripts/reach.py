#!/usr/bin/env python3
"""List every function of the package that the command line never enters.

Runs, in this one process and under ``sys.setprofile``, the traffic that
the command line and the CI scripts make:

  - ``rotquad verify`` (the built-in battery);
  - ``rotquad compute --method all`` and ``rotquad verify`` on each
    ``scenarios/*.json``;
  - ``rotquad rep --perm "(12)(34)"``;
  - ``report_digests.py``'s sqrt2-blowup scenario, plainly and with
    ``--extrapolate``;
  - ``rf_demo.py``, ``run_identity_suite.py`` and ``export_scenarios.py``.

Every ``def`` in ``src/rotquad`` is keyed by its qualified name, read off
the source with ``ast`` (``Class.method``, ``outer.<locals>.inner``).
A function that no call entered is printed as ``module:qualname``, unless
``KEPT`` names it with the reason it stays.  Usage:

    python3 scripts/reach.py

Exits 1 when some function outside ``KEPT`` is never entered, when a
``KEPT`` entry is entered after all, or when a ``KEPT`` entry names no
function; 0 otherwise.  Uses the ``src/`` tree next to this script.
"""

import ast
import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rotquad"

# module:qualname -> why the function stays although no command enters it
KEPT = {
    # names perfbench's tracer wraps, and the codec its g-table ops use
    "maps:eval_map": "a perfbench tracer leaf; point evaluation on SpherePoints",
    "maps:fixed_residual": "a perfbench tracer leaf",
    "maps:rigid_rotation_angle": "a perfbench tracer leaf; the exact germ angle",
    "scenario:g_to_json": "perfbench's g-table ops are written with it",
    "scenario:g_from_json": "perfbench's g-table ops are read with it",
    # the pairing oracle: acceptance criterion 9, and tests/test_trace_reference.py's reference
    "intersection:signed_crossing_sum": "the pairing oracle of acceptance criterion 9",
    "intersection:loop_class": "the pairing oracle; a perfbench tracer span",
    "geometry:segment_crossing": "the pairing oracle's crossing sign",
    "geometry:_cross": "the pairing oracle's crossing sign",
    "geometry:_within_span": "the pairing oracle's crossing sign",
    "geometry:winding_number": "the pairing oracle; a perfbench tracer span",
    # owned by open ROADMAP items
    "invariant:rf_periodic": "ROADMAP item 12: periodic points as rational values",
    "invariant:concatenate_traces": "ROADMAP item 24: one trace for every spec",
    "maps:iterate_spec": "a perfbench tracer span; rf_periodic's power",
    "maps:_repeat_step": "ROADMAP item 7: maps that do not reduce",
    "maps:_repeat_step.<locals>.step": "ROADMAP item 7, with _repeat_step",
    # the limit of a blow-up of a map that does not reduce: no command or
    # workload makes one (ROADMAP item 1 adds one to the benchmark)
    "invariant:_refined_limit": "the blow-up limit of a map that does not reduce",
    "maps:_rigid_radius": "the certified rigid radius of such a blow-up's germ",
    "maps:_rigid_radius.<locals>.certified": "with _rigid_radius",
    # a table's values made on first read: no command reads a built table's values
    "algebra:FunctionTable.__getattr__": "makes a column-built table's values on first read",
    # error and repr helpers: no passing run raises or prints them
    "errors:NotFixed.__init__": "the error a moved declared point raises",
    "geometry:_non_finite": "the error a non-finite coordinate raises",
    "geometry:SpherePoint.__repr__": "the repr in error messages",
}


def definitions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of every def in the package -> "module:qualname".

    The first line is the code object's: that of the first decorator, if
    any.  With the name, a lambda or comprehension on that line is no match.
    """
    found = {}

    def visit(node, prefix, module, filename):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(filename, first, child.name)] = f"{module}:{qualname}"
                visit(child, qualname + ".<locals>.", module, filename)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", module, filename)
            else:
                visit(child, prefix, module, filename)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path.stem, str(path))
    return found


def traffic(tmp: Path) -> None:
    """The command-line and CI-script calls, run in this process."""
    from rotquad.cli import main

    def cli(*args):
        out = tmp / "report.json"
        main([*args, "--out", str(out), "--csv", str(out.with_suffix(".csv"))])

    def script(name, *argv):
        saved = sys.argv
        sys.argv = [name, *argv]
        try:
            runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
        except SystemExit:
            pass
        finally:
            sys.argv = saved

    cli("verify")
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        cli("compute", str(path), "--method", "all")
        cli("verify", str(path))
    main(["rep", "--perm", "(12)(34)"])
    digests = runpy.run_path(str(ROOT / "scripts" / "report_digests.py"))
    blowup = tmp / "sqrt2-blowup.json"
    digests["_write_blowup_scenario"](blowup)
    cli("compute", str(blowup), "--method", "all")
    cli("compute", str(blowup), "--method", "all", "--extrapolate")
    script("rf_demo.py")
    script("run_identity_suite.py", str(tmp / "identity_report.json"))
    script("export_scenarios.py", str(tmp / "scenarios"))


def main() -> int:
    defs = definitions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            traffic(Path(tmp))
        finally:
            sys.setprofile(None)
    reached = {defs[key] for key in ((c.co_filename, c.co_firstlineno, c.co_name)
                                     for c in entered) if key in defs}

    unreached = sorted(set(defs.values()) - reached - KEPT.keys())
    kept_reached = sorted(KEPT.keys() & reached)
    kept_missing = sorted(KEPT.keys() - set(defs.values()))
    for name in unreached:
        print(f"unreached: {name}")
    for name in kept_reached:
        print(f"KEPT but reached: {name}")
    for name in kept_missing:
        print(f"KEPT but no such function: {name}")
    print(f"{len(reached)} of {len(defs)} functions reached, {len(KEPT)} kept")
    return 1 if unreached or kept_reached or kept_missing else 0


if __name__ == "__main__":
    raise SystemExit(main())
