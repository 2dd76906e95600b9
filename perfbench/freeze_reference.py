"""Freeze the oracle's reference values from the untransformed catalog.

Usage (from the repository root):

    python3 perfbench/freeze_reference.py

Writes perfbench/reference.json with, for every catalog scenario, the
records of ``rotquad compute --method all`` and of the identity suite, and
the three values of each homomorphism pair.  Every value computed by loop
and lift is cross-checked against the isotopy trace wherever
``synthesize_twist_trace`` gives one, and every identity record must pass;
otherwise nothing is written.  Takes about two minutes on 2 CPUs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (after the path set-up above)


def trace_mismatches(sc, records) -> list[str]:
    """Loop values that disagree with an independent trace value."""
    from rotquad import MarkedTuple, ScenarioError, rf_trace, synthesize_twist_trace

    values = {(r[0], r[1]): r[2] for r in records}
    bad = []
    for names in sc.tuples:
        if len(names) != 4:
            continue
        t = MarkedTuple(*sc.resolve(names))
        if t.classify() != "distinct":
            continue
        try:
            trace = synthesize_twist_trace(sc.map_spec, t, tol=sc.tolerances)
        except ScenarioError:
            continue
        want = 0 if trace is None else rf_trace(trace, sc.tolerances)
        label = "(" + ",".join(names) + ")"
        if values.get(("value[loop]", label)) != [str(want)]:
            bad.append(f"{sc.name} {label}: loop {values.get(('value[loop]', label))} trace {want}")
    return bad


def main() -> int:
    scenarios, pairs = workloads.build_catalog()
    by_name = {sc.name: sc for sc in scenarios}
    work = ROOT / ".perfbench_work" / "freeze"
    work.mkdir(parents=True, exist_ok=True)
    ref: dict = {"compute": {}, "suite": {}, "hom": {}}
    problems: list[str] = []
    try:
        # the benchmark's own ops, on the untransformed catalog
        ops = []
        for sc in scenarios:
            ops += [workloads.compute_op(sc, None, work / f"{sc.name}.json"),
                    workloads.suite_op(sc, None)]
        ops += [workloads.hom_op(pair, None) for pair in pairs]
        workloads.write_ops(ops, work / "ops.json")
        for op in workloads.read_ops(work / "ops.json"):
            result = workloads.call(op)
            kind = op["kind"]
            if kind == "hom":
                ref["hom"][op["pair"]] = list(result)
                verdict = workloads.check(op, result, None, ref)
                problems += [f"hom {op['pair']}: {verdict.detail}"] if verdict.failed else []
                continue
            if kind == "compute":
                if result != 0:
                    problems.append(f"compute {op['scenario']}: exit {result}")
                records = workloads.report_records(op["report"])
                problems += trace_mismatches(by_name[op["scenario"]], records)
            else:
                records = workloads.suite_records(result)
            problems += [f"{kind} {op['scenario']}: {r}" for r in records if r[3] != "pass"]
            ref[kind][op["scenario"]] = records
            print(f"froze {kind} {op['scenario']}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if problems:
        print("not frozen:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
