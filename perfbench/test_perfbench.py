"""The benchmark's own tests.  Run from the repository root with

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small_ops(workdir: Path) -> list[dict]:
    """A few cheap ops that between them reach every layer."""
    scenarios, pairs = workloads.build_catalog()
    by_name = {sc.name: sc for sc in scenarios}
    rng = random.Random(7)
    ops = [
        next(workloads._gen_catalog_compute(rng, ([by_name["twist-by-1"]], pairs), workdir, 1)),
        workloads.blowup_op(rng, 0.3, 40, True),
        workloads.double_blowup_op(rng, 0.3),
        workloads._gen_gtable(rng),
        workloads._gen_hom(rng, pairs[0]),
    ]
    for i, op in enumerate(ops):
        op["id"] = i
    workloads.write_ops(ops, workdir / "ops.json")
    return workloads.read_ops(workdir / "ops.json")


def test_every_metric_is_printed_with_its_unit(tmp_path, capsys):
    ops = _small_ops(tmp_path)
    ref = workloads.load_reference()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run._run_ops(ops, ref, tracer)
    finally:
        tracer.uninstall()
    assert all(o["wrong"] == 0 and not o["failed"] for o in traced)

    metrics, _ = run.end_to_end(run._run_ops(ops, ref), [0.5, 0.4], 20.0)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    layers = tracing.layer_metrics(tracer)
    for names, values, unit in (
        (run.END_TO_END_UNITS, metrics, run.END_TO_END_UNITS.get),
        ([m["name"] for m in SPEC["per_layer"] if not m["name"].startswith("trace.")],
         layers, run.unit_of),
    ):
        lines = run.metric_lines({n: values[n] for n in names}, unit)
        for name, line in zip(names, lines):
            assert line.split() == [name, f"{values[name]:.6g}", unit(name)]

    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(declared) == set(run.JSON_END_TO_END)
    assert all(run.END_TO_END_UNITS[n] == u for n, u in declared.items())
    assert all(run.unit_of(m["name"]) == m["unit"] for m in SPEC["per_layer"])
    assert {m["name"] for m in SPEC["per_layer"]} == set(layers) | {
        "trace.traced_s", "trace.untraced_s", "trace.overhead_s", "trace.overhead_share"}


def test_oracle_trips_on_an_injected_wrong_reference(tmp_path, monkeypatch):
    ops = _small_ops(tmp_path)
    ref = workloads.load_reference()
    outcomes = run._run_ops(ops, ref)
    assert [o["wrong"] for o in outcomes] == [0] * len(ops)

    bad = copy.deepcopy(ref)
    for record in bad["compute"]["twist-by-1"]:
        if record[0] == "value[loop]":
            record[2] = ["99"]
    bad["hom"][ops[4]["pair"]][0] += 1
    ops[1]["expect"] += 0.2  # beyond the 2/n bound for n = 40
    ops[2]["expect"] += 0.01
    ops[3]["delta"] = 0  # an unchanged "perturbed" table must not pass as detected
    wrong = run._run_ops(ops, bad)
    assert all(o["wrong"] > 0 and o["failed"] for o in wrong), wrong

    # one method going wrong: the command writes its report and exits non-zero
    import rotquad.cli as cli

    real_trace = cli.rf_trace
    monkeypatch.setattr(cli, "rf_trace", lambda *a, **k: real_trace(*a, **k) + 1)
    code = workloads.call(ops[0])
    assert code != 0
    verdict = workloads.check(ops[0], code, None, ref)
    assert verdict.wrong > 0 and verdict.failed, verdict.detail


def test_one_seed_reproduces_an_identical_op_list(tmp_path):
    catalog = workloads.build_catalog()
    for workload in workloads.WORKLOADS:
        lists = []
        for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
            workdir = tmp_path / workload / sub
            workdir.mkdir(parents=True)
            ops = workloads.generate(workload, seed, 1, workdir, catalog)
            files = sorted(p.read_text() for p in workdir.iterdir())
            lists.append((json.dumps(ops).replace(str(workdir), ""), files))
        assert lists[0] == lists[1]
        assert lists[0] != lists[2]
