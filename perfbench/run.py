#!/usr/bin/env python3
"""The rotquad benchmark: one command, three seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload catalog-compute --seed 1 --seconds 20 --trace 0

Each workload runs as a closed loop: one process, one thread, one op at a
time.  The run is a whole number of rounds of the workload's op mix (see
workloads.py); the number of rounds is ``--seconds`` divided by the round
time measured when the benchmark was defined, so at that commit a run
measures about ``--seconds`` of ops, and every later commit runs the same
ops.  Every op's output is checked against frozen reference values.  Op
and set-up times are adjusted to a reference machine speed (see
REFERENCE_KERNEL_S).

With ``--trace 0`` the command prints the end-to-end metrics, one per line
with its unit, and then one JSON line with the metrics named in
BENCHMARK.json.  ``failed_ratio`` and ``wrong_values`` are printed too; in
the JSON line they are the ``failed`` and ``correct`` fields.  With
``--trace 1`` it runs half the rounds without tracing and the same ops again
in a separate, traced process, and prints every per-layer metric (see
README.md), the tracing overhead and the share of traced time no span
covers.  The spans are written to .perfbench_work/trace-<workload>-seed<n>.json.

Exit status: 0 when every value was right, 1 when a value was wrong or the
run could not complete, 2 on bad arguments.

Work is done in worker processes that this script starts and waits for:
``setup`` workers only time the set-up (import, catalog construction,
generating, writing and reading back the inputs), a ``measure`` worker also
runs the ops, and a ``trace`` worker runs them with spans recorded.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"

sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402  (the bench dir is sys.path[0])
import workloads  # noqa: E402

# Seconds one round of each workload took at the commit that defined the
# benchmark (2 CPUs, Python 3.11).  Fixed here so that a faster commit runs
# the same ops as its parent rather than more of them.
NOMINAL_ROUND_S = {
    "catalog-compute": 11.8,
    "identity-verify": 15.0,
    "blowup-sweep": 5.0,
}

# Ops in the same place of different rounds cost about the same, so op
# latencies come in clusters.  With three rounds each cluster has three
# members and the median and tail quantiles fall inside a cluster rather
# than jumping between neighbouring ones from run to run.  A blowup-sweep
# cell alternates its extrapolation flag from round to round, which changes
# its cost by about half, so that workload needs six rounds for clusters of
# three.
MIN_ROUNDS = {"catalog-compute": 3, "identity-verify": 3, "blowup-sweep": 6}

# set-up is timed in this many processes besides the measuring one
SETUP_WORKERS = 10

# The shared 2-vCPU machine this benchmark was defined on ran the same
# pure-Python work up to 2x slower from one second to the next, so raw
# blowup-sweep throughput spread by 36% over five seeds.  Every time is
# therefore adjusted to a reference machine speed: the measuring process
# times a fixed kernel between ops, and an op's time is multiplied by
# REFERENCE_KERNEL_S over the mean kernel time just before and just after
# it (README.md gives the spreads measured this way).  The kernel runs no
# library code and allocates nothing the garbage collector tracks, so the
# program under test cannot change its speed.
KERNEL_STEPS = 60_000
REFERENCE_KERNEL_S = 0.020

# the whole command must end within 180 s
DEADLINE_S = 170.0

# a tail percentile is reported only with at least this many samples beyond it
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
    "wrong_values": "count",
}
# failed_ratio and wrong_values are 0 on a correct commit; the JSON line
# carries them as its failed and correct fields instead of as metrics
JSON_END_TO_END = ("ops_per_s", "cpu_ms_per_op", "op_p50_ms", "op_tail_ms",
                   "setup_s", "peak_rss_mb")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_us_per_pt"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_per_value"):
        return "count/value"
    return "count"


def rounds_for(workload: str, seconds: float, minimum: int = 1) -> int:
    return max(minimum, round(seconds / NOMINAL_ROUND_S[workload]))


# ---------------------------------------------------------------------------
# workers


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def speed_kernel() -> float:
    """Seconds taken by a fixed amount of pure-Python complex arithmetic."""
    t0 = time.perf_counter()
    z = 0.3 + 0.4j
    rot = cmath.exp(0.001j)
    acc = 0.0
    for _ in range(KERNEL_STEPS):
        z = z * rot + 1e-6
        acc += abs(z) + math.atan2(z.imag, z.real)
    return time.perf_counter() - t0


def _speed_scale(kernel_before: float, kernel_after: float) -> float:
    return REFERENCE_KERNEL_S / ((kernel_before + kernel_after) / 2)


def _setup(workload: str, seed: int, rounds: int, workdir: Path) -> list[dict]:
    """Build the catalog, generate and write the inputs, read them back."""
    workdir.mkdir(parents=True, exist_ok=True)
    catalog = workloads.build_catalog()
    ops = workloads.generate(workload, seed, rounds, workdir, catalog)
    workloads.write_ops(ops, workdir / "ops.json")
    return workloads.read_ops(workdir / "ops.json")


def _run_ops(ops, ref, tracer=None) -> list[dict]:
    gc.collect()
    outcomes = []
    kernel_before = speed_kernel()
    for op in ops:
        span = None
        if tracer is not None:
            tracer.op = op["id"]
            span = tracer.open(tracing.OP_SPAN, "bench")
        c0 = time.process_time()
        t0 = time.perf_counter()
        result, error = None, None
        try:
            result = workloads.call(op)
        except Exception as exc:  # a raising op is counted as failed, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.process_time()
        if span is not None:
            tracer.close(span)
            tracer.op = None
        verdict = workloads.check(op, result, error, ref)
        kernel_after = speed_kernel()
        outcomes.append({"id": op["id"], "kind": op["kind"], "wall": t1 - t0, "cpu": c1 - c0,
                         "scale": _speed_scale(kernel_before, kernel_after),
                         "wrong": verdict.wrong, "failed": verdict.failed,
                         "detail": verdict.detail})
        kernel_before = kernel_after
    return outcomes


def worker(args) -> int:
    workdir = Path(args.workdir)
    kernel_before = speed_kernel()
    t0 = time.perf_counter()
    if args.worker == "trace":
        tracer = tracing.Tracer()
        tracer.install()
        span = tracer.open("setup", "bench")
        ops = _setup(args.workload, args.seed, args.rounds, workdir)
        tracer.close(span)
    else:
        tracer = None
        import rotquad  # noqa: F401  (import time is part of set-up)

        ops = _setup(args.workload, args.seed, args.rounds, workdir)
    setup_s = time.perf_counter() - t0
    setup_s *= _speed_scale(kernel_before, speed_kernel())
    if args.worker == "setup":
        _emit({"setup_s": setup_s})
        return 0

    ref = workloads.load_reference()
    outcomes = _run_ops(ops, ref, tracer)
    out = {"setup_s": setup_s, "ops": outcomes,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracing.layer_metrics(tracer)
        tracer.write(args.trace_file)
    _emit(out)
    return 0


# ---------------------------------------------------------------------------
# the command


class BenchError(RuntimeError):
    pass


def _spawn(role: str, args, rounds: int, workdir: Path, deadline: float, **extra) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--rounds", str(rounds), "--workdir", str(workdir)]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    # the library reads its seed from ROTQUAD_SEED when set; inputs carry theirs
    env = {k: v for k, v in os.environ.items() if k != "ROTQUAD_SEED"}
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before the next worker")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} worker ran out of time") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{role} worker exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value, percentile and samples beyond, for the highest percentile
    that still has TAIL_BEYOND samples beyond it (the maximum if none has)."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def end_to_end(outcomes: list[dict], setup_samples: list[float], peak_rss_mb: float):
    """The eight end-to-end metrics, and the tail's percentile and samples beyond.

    Op and set-up times are adjusted to the reference machine speed.
    """
    n = len(outcomes)
    walls = [o["wall"] * o["scale"] for o in outcomes]
    tail_s, pct, beyond = tail(walls)
    return {
        "ops_per_s": n / sum(walls),
        "cpu_ms_per_op": 1000.0 * sum(o["cpu"] * o["scale"] for o in outcomes) / n,
        "op_p50_ms": 1000.0 * statistics.median(walls),
        "op_tail_ms": 1000.0 * tail_s,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "failed_ratio": sum(o["failed"] for o in outcomes) / n,
        "wrong_values": sum(o["wrong"] for o in outcomes),
    }, (pct, beyond)


def _result_line(outcomes, metrics: dict, units) -> dict:
    return {
        "correct": sum(o["wrong"] for o in outcomes) == 0,
        "attempted": len(outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": units(name)} for name in metrics},
    }


def metric_lines(metrics: dict, unit, notes: dict | None = None) -> list[str]:
    notes = notes or {}
    return [f"  {name:<32} {value:.6g} {unit(name)}{notes.get(name, '')}"
            for name, value in metrics.items()]


def _report_failures(outcomes) -> None:
    bad = [o for o in outcomes if o["failed"]]
    for o in bad[:10]:
        print(f"op {o['id']} ({o['kind']}) {'WRONG' if o['wrong'] else 'FAILED'}: "
              f"{o['detail'][:500]}", file=sys.stderr)
    if len(bad) > 10:
        print(f"... and {len(bad) - 10} more failed ops", file=sys.stderr)


def run_plain(args, workdir: Path, deadline: float) -> list[dict]:
    rounds = rounds_for(args.workload, args.seconds, MIN_ROUNDS[args.workload])
    setup_samples = [
        _spawn("setup", args, rounds, workdir / f"setup{i}", deadline)["setup_s"]
        for i in range(SETUP_WORKERS)
    ]
    res = _spawn("measure", args, rounds, workdir / "measure", deadline)
    outcomes = res["ops"]
    setup_samples.append(res["setup_s"])
    metrics, (pct, beyond) = end_to_end(outcomes, setup_samples, res["peak_rss_mb"])
    print(f"workload {args.workload}, seed {args.seed}: {len(outcomes)} ops in {rounds} "
          f"rounds, {metrics['failed_ratio'] * len(outcomes):.0f} failed")
    note = {"op_tail_ms": f"  (p{pct:.1f}, {beyond} of {len(outcomes)} ops beyond)"}
    print("\n".join(metric_lines(metrics, END_TO_END_UNITS.get, note)))
    print(f"  times above are at the reference speed; median speed scale "
          f"{statistics.median(o['scale'] for o in outcomes):.3f}, unadjusted ops_per_s "
          f"{len(outcomes) / sum(o['wall'] for o in outcomes):.6g}")
    _report_failures(outcomes)
    json_metrics = {name: metrics[name] for name in JSON_END_TO_END}
    _emit(_result_line(outcomes, json_metrics, END_TO_END_UNITS.get))
    return outcomes


def run_traced(args, workdir: Path, deadline: float) -> list[dict]:
    rounds = rounds_for(args.workload, args.seconds / 2)
    plain = _spawn("measure", args, rounds, workdir / "plain", deadline)
    WORK_ROOT.mkdir(exist_ok=True)
    trace_file = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
    traced = _spawn("trace", args, rounds, workdir / "traced", deadline, trace_file=trace_file)
    outcomes = plain["ops"] + traced["ops"]
    layers = traced["layers"]
    untraced_s, traced_s = (sum(o["wall"] * o["scale"] for o in run["ops"])
                            for run in (plain, traced))
    layers["trace.untraced_s"] = untraced_s
    layers["trace.traced_s"] = traced_s
    layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    top = max(tracing.LAYERS, key=lambda layer: layers[f"{layer}.self_s"])
    print(f"workload {args.workload}, seed {args.seed}: {len(plain['ops'])} ops traced; "
          f"largest self time: {top}; spans in {trace_file.relative_to(ROOT)}")
    print("\n".join(metric_lines(layers, unit_of)))
    _report_failures(outcomes)
    _emit(_result_line(outcomes, layers, unit_of))
    return outcomes


def parse_args(argv):
    p = argparse.ArgumentParser(description="rotquad benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # worker-process arguments, set by this script for its own workers
    p.add_argument("--worker", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    p.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    p.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0 or not math.isfinite(args.seconds):
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    if not (ROOT / "src" / "rotquad" / "__init__.py").is_file():
        print(f"error: no rotquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        outcomes = (run_traced if args.trace else run_plain)(args, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(o["wrong"] == 0 for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
