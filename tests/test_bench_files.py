"""Every committed BENCH_<n>.json against BENCHMARK.json.

A benchmark file records a change's pairs of parent and change runs.  Its
claim must name a workload and an end-to-end metric that the benchmark
defines, and each workload it reports must be one of the benchmark's and
carry both sides' medians of every end-to-end metric.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_reports_the_benchmarks_metrics(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    claimed = bench["claimed"]
    assert claimed["workload"] in WORKLOADS
    assert claimed["metric"] in END_TO_END
    workloads = bench["workloads"]
    assert claimed["workload"] in workloads
    for name, workload in workloads.items():
        assert name in WORKLOADS
        for metric in END_TO_END:
            summary = workload["metrics"][metric]
            for side in ("parent_median", "change_median"):
                assert math.isfinite(summary[side]), (name, metric, side)
