"""Every committed ``BENCH_*.json`` follows the benchmark's protocol.

A perf change commits one such file from ``bench/run.py``: ten or more
alternating before/after pairs per workload, each run on one seed for both
sides, every run correct with no failed operation, and only the workloads
and end-to-end metrics that ``BENCHMARK.json`` declares.  These checks read
``BENCHMARK.json`` and the BENCH files and write nothing.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
METRICS = {m["name"] for m in DECLARED["end_to_end"]}
RUN_FIELDS = {"workload", "seed", "side", "correct", "attempted", "failed"}
PAIRS = 10


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_follows_the_protocol(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    runs = doc["runs"]
    assert {r["workload"] for r in runs} <= WORKLOADS
    for run in runs:
        assert run["correct"] is True and run["failed"] == 0, run
        assert run["side"] in ("before", "after")
        assert set(run) - RUN_FIELDS <= METRICS, run
    sides = Counter((r["workload"], r["side"]) for r in runs)
    for workload in {r["workload"] for r in runs}:
        assert sides[workload, "before"] >= PAIRS and sides[workload, "after"] >= PAIRS
        # each seed is one pair: a before and an after run
        seeds = {side: sorted(r["seed"] for r in runs
                              if r["workload"] == workload and r["side"] == side)
                 for side in ("before", "after")}
        assert seeds["before"] == seeds["after"]
    assert set(doc["summary"]) <= WORKLOADS
    for workload, metrics in doc["summary"].items():
        assert set(metrics) <= METRICS


def test_there_is_a_bench_file():
    assert list(ROOT.glob("BENCH_*.json"))
