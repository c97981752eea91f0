"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Deliberately outside the tier-1 ``testpaths`` so tier-1 time does not change.
Everything runs ``--quick`` (tiny sizes, half-second budgets).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = [sys.executable, str(ROOT / "perf" / "run.py"), "--quick"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT))
from perf.compare import NOT_EXACT  # noqa: E402


def run_one(workload: str, seed: int, traced: int, out: Path) -> dict:
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--trace",
               str(traced), "--out", str(out)],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One command, all five workloads, untraced and traced."""
    out = tmp_path_factory.mktemp("perf") / "run.json"
    start = time.monotonic()
    done = subprocess.run(RUN + ["--trace", "--out", str(out)],
                          capture_output=True, text=True)
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout, elapsed, out


def test_quick_run_is_quick(full_run):
    assert full_run[2] < 30


def test_every_metric_is_printed_with_unit_and_finite_value(full_run):
    run, stdout, __, __ = full_run
    for workload in WORKLOADS:
        for part, listed in (("end_to_end", SPEC["end_to_end"]),
                             ("per_layer", SPEC["per_layer"])):
            record = run["workloads"][workload][part]
            assert record["correct"] and not record["broken_guards"]
            assert list(record["metrics"]) == [m["name"] for m in listed]
            for metric in listed:
                entry = record["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert math.isfinite(entry["value"]), (workload, metric)
                assert any(line.startswith(workload)
                           and f" {metric['name']} " in line
                           and line.rstrip().endswith(metric["unit"])
                           for line in stdout.splitlines()), (workload, metric)


def test_end_to_end_metrics_are_never_zero(full_run):
    for workload in WORKLOADS:
        metrics = full_run[0]["workloads"][workload]["end_to_end"]["metrics"]
        assert all(entry["value"] > 0 for entry in metrics.values())


def test_trace_coverage_is_within_two_percent_of_one(full_run):
    for workload in WORKLOADS:
        layers = full_run[0]["workloads"][workload]["per_layer"]["metrics"]
        assert abs(layers["trace.coverage"]["value"] - 1) <= 0.02, workload


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_counts(full_run, workload, tmp_path):
    first = full_run[0]["workloads"][workload]["per_layer"]
    second = run_one(workload, first["seed"], 1, tmp_path / "again.json")
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if metric["unit"] == "count" and name not in NOT_EXACT:
            assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_passes_oracle_and_guards(full_run, workload, tmp_path):
    seed = full_run[0]["seed"] + 1
    record = run_one(workload, seed, 0, tmp_path / "other.json")
    assert record["correct"] and not record["broken_guards"]


def test_compare_finds_nothing_worse_in_a_run_against_itself(full_run):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "compare.py"),
         str(full_run[3]), str(full_run[3])], capture_output=True, text=True)
    # 2 = unresolved: --quick runs may accept too few rounds to resolve.
    assert done.returncode in (0, 2), done.stdout + done.stderr
    assert "COUNT MISMATCH" not in done.stdout
