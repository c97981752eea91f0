#!/usr/bin/env python3
"""Compare two runs of the benchmark within its own bounds.

    python3 perf/compare.py A.json B.json

A and B are files written by ``perf/run.py --out``; A is the base.  One row
per (workload, end-to-end metric) says whether B is better, same, worse or
unresolved against the bound ``BENCHMARK.json`` fixes for that metric, and
gives the ratio B/A with its base.  A workload either side marked ``noisy``
(too few rounds passed the noise sentinel) is unresolved, never a regression
or a pass: re-run it.  When both runs carry a traced part for the same seed,
every per-layer *count* must match exactly.

Exit code: 1 if any cell is worse, any op failed or a count differs; 2 if
nothing is worse but something is unresolved; 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]

#: Counts that legitimately differ between two runs of one program: the
#: engine's own ``ScanStats.WARMTH_FIELDS`` (cache warmth, fault recovery)
#: and the sentinel's count.  Every other ``count`` repeats exactly.
NOT_EXACT = frozenset({
    "columnar.compile.plan_cache_hits", "columnar.compile.plan_cache_misses",
    "engine.parallel.ranges_retried", "engine.parallel.workers_respawned",
    "engine.parallel.fault_events", "noise.rounds_over_limit",
})


def verdict(base: float, other: float, better: str, bound: float) -> str:
    worse_by = (other - base) / base if better == "lower" \
        else (base - other) / base
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(spec: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]
            ) -> int:
    worse = unresolved = 0
    print(f"{'workload':14s} {'metric':26s} {'A (base)':>12s} {'B':>12s} "
          f"{'B/A':>7s}  {'bound':>6s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        part_a = a["workloads"].get(workload, {}).get("end_to_end")
        part_b = b["workloads"].get(workload, {}).get("end_to_end")
        if part_a is None or part_b is None:
            print(f"{workload:14s} missing from {'A' if part_a is None else 'B'}"
                  "  unresolved")
            unresolved += 1
            continue
        noisy = part_a["noisy"] or part_b["noisy"]
        for metric in spec["end_to_end"]:
            base = part_a["metrics"][metric["name"]]["value"]
            other = part_b["metrics"][metric["name"]]["value"]
            result = "unresolved" if noisy else verdict(
                base, other, metric["better"], metric["bound"])
            worse += result == "worse"
            unresolved += result == "unresolved"
            print(f"{workload:14s} {metric['name']:26s} {base:12.5g} "
                  f"{other:12.5g} {other / base:7.3f}  "
                  f"{metric['bound']:6.3f}  {result}  "
                  f"(of A = {base:.5g} {metric['unit']})")
        # failed_ops_share: bound 0, absolute.
        for side, part in (("A", part_a), ("B", part_b)):
            if part["failed"] or part["broken_guards"]:
                print(f"{workload:14s} {side}: {part['failed']} of "
                      f"{part['attempted']} ops failed, broken guards: "
                      f"{part['broken_guards']}  worse")
                worse += 1
        worse += count_mismatches(
            spec, workload, a["workloads"][workload].get("per_layer"),
            b["workloads"][workload].get("per_layer"))
    print(f"# {worse} worse, {unresolved} unresolved")
    return 1 if worse else 2 if unresolved else 0


def count_mismatches(spec: Dict[str, Any], workload: str,
                     layers_a: Optional[Dict[str, Any]],
                     layers_b: Optional[Dict[str, Any]]) -> int:
    if layers_a is None or layers_b is None:
        return 0
    if (layers_a["seed"], layers_a["quick"]) != (layers_b["seed"],
                                                 layers_b["quick"]):
        print(f"{workload:14s} layer counts not compared: seeds or sizes "
              "differ")
        return 0
    mismatches: List[str] = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        if metric["unit"] != "count" or name in NOT_EXACT:
            continue
        left = layers_a["metrics"][name]["value"]
        right = layers_b["metrics"][name]["value"]
        if left != right:
            mismatches.append(f"{name}: A={left} B={right}")
    for line in mismatches:
        print(f"{workload:14s} COUNT MISMATCH {line}")
    return len(mismatches)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    runs = []
    for path in argv:
        with open(path) as handle:
            runs.append(json.load(handle))
    return compare(spec, *runs)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
