#!/usr/bin/env python3
"""The repo's benchmark.

    python3 perf/run.py [--seed N] [--workload NAME] [--seconds S]
                        [--trace [0|1]] [--quick] [--out PATH]

With ``--workload`` it measures that workload in this process, prints every
metric by name with its unit, and ends with one JSON line
(``correct``/``attempted``/``failed``/``metrics``): the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it,
every workload of ``BENCHMARK.json`` runs in its own fresh subprocess, one at
a time (untraced, then traced when ``--trace`` is given), and the whole run
is written as JSON for ``perf/compare.py``.

Exits non-zero on any oracle mismatch, failed op or broken mechanism guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perf" / "out"
DEFAULT_SEED = 20_180_416
QUICK_SECONDS = 0.5


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _proc_rchar() -> int:
    """Bytes this process has read through syscalls — pipe traffic included,
    mmap'ed file pages not.  0 where /proc/self/io does not exist."""
    try:
        with open("/proc/self/io") as handle:
            for line in handle:
                if line.startswith("rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 quick: bool, out: Optional[Path]) -> int:
    from perf import harness, trace, workloads

    spec = load_spec()
    workload = workloads.make(name, seed, quick)  # inputs and oracles: untimed
    calibrate = harness.Calibration()
    untimed = trace.NullRecorder()
    recorder = trace.Recorder()
    attempted = failed = 0
    try:
        setups: List[float] = []
        for __ in range(harness.SETUP_REPEATS):
            took, warm = harness.set_up(workload, untimed)
            setups.append(took)
            attempted += workload.k
            failed += warm.failed

        # The traced run splits its budget: untraced rounds (the base of
        # trace.overhead_share), traced rounds, and on the pool workload the
        # serial twin of every slot.
        share = 1.0 if not traced else 0.4 if workload.uses_pool else 0.5
        rchar = _proc_rchar()
        untraced = harness.measure(workload, untimed, calibrate,
                                   seconds * share)
        pipe_bytes = _proc_rchar() - rchar if workload.uses_pool else 0
        phases = [untraced]
        serial = None
        if traced and workload.uses_pool:
            serial = harness.measure(workload, untimed, calibrate,
                                     seconds * 0.2, run=workload.run_serial)
            phases.append(serial)

        counts = harness.tally(untraced.rounds[-1].observations)
        traced_phase = None
        if traced or workload.needs_spans:
            undo = trace.install(recorder)
            try:
                if traced:
                    traced_phase = harness.measure(workload, recorder, calibrate,
                                                   seconds * share)
                    phases.append(traced_phase)
                    guard_round = traced_phase.rounds[-1]
                else:  # one unmeasured round, only to count spans for guards
                    guard_round = harness.run_round(workload, recorder, 0)
                    phases.append(harness.Phase([guard_round]))
            finally:
                trace.uninstall(undo)
            counts.update(harness.span_counts(workload, recorder.spans,
                                              guard_round.index))

        attempted += sum(phase.ops for phase in phases)
        failed += sum(phase.failed for phase in phases)
        broken = workload.broken_guards(counts) if not failed else []
        stored = workload.stored_ratio(counts)
    finally:
        workload.close()  # reaps the pool too, so peak RSS below counts it

    if traced:
        values = harness.per_layer(workload, untraced, traced_phase,
                                   recorder.spans, counts,
                                   calibrate.copy_values_per_s(), serial,
                                   pipe_bytes)
        listed = spec["per_layer"]
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace.write(OUT_DIR / f"trace-{name}.json", name, recorder.spans)
    else:
        values = harness.end_to_end(workload, untraced, setups, stored)
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    steady = len(untraced.steady)
    record = {
        "workload": name, "seed": seed, "quick": quick, "trace": int(traced),
        "seconds": seconds, "sizes": dataclasses.asdict(workload.sizes),
        "k": workload.k, "r": harness.R,
        "rounds": len(untraced.rounds), "rounds_steady": steady,
        "samples": workload.k * len(untraced.rounds),
        "noisy": steady < min(harness.R, len(untraced.rounds)),
        "calibrations_ms": [r.calibration * 1e3 for r in untraced.rounds],
        "templates": workload.templates,
        "slot_ms": [t * 1e3 for t in untraced.slot_min],
        "attempted": attempted, "failed": failed,
        "failed_ops_share": failed / attempted, "broken_guards": broken,
        "correct": not failed and not broken, "metrics": metrics,
        "hardware": harness.hardware(),
    }
    print(f"# {name}: seed {seed}, K={workload.k} slots x "
          f"{len(untraced.rounds)} rounds = {record['samples']} raw samples "
          f"({steady} rounds inside the calibration limit), {failed} of "
          f"{attempted} ops failed"
          + (", NOISY" if record["noisy"] else ""))
    for guard in broken:
        print(f"# BROKEN GUARD: {guard}")
    for metric, entry in metrics.items():
        print(f"{name:14s} {metric:42s} {entry['value']:>16.6g} {entry['unit']}")
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as handle:
            json.dump(record, handle, indent=1)
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh subprocess, one at a time."""
    spec = load_spec()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # "claim": a run of the benchmark claims no gain; a change that does
    # records its own claim next to its parent/change pairs.
    run: Dict[str, Any] = {"seed": args.seed, "quick": args.quick,
                           "seconds": args.seconds, "claim": None,
                           "workloads": {}}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        entry: Dict[str, Any] = {}
        for traced in ([0, 1] if args.trace else [0]):
            part = OUT_DIR / f"part-{workload}-{traced}.json"
            part.unlink(missing_ok=True)
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(traced),
                       "--out", str(part)]
            if args.quick:
                command.append("--quick")
            code = subprocess.run(command).returncode
            status = status or code
            if part.exists():
                with open(part) as handle:
                    entry["per_layer" if traced else "end_to_end"] = \
                        json.load(handle)
                part.unlink()
        run["workloads"][workload] = entry
    run["hardware"] = next(
        (part["hardware"] for entry in run["workloads"].values()
         for part in entry.values()), None)
    out = Path(args.out) if args.out else OUT_DIR / f"run-{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(run, handle, indent=1)
    print(f"# wrote {out}" + ("" if status == 0 else " — FAILED"))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure only this workload, "
                        "in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="per-layer metrics from a "
                        "traced run")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes (smoke test)")
    parser.add_argument("--out", help="write the run as JSON here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick \
            else float(load_spec()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.quick,
                        Path(args.out) if args.out else None)


if __name__ == "__main__":
    # Executed as a script: make the repo root (for ``perf``) and ``src``
    # (for the program under test) importable, in place of the script's
    # directory — ``perf/trace.py`` must not shadow the standard ``trace``.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    raise SystemExit(main())
