"""Measuring one workload: set-up, rounds, the noise sentinel, metrics.

Method: one client in a closed loop.  After set-up (which ends with one warm
round) the slot list is run round after round until the time budget is spent.
A slot's time is the minimum over the rounds — the engine has no queue and no
background work, so what the raw tail measures on a shared box is hypervisor
steal — and the percentiles are taken over the K slot times.

Before each round a fixed NumPy kernel is timed.  A round whose calibration
exceeds ``CALIB_LIMIT`` times the run's best ran on a slower machine; it still
feeds the minimum (it cannot raise it), but a run with fewer than ``R`` rounds
inside the limit is marked ``noisy``.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import trace
from .workloads import Observation, Workload

#: Rounds inside the calibration limit below which a run is marked ``noisy``.
R = 5
CALIB_LIMIT = 1.15
SETUP_REPEATS = 3

SCAN_FIELDS = ("chunks_total", "chunks_skipped", "chunks_pushed_down",
               "chunks_decompressed", "chunks_short_circuited", "rows_scanned",
               "rows_selected", "rows_computed_compressed",
               "bytes_decompressed_saved", "plan_cache_hits",
               "plan_cache_misses", "ranges_retried", "workers_respawned",
               "fault_events")

PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def hardware() -> Dict[str, Any]:
    return {"cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


class Calibration:
    """The noise sentinel's kernel: cumsum, multiply and a sort, ~9 ms."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._walk = rng.integers(0, 1_000, 1 << 21)
        self._noise = rng.integers(0, 1 << 40, 1 << 16)
        self._out = np.empty_like(self._walk)
        self._sorted = np.empty_like(self._noise)

    def __call__(self) -> float:
        best = float("inf")
        for __ in range(5):
            start = perf_counter()
            np.cumsum(self._walk, out=self._out)
            np.multiply(self._out, 3, out=self._out)
            self._sorted[:] = self._noise
            self._sorted.sort()
            best = min(best, perf_counter() - start)
        return best

    def copy_values_per_s(self) -> float:
        """What the machine can copy: the roofline decode is read against."""
        best = float("inf")
        for __ in range(5):
            start = perf_counter()
            np.copyto(self._out, self._walk)
            best = min(best, perf_counter() - start)
        return self._walk.size / best


@dataclass
class Round:
    index: int
    calibration: float
    times: List[float]
    observations: List[Observation]

    @property
    def failed(self) -> int:
        return sum(not observation.ok for observation in self.observations)


def run_round(workload: Workload, tracer, index: int, calibration: float = 0.0,
              run: Optional[Callable] = None) -> Round:
    """Every slot once, each timed on its own; results are checked against
    the oracle outside the timed region."""
    run = run or workload.run
    times: List[float] = []
    observations: List[Observation] = []
    for slot in range(workload.k):
        failure = None
        start = perf_counter()
        try:
            with tracer.op(index * workload.k + slot):
                value = run(slot, tracer)
        except Exception:  # a failed op is counted, not fatal
            failure = traceback.format_exc()
        times.append(perf_counter() - start)
        if failure is None:
            observations.append(workload.inspect(slot, value))
        else:
            sys.stderr.write(failure)
            observations.append(Observation(ok=False))
    return Round(index, calibration, times, observations)


@dataclass
class Phase:
    """Consecutive rounds of one kind (untraced, traced or serial twin)."""

    rounds: List[Round] = field(default_factory=list)

    @property
    def steady(self) -> List[Round]:
        """The rounds whose calibration is inside the limit."""
        best = min(r.calibration for r in self.rounds)
        return [r for r in self.rounds if r.calibration <= CALIB_LIMIT * best]

    @property
    def slot_min(self) -> np.ndarray:
        return np.min([r.times for r in self.rounds], axis=0)

    def best_round_of(self, slot: int) -> Round:
        return min(self.rounds, key=lambda r: r.times[slot])

    @property
    def ops(self) -> int:
        return sum(len(r.times) for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)


def measure(workload: Workload, tracer, calibrate: Calibration, seconds: float,
            run: Optional[Callable] = None) -> Phase:
    """Rounds until the next one would overrun *seconds* (at least two)."""
    phase = Phase()
    start = perf_counter()
    while True:
        phase.rounds.append(run_round(workload, tracer, len(phase.rounds),
                                      calibrate(), run))
        elapsed = perf_counter() - start
        if len(phase.rounds) >= 2 \
                and elapsed + elapsed / len(phase.rounds) > seconds:
            return phase


def set_up(workload: Workload, tracer) -> Tuple[float, Round]:
    """Program-side set-up from fresh state, ending with the warm round.
    Returns the seconds it took (result checks excluded) and that round."""
    workload.reset()
    start = perf_counter()
    workload.set_up()
    built = perf_counter() - start
    warm = run_round(workload, tracer, 0)
    return built + sum(warm.times), warm


def tally(observations: List[Observation]) -> Dict[str, float]:
    """Exact sums over one round's op list."""
    counts: Dict[str, float] = defaultdict(int)
    for observation in observations:
        if observation.stats is not None:
            for name in SCAN_FIELDS:
                counts[name] += int(getattr(observation.stats, name))
        for name, value in observation.counters.items():
            counts[name] += int(value)
    return counts


def span_counts(workload: Workload, spans: List[list], round_index: int
                ) -> Dict[str, int]:
    """The two guard inputs only spans can give, over one traced round."""
    ops = range(round_index * workload.k, (round_index + 1) * workload.k)
    in_round = [span for span in spans if span[trace.OP] in ops]
    on_pool = {span[trace.OP] for span in in_round if span[trace.NOTE]
               and span[trace.NAME].startswith("engine.parallel.run_process")}
    advised = sum(span[trace.NAME] == "planner.advisor.advise"
                  for span in in_round)
    return {"fallback_ops": workload.k - len(on_pool) if workload.uses_pool else 0,
            "advise_calls": advised}


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process plus its (reaped) children, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def end_to_end(workload: Workload, phase: Phase, setups: List[float],
               stored_ratio: float) -> Dict[str, float]:
    slots = phase.slot_min
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": float(np.percentile(slots, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(slots, 90)) * 1e3,
        "mrows_per_s": workload.rows_per_op * workload.k / float(slots.sum()) / 1e6,
        "stored_bytes_per_raw_byte": stored_ratio,
        "peak_rss_mb": peak_rss_mib(),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def raw_tail(phase: Phase) -> Dict[str, float]:
    """The highest ladder percentile with at least ten raw samples beyond it."""
    samples = np.concatenate([r.times for r in phase.rounds])
    usable = [p for p in PERCENTILE_LADDER
              if samples.size * (1 - p / 100) >= 10] or PERCENTILE_LADDER[:1]
    return {"jitter.raw_tail_pct": usable[-1],
            "jitter.raw_tail_ms": float(np.percentile(samples, usable[-1])) * 1e3}


def per_layer(workload: Workload, untraced: Phase, traced: Phase,
              spans: List[list], counts: Dict[str, float],
              copy_values_per_s: float, serial: Optional[Phase],
              pipe_bytes: int) -> Dict[str, float]:
    """Every per-layer metric.  Times are mean self-ms per op, read from each
    slot's fastest traced round; counts are exact sums over the op list."""
    k = workload.k
    chosen = [traced.best_round_of(slot) for slot in range(k)]
    summary = trace.summarize(
        spans, [r.index * k + slot for slot, r in enumerate(chosen)])
    wall_ns = sum(r.times[slot] for slot, r in enumerate(chosen)) * 1e9
    nothing = {"self_ns": 0, "calls": 0, "note": 0, "noted": 0}

    def of(name: str) -> Dict[str, float]:
        return summary.get(name, nothing)

    def ms(*names: str) -> float:
        return sum(of(name)["self_ns"] for name in names) / k / 1e6

    def seconds(name: str) -> float:
        return of(name)["self_ns"] / 1e9

    kernels = [f"engine.kernels.{kernel}" for kernel in
               ("filter_range", "gather", "aggregate_whole", "group_codes")]
    filters = of("engine.kernels.filter_range")
    decode = of("storage.ColumnChunk.decompress")
    decode_rate = _ratio(decode["note"], seconds("storage.ColumnChunk.decompress"))
    compress = of("storage.ColumnChunk.from_column")
    untraced_s = float(untraced.slot_min.sum())
    layered_ns = sum(entry["self_ns"] for name, entry in summary.items()
                     if name != trace.ROOT)
    calibrations = [r.calibration for r in untraced.rounds]

    metrics = {
        "api.plan_build_ms": ms("api.plan_build"),
        "api.optimize_ms": ms("api.Dataset.optimized_plan"),
        "api.lower_self_ms": ms("api.run_plan"),
        "engine.scan.self_ms": ms("engine.scan.scan_table"),
        "engine.scan.chunks_total": counts["chunks_total"],
        "engine.scan.chunks_skipped": counts["chunks_skipped"],
        "engine.scan.chunks_pushed_down": counts["chunks_pushed_down"],
        "engine.scan.chunks_decompressed": counts["chunks_decompressed"],
        "engine.scan.chunks_short_circuited": counts["chunks_short_circuited"],
        "engine.scan.rows_scanned": counts["rows_scanned"],
        "engine.scan.rows_selected": counts["rows_selected"],
        "engine.scan.prune_ratio": _ratio(counts["chunks_skipped"],
                                          counts["chunks_total"]),
        "engine.kernels.filter_ms": ms(kernels[0]),
        "engine.kernels.gather_ms": ms(kernels[1]),
        "engine.kernels.aggregate_ms": ms(kernels[2]),
        "engine.kernels.group_codes_ms": ms(kernels[3]),
        "engine.kernels.calls": sum(of(name)["calls"] for name in kernels),
        "engine.kernels.filter_hit_ratio": _ratio(filters["noted"],
                                                  filters["calls"]),
        "engine.kernels.rows_computed_compressed":
            counts["rows_computed_compressed"],
        "engine.kernels.bytes_decompressed_saved":
            counts["bytes_decompressed_saved"],
        "engine.kernels.compressed_row_share": _ratio(
            counts["rows_computed_compressed"], counts["rows_scanned"]),
        "engine.operators.reduce_ms": ms("engine.operators.grouped_reduce",
                                         "engine.operators.aggregate"),
        "columnar.compile.decompress_ms": ms("storage.ColumnChunk.decompress"),
        "columnar.compile.decompress_calls": decode["calls"],
        "columnar.compile.decode_mvalues_per_s": decode_rate / 1e6,
        "columnar.compile.roofline_share": decode_rate / copy_values_per_s,
        "columnar.compile.plan_cache_hits": counts["plan_cache_hits"],
        "columnar.compile.plan_cache_misses": counts["plan_cache_misses"],
        "io.reader.open_ms": ms("io.reader.open_packed_table", "io.reader.table",
                                "io.reader.close"),
        "io.reader.segment_load_ms": ms("io.reader.SegmentSource.load"),
        "io.reader.segments_mapped": counts["segments_mapped"],
        "io.reader.bytes_mapped": counts["bytes_mapped"],
        "io.reader.mapped_fraction": _ratio(counts["bytes_mapped"],
                                            counts["file_bytes"]),
        "engine.parallel.dispatch_wait_ms": ms(
            "engine.parallel.run_process_scan",
            "engine.parallel.run_process_aggregate"),
        "engine.parallel.pool_start_ms": workload.pool_start_s * 1e3,
        "engine.parallel.speedup_vs_serial":
            float(serial.slot_min.sum()) / untraced_s if serial else 0.0,
        "engine.parallel.pipe_mb_per_op": pipe_bytes / 1e6 / untraced.ops,
        "engine.parallel.fallback_ops": counts["fallback_ops"],
        "engine.parallel.ranges_retried": counts["ranges_retried"],
        "engine.parallel.workers_respawned": counts["workers_respawned"],
        "engine.parallel.fault_events": counts["fault_events"],
        "schemes.compress_ms": ms("storage.ColumnChunk.from_column"),
        "schemes.compress_mvalues_per_s": _ratio(
            compress["note"], seconds("storage.ColumnChunk.from_column")) / 1e6,
        "schemes.bits_per_value": _ratio(counts["compressed_bytes"] * 8,
                                         counts["values"]),
        "planner.advisor.advise_ms": ms("planner.advisor.advise"),
        "planner.advisor.calls": of("planner.advisor.advise")["calls"],
        "io.writer.write_ms": ms("io.writer.write_packed_table"),
        "io.writer.bytes_written": counts["bytes_written"],
        "io.writer.write_mb_per_s": _ratio(
            counts["bytes_written"], seconds("io.writer.write_packed_table")) / 1e6,
        "io.verify.verify_ms": ms("io.verify.verify_packed_file"),
        "io.verify.mb_per_s": _ratio(
            counts["bytes_written"], seconds("io.verify.verify_packed_file")) / 1e6,
        "storage.build_self_ms": ms("storage.Table.from_pydict"),
        "trace.overhead_share": (float(traced.slot_min.sum()) - untraced_s)
            / untraced_s,
        "trace.coverage": layered_ns / wall_ns,
        "noise.calib_ratio": max(calibrations) / min(calibrations),
        "noise.rounds_over_limit": len(untraced.rounds) - len(untraced.steady),
    }
    metrics.update(raw_tail(untraced))
    return metrics
