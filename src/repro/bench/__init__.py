"""Benchmark harness utilities shared by the experiment benchmarks (E1–E10).

:mod:`repro.bench.plan_compile` additionally provides the interpreted-vs-
compiled decompression benchmark (``python -m repro.bench.plan_compile``)
and :mod:`repro.bench.api_overhead` the lazy-API plan-overhead and
predicate-reordering benchmark (``python -m repro.bench.api_overhead``);
they write ``BENCH_plan_compile.json`` / ``BENCH_api_plan.json`` for
cross-PR perf tracking.  The scan pipeline, cold packed reads and the
process backend are measured by the repo benchmark under ``perf/``.
"""

from .harness import (
    ExperimentReport,
    TimingResult,
    compare_schemes,
    compression_row,
    format_table,
    time_callable,
)

# NOTE: repro.bench.plan_compile is deliberately not imported here — it is a
# runnable module (``python -m repro.bench.plan_compile``) and importing it
# from the package __init__ would trigger runpy's double-import warning.

__all__ = [
    "ExperimentReport",
    "TimingResult",
    "compare_schemes",
    "compression_row",
    "format_table",
    "time_callable",
]
