"""Benchmark harness utilities shared by the experiment benchmarks (E1–E10).

Timing (:func:`time_callable`), per-scheme comparison rows
(:func:`compression_row`, :func:`compare_schemes`), the chunk-at-a-time
interpreted-vs-compiled decode measurement E2 and E3 gate on
(:func:`measure_scheme`), and the paper-style text tables every experiment
prints (:class:`ExperimentReport`).  The scan pipeline, cold packed reads,
the process backend and ingest are measured by the repo benchmark under
``perf/``.
"""

from .harness import (
    ExperimentReport,
    TimingResult,
    compare_schemes,
    compression_row,
    format_table,
    measure_scheme,
    time_callable,
)

__all__ = [
    "ExperimentReport",
    "TimingResult",
    "compare_schemes",
    "compression_row",
    "format_table",
    "measure_scheme",
    "time_callable",
]
