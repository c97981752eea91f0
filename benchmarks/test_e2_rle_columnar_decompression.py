"""E2 — Algorithm 1: RLE decompression as a columnar plan.

Paper claim: RLE decompression can be expressed with a handful of generic
columnar operators (PrefixSum, PopBack, Constant, Scatter, Gather) — the
same operators query plans are made of.

Measured here, across average run lengths:

* correctness of the columnar plan against a bare ``numpy.repeat`` kernel
  (:func:`_repeat_kernel`, the direct-kernel baseline — local to this file,
  the library decodes through plans only);
* wall-clock of plan vs kernel decompression: the compiled plan re-composes
  Algorithm 1's run expansion into the one ``Repeat`` operator, so what is
  left of the price of genericity is the executor around it — Algorithm 1
  as written is the interpreted path of ``test_e2_compiled_vs_interpreted``;
* the plan's operator count and weighted cost (the hardware-agnostic view),
  taken from the source plan, which stays Algorithm 1.
"""

import numpy as np
import pytest

from repro.bench import ExperimentReport
from repro.columnar import Column
from repro.schemes import RunLengthEncoding, build_rle_decompression_plan
from repro.workloads import runs_column

from conftest import N_ROWS, print_report

RUN_LENGTHS = [4, 32, 256]


def _compressed(average_run_length):
    column = runs_column(N_ROWS, average_run_length=float(average_run_length),
                         num_distinct_values=4000, seed=7)
    scheme = RunLengthEncoding()
    return column, scheme, scheme.compress(column)


def _repeat_kernel(form):
    """The hand-written RLE decoder: ``numpy.repeat(values, lengths)``."""
    return Column(np.repeat(form.constituent("values").values,
                            form.constituent("lengths").values))


@pytest.mark.parametrize("average_run_length", RUN_LENGTHS)
def test_e2_plan_decompression(benchmark, average_run_length):
    """Decompression through the compiled columnar plan (Algorithm 1,
    re-composed to ``Repeat`` by the optimizer)."""
    column, scheme, form = _compressed(average_run_length)
    out = benchmark(scheme.decompress, form)
    assert out.equals(column)


@pytest.mark.parametrize("average_run_length", RUN_LENGTHS)
def test_e2_fused_decompression(benchmark, average_run_length):
    """Decompression through the dedicated fused kernel (numpy.repeat)."""
    column, scheme, form = _compressed(average_run_length)
    out = benchmark(_repeat_kernel, form)
    assert out.equals(column)


def test_e2_operator_accounting(benchmark):
    """Operator counts and weighted cost of Algorithm 1 across run lengths."""
    report = ExperimentReport(
        "E2", "RLE decompression: columnar plan (Algorithm 1) vs fused kernel")
    plan = build_rle_decompression_plan()

    def measure():
        rows = []
        for average_run_length in RUN_LENGTHS:
            column, scheme, form = _compressed(average_run_length)
            detailed = plan.evaluate_detailed(scheme.plan_inputs(form))
            rows.append({
                "avg_run_length": average_run_length,
                "num_runs": form.constituent_length("values"),
                "ratio": round(form.compression_ratio(), 2),
                "plan_operators": detailed.cost.operator_invocations,
                "weighted_cost_per_row": round(detailed.cost.weighted_cost / len(column), 3),
                "bytes_materialized_per_row": round(
                    detailed.cost.bytes_materialized / len(column), 2),
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for row in rows:
        report.add_row(**row)
    report.add_note("the plan always runs the same 7 operators; its per-row cost is "
                    "dominated by the three full-length intermediates it materialises")
    print_report(report)

    # Shape assertions: operator count is constant (7, data-independent);
    # compression ratio grows with run length while plan cost per row stays flat.
    assert all(row["plan_operators"] == 7 for row in rows)
    ratios = [row["ratio"] for row in rows]
    assert ratios == sorted(ratios)
    costs = [row["weighted_cost_per_row"] for row in rows]
    assert max(costs) < 2 * min(costs)


def test_e2_compiled_vs_interpreted(benchmark):
    """Chunk-at-a-time RLE decompression: compiled plan vs interpreter.

    The representative workload of the plan compiler: a scan decompresses
    thousands of vector-sized chunks that all share one compiled plan, so
    plan building, optimization and operator resolution amortise to zero.
    """
    from repro.bench import measure_scheme
    from repro.workloads import runs_column

    column = runs_column(4096 * 64, average_run_length=32.0,
                         num_distinct_values=512, seed=7)
    report = ExperimentReport(
        "E2", "RLE decompression: compiled plan vs interpreted plan (4096-row chunks)")

    row = benchmark.pedantic(
        lambda: measure_scheme(RunLengthEncoding(), column, chunk_rows=4096, repeats=5),
        rounds=1, iterations=1)
    report.add_row(**{k: row[k] for k in (
        "scheme", "chunks", "interpreted_mvalues_per_s", "compiled_mvalues_per_s",
        "speedup", "plan_steps", "optimized_steps")})
    report.add_note("the interpreted path executes Algorithm 1 step by step; the "
                    "compiled path re-composes its run expansion into the one "
                    "Repeat operator and reuses that plan across all chunks")
    print_report(report)
    # The documented acceptance criterion is >= 1.5x on RLE (measured ~7x on
    # the reference container since the compiled plan is a single Repeat);
    # the assertion keeps the 0.2x margin under that criterion so a noisy CI
    # timer cannot fail a healthy build, while a regression to parity does.
    assert row["speedup"] >= 1.3
