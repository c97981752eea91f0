"""E10 — partial decompression and "no clear distinction between
decompression and analytic query execution" (Lessons learned 1).

The query: SUM(ship_date-filtered column) over a run-compressed column —
the paper's shipped-orders shape.  Three execution strategies:

(a) **full**     — decompress the column, filter, aggregate (the classical
                   "decompress then execute" boundary);
(b) **partial**  — execute only the first step of Algorithm 1 (prefix sum of
                   the lengths), i.e. convert RLE to RPE, then answer with
                   binary searches over the run positions;
(c) **run-domain** — never leave the compressed form: one verdict per run,
                   lengths as weights.  The verdicts are the run-domain
                   prefix of the filter's query plan: the decompression plan
                   with ``Between`` appended, which the optimizer rewrites into
                   ``Repeat(Between(values), lengths)``.

All three must return the same answer; the interesting quantities are the
wall-clock and how many row-grain values each strategy materialises.

Inside the query engine the same idea is the per-range fold
(:func:`repro.engine.operators.aggregate_state`, routed by
``repro.api.lower.aggregate_fold_plan``): every aggregate over a scan
decompresses — or stays in the run domain — piece by piece inside the
query, one chunk range at a time, and a sorted group key is grouped off its
runs exactly as (c) weighs them.
"""

import numpy as np
import pytest

from repro.bench import ExperimentReport
from repro.columnar.ops import prefix_sum
from repro.engine import RangeBounds, kernels
from repro.schemes import RunLengthEncoding

from conftest import print_report


def _query_bounds(column):
    lo = int(np.quantile(column.values, 0.40))
    hi = int(np.quantile(column.values, 0.60))
    return RangeBounds(lo, hi)


def _strategy_full(scheme, form, bounds):
    values = scheme.decompress(form).values.astype(np.int64)
    mask = (values >= bounds.low) & (values <= bounds.high)
    return int(values[mask].sum()), len(values)


def _strategy_partial_rpe(form, bounds):
    # Step 1 of Algorithm 1 only: lengths -> run end positions (RLE -> RPE).
    positions = prefix_sum(form.constituent("lengths")).values
    values = form.constituent("values").values.astype(np.int64)
    starts = np.concatenate(([0], positions[:-1]))
    lengths = positions - starts
    run_mask = (values >= bounds.low) & (values <= bounds.high)
    return int((values[run_mask] * lengths[run_mask]).sum()), int(len(positions))


def _strategy_run_domain(scheme, form, bounds):
    verdicts = kernels.run_domain_plan(scheme, form, kernels.KERNEL_FILTER_RANGE).run(
        kernels.query_inputs(scheme, form, bounds)).values
    values = form.constituent("values").values.astype(np.int64)
    lengths = form.constituent("lengths").values.astype(np.int64)
    # Only run-grain columns were read: no row-grain value is touched.
    return int((values[verdicts] * lengths[verdicts]).sum()), 0


@pytest.fixture(scope="module")
def compressed_dates(dates_column):
    scheme = RunLengthEncoding()
    return dates_column, scheme, scheme.compress(dates_column), _query_bounds(dates_column)


def test_e10_full_decompression_query(benchmark, compressed_dates):
    column, scheme, form, bounds = compressed_dates
    total, rows_touched = benchmark(_strategy_full, scheme, form, bounds)
    assert rows_touched == len(column)
    assert total > 0


def test_e10_partial_decompression_query(benchmark, compressed_dates):
    column, scheme, form, bounds = compressed_dates
    total, runs_touched = benchmark(_strategy_partial_rpe, form, bounds)
    expected, __ = _strategy_full(scheme, form, bounds)
    assert total == expected
    assert runs_touched < len(column) / 10


def test_e10_run_domain_query(benchmark, compressed_dates):
    column, scheme, form, bounds = compressed_dates
    total, rows_decoded = benchmark(_strategy_run_domain, scheme, form, bounds)
    expected, __ = _strategy_full(scheme, form, bounds)
    assert total == expected
    assert rows_decoded == 0


def test_e10_strategy_comparison(benchmark, compressed_dates):
    """All three strategies agree; the optimizer leaves the filter in the run
    domain; work differs by orders."""
    column, scheme, form, bounds = compressed_dates
    report = ExperimentReport(
        "E10", "SUM over a range predicate on RLE data: full vs partial vs run-domain")

    def measure():
        full_total, full_rows = _strategy_full(scheme, form, bounds)
        partial_total, partial_rows = _strategy_partial_rpe(form, bounds)
        run_total, run_rows = _strategy_run_domain(scheme, form, bounds)
        return [
            {"strategy": "full decompression", "answer": full_total,
             "row_grain_values_touched": full_rows},
            {"strategy": "partial (RLE→RPE, 1 operator)", "answer": partial_total,
             "row_grain_values_touched": partial_rows},
            {"strategy": "run domain (no decompression)", "answer": run_total,
             "row_grain_values_touched": run_rows},
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for row in rows:
        report.add_row(**row)

    prefix = kernels.run_domain_plan(scheme, form, kernels.KERNEL_FILTER_RANGE).plan
    report.add_note("the run-domain prefix the optimizer left standing in the filter's "
                    "query plan:\n" + prefix.describe())
    print_report(report)

    answers = {row["answer"] for row in rows}
    assert len(answers) == 1
    touched = [row["row_grain_values_touched"] for row in rows]
    assert touched[0] > 50 * max(touched[1], 1)
    assert touched[2] == 0
    assert [step.op for step in prefix.steps] == ["Between"]
    assert prefix.steps[0].column_inputs["col"] == "values"
