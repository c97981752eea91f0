"""E4 — the §II-A identity and its trade-off: RLE ≡ (ID, DELTA) ∘ RPE.

Paper claims:

* the identity itself (storing run positions + DELTA is the same as storing
  run lengths: the DELTA form's *differences* — its stored ``deltas``, whose
  first entry repeats the second, with ``base`` restored at index 0 — are
  the lengths column bit for bit, and what is stored is the same);
* RPE "trades away some of the potential compression ratio of the composite
  scheme for ease of decompression" — positions are wider than lengths, but
  decompression (and random access) skips the prefix sum over the runs.

Measured here, across run lengths: both sides' compression ratio, their
decompression plans as written (Algorithm 1: 7 operators; RPE: 6 — the saved
``PrefixSum``) and as compiled (``Repeat``; ``AdjacentDifference`` +
``Repeat``), the compiled decode time of each, and random-access lookup time
on the RPE form.
"""

import numpy as np
import pytest

from repro.bench import ExperimentReport, time_callable
from repro.engine import kernels
from repro.schemes import RunLengthEncoding, RunPositionEncoding
from repro.schemes.decomposition import RLE_VIA_RPE
from repro.workloads import runs_column

from conftest import N_ROWS, print_report

RUN_LENGTHS = [8, 64, 512]


def _column(average_run_length):
    return runs_column(N_ROWS, average_run_length=float(average_run_length),
                       num_distinct_values=5000, seed=11)


@pytest.mark.parametrize("average_run_length", RUN_LENGTHS)
def test_e4_rle_decompression(benchmark, average_run_length):
    column = _column(average_run_length)
    scheme = RunLengthEncoding()
    form = scheme.compress(column)
    assert benchmark(scheme.decompress, form).equals(column)


@pytest.mark.parametrize("average_run_length", RUN_LENGTHS)
def test_e4_rpe_decompression(benchmark, average_run_length):
    column = _column(average_run_length)
    scheme = RunPositionEncoding()
    form = scheme.compress(column)
    assert benchmark(scheme.decompress, form).equals(column)


@pytest.mark.parametrize("average_run_length", [64])
def test_e4_rpe_random_access(benchmark, average_run_length):
    """Point lookups on the RPE form are binary searches — no decompression:
    its gather plan searches the stored run ends."""
    column = _column(average_run_length)
    scheme = RunPositionEncoding()
    form = scheme.compress(column)
    rng = np.random.default_rng(0)
    positions = rng.integers(0, len(column), 1000)
    values = benchmark(kernels.gather, scheme, form, positions)
    assert np.array_equal(values, column.values[positions])


def test_e4_identity_and_tradeoff(benchmark, dates_column):
    """Verify the identity on real data and quantify the ratio trade-off."""
    report = ExperimentReport(
        "E4", "RLE vs RPE: the §II-A identity and the ratio-vs-ease trade-off")

    def measure():
        rows = []
        for average_run_length in RUN_LENGTHS:
            column = _column(average_run_length)
            row = {"avg_run_length": average_run_length}
            for side, scheme in (("rle", RunLengthEncoding()), ("rpe", RunPositionEncoding())):
                form = scheme.compress(column)
                row[f"{side}_ratio"] = round(form.compression_ratio(), 2)
                row[f"{side}_plan_ops"] = len(scheme.decompression_plan(form).steps)
                row[f"{side}_compiled_ops"] = len(
                    scheme.compiled_decompression_plan(form).plan.steps)
                row[f"{side}_decode_ms"] = round(1e3 * time_callable(
                    lambda: scheme.decompress(form), repeats=5).best_seconds, 3)
            row["identity_holds"] = RLE_VIA_RPE.verify(column).holds
            rows.append(row)
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for row in rows:
        report.add_row(**row)
    report.add_note("as written RPE saves exactly one operator (the PrefixSum over "
                    "lengths); compiled, RLE is one Repeat and RPE recovers the lengths "
                    "first, so it pays one pass over the runs, and always some ratio "
                    "(positions are wider than lengths)")
    report.add_note("identity_holds compares RLE's lengths with the differences of "
                    "DELTA(positions): its deltas with the base restored at index 0")
    print_report(report)

    for row in rows:
        assert row["identity_holds"]
        assert (row["rle_plan_ops"], row["rpe_plan_ops"]) == (7, 6)  # the saved PrefixSum
        assert (row["rle_compiled_ops"], row["rpe_compiled_ops"]) == (1, 2)
        assert row["rpe_ratio"] <= row["rle_ratio"] * 1.01      # never better ratio
        # Loose gate: both compile to the same run expansion, RPE plus one
        # short pass over the runs (measured 0.95-1.1x; 3.7x before the
        # stored-ends rewrite, when RPE ran Algorithm 1 as written).
        assert row["rpe_decode_ms"] <= 2 * row["rle_decode_ms"]
    # Identity also verified on the paper's own motivating column.
    assert RLE_VIA_RPE.verify(dates_column).holds
