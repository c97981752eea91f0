"""E7 — the bit-cost-metric extension: variable-width residual encoding.

Paper claim (§II-B): under the product bit-cost metric
``d(x, y) = Σ ceil(log2 |x_i − y_i| + 1)``, a variable-width encoding of the
offsets is the natural residual scheme (the paper elides the width
bookkeeping; we charge it, so the comparison is honest).

Measured here, sweeping the fraction of large-magnitude residuals: total
compressed size under fixed-width NS vs the byte-granular variable-width
encoding, alongside the theoretical bit-cost lower bound.
"""

import pytest

from repro.bench import ExperimentReport
from repro.model import profile_residuals
from repro.schemes import NullSuppression, VariableWidth
from repro.workloads import mixed_magnitude_residuals

from conftest import N_ROWS, print_report

LARGE_FRACTIONS = [0.0, 0.01, 0.05, 0.25, 0.75]


def _column(large_fraction):
    return mixed_magnitude_residuals(N_ROWS // 2, small_bits=5, large_bits=26,
                                     large_fraction=large_fraction, seed=55)


@pytest.mark.parametrize("large_fraction", [0.05])
def test_e7_varwidth_compression(benchmark, large_fraction):
    column = _column(large_fraction)
    form = benchmark(VariableWidth().compress, column)
    assert form.original_length == len(column)


@pytest.mark.parametrize("large_fraction", [0.05])
def test_e7_varwidth_decompression(benchmark, large_fraction):
    column = _column(large_fraction)
    scheme = VariableWidth()
    form = scheme.compress(column)
    assert benchmark(scheme.decompress, form).equals(column)


def test_e7_fixed_vs_variable_width_sweep(benchmark):
    """Fixed-width NS vs variable-width encoding as magnitude skew varies."""
    report = ExperimentReport(
        "E7", "Fixed-width vs variable-width residual encoding (bit-cost metric)")

    def measure():
        rows = []
        for fraction in LARGE_FRACTIONS:
            column = _column(fraction)
            ns_form = NullSuppression().compress(column)
            vw_form = VariableWidth().compress(column)
            profile = profile_residuals(column.values)
            rows.append({
                "large_fraction": fraction,
                "ns_bits_per_value": round(ns_form.bits_per_value(), 2),
                "varwidth_bits_per_value": round(vw_form.bits_per_value(), 2),
                "bitcost_lower_bound": round(profile.total_bit_cost / len(column), 2),
                "ns_fixed_width": ns_form.parameters["width"],
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for row in rows:
        report.add_row(**row)
    report.add_note("the variable-width encoding pays ~8 bits of width bookkeeping and "
                    "byte granularity above the bit-cost lower bound; fixed width pays "
                    "the widest element's bits for every element")
    print_report(report)

    by_fraction = {row["large_fraction"]: row for row in rows}
    # With skewed magnitudes the variable-width encoding wins clearly.
    for fraction in (0.01, 0.05):
        row = by_fraction[fraction]
        assert row["varwidth_bits_per_value"] < 0.7 * row["ns_bits_per_value"]
    # With almost all values large, fixed width catches up (crossover).
    mostly_large = by_fraction[0.75]
    assert mostly_large["varwidth_bits_per_value"] > 0.8 * mostly_large["ns_bits_per_value"]
    # Nobody beats the information-theoretic-style lower bound.
    for row in rows:
        assert row["varwidth_bits_per_value"] >= row["bitcost_lower_bound"] - 0.01
