"""E8 — enriching the model: step function → line → low-degree polynomial.

Paper claim (§II-B): replacing the step function with "an offset from a
diagonal line at some slope", or more generally stepwise low-degree
polynomials, shrinks the residuals on data with within-segment trends — at
the cost of a harder (curve-fitting) compression step.

Measured here, on trending sensor data: residual (offset) width, bits per
value, compression time and decompression time for degree 0 (FOR), degree 1
(LINEAR) and degree 2 (POLY).
"""

import pytest

from repro.bench import ExperimentReport
from repro.schemes import FrameOfReference, PiecewiseLinear, PiecewisePolynomial

from conftest import print_report

SEGMENT_LENGTH = 128

MODELS = {
    "FOR (degree 0)": lambda: FrameOfReference(segment_length=SEGMENT_LENGTH),
    "LINEAR (degree 1)": lambda: PiecewiseLinear(segment_length=SEGMENT_LENGTH),
    "POLY (degree 2)": lambda: PiecewisePolynomial(segment_length=SEGMENT_LENGTH, degree=2),
}


@pytest.mark.parametrize("model_name", list(MODELS))
def test_e8_compression_time(benchmark, trending_column, model_name):
    """Curve fitting makes compression slower as the degree grows."""
    scheme = MODELS[model_name]()
    form = benchmark(scheme.compress, trending_column)
    assert form.original_length == len(trending_column)


@pytest.mark.parametrize("model_name", list(MODELS))
def test_e8_decompression_time(benchmark, trending_column, model_name):
    scheme = MODELS[model_name]()
    form = scheme.compress(trending_column)
    assert benchmark(scheme.decompress, form).equals(trending_column)


def test_e8_residual_width_by_degree(benchmark, trending_column, smooth_column):
    """Offset width and bits/value as the model degree grows."""
    report = ExperimentReport(
        "E8", "Model enrichment on trending data: step vs linear vs quadratic")

    def measure():
        rows = []
        for name, factory in MODELS.items():
            scheme = factory()
            form = scheme.compress(trending_column)
            rows.append({
                "model": name,
                "offset_bits": form.parameters["offsets_width"],
                "bits_per_value": round(form.bits_per_value(), 2),
                "model_parameters_per_segment": 1 + (0 if name.startswith("FOR")
                                                     else int(name[-2])),
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for row in rows:
        report.add_row(**row)
    report.add_note("on data with per-segment drift, the linear model removes most of the "
                    "residual width; the quadratic model adds little beyond it")
    print_report(report)

    widths = {row["model"]: row["offset_bits"] for row in rows}
    bits = {row["model"]: row["bits_per_value"] for row in rows}
    # The diagonal-line model shrinks offsets substantially vs the step model.
    assert widths["LINEAR (degree 1)"] <= widths["FOR (degree 0)"] - 3
    assert bits["LINEAR (degree 1)"] < bits["FOR (degree 0)"]
    # Higher degree never needs wider offsets than lower degree.
    assert widths["POLY (degree 2)"] <= widths["LINEAR (degree 1)"] + 1

    # Ablation: on data with no within-segment trend, enrichment buys ~nothing.
    for_bits = FrameOfReference(segment_length=SEGMENT_LENGTH) \
        .compress(smooth_column).bits_per_value()
    linear_bits = PiecewiseLinear(segment_length=SEGMENT_LENGTH) \
        .compress(smooth_column).bits_per_value()
    assert linear_bits > 0.7 * for_bits
