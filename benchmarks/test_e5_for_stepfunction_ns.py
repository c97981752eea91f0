"""E5 — the §II-B identity: FOR ≡ STEPFUNCTION + NS.

Paper claims:

* FOR splits into a (lossy) step-function model plus NS-encoded residual
  offsets, and the model is exactly Algorithm 2 truncated before its final
  addition;
* FOR "captures all columns which are L∞-metric-close to the evaluation of a
  step function, with the distance determined by the allowed width of the
  offsets column".

Measured here: the identity's verification on real data, and how the offset
width (the L∞ radius) and the achieved ratio move as the data's noise
amplitude grows — the executable version of the L∞ framing.
"""

import numpy as np
import pytest

from repro.bench import ExperimentReport
from repro.columnar import Column
from repro.model import linf_distance
from repro.schemes import FrameOfReference, NullSuppression, StepFunctionModel
from repro.schemes.decomposition import (
    FOR_VIA_STEPFUNCTION,
    for_form_to_model_and_residuals,
)
from repro.workloads import smooth_measure

from conftest import N_ROWS, print_report

SEGMENT_LENGTH = 128
NOISE_LEVELS = [4, 64, 1024]


def _column(noise):
    return smooth_measure(N_ROWS // 2, base=1_000_000, amplitude=20_000,
                          noise=noise, seed=21)


@pytest.mark.parametrize("noise", NOISE_LEVELS)
def test_e5_for_decompression(benchmark, noise):
    column = _column(noise)
    scheme = FrameOfReference(segment_length=SEGMENT_LENGTH)
    form = scheme.compress(column)
    assert benchmark(scheme.decompress, form).equals(column)


def test_e5_model_evaluation(benchmark, smooth_column):
    """Evaluating only the model (the truncated plan) — the partial-decompression path."""
    scheme = StepFunctionModel(segment_length=SEGMENT_LENGTH)
    form = scheme.compress(smooth_column)
    out = benchmark(scheme.decompress, form)
    assert len(out) == len(smooth_column)


def test_e5_identity_and_linf_sweep(benchmark):
    """FOR = model + NS residuals, and offset width == bits(L∞ distance to the model)."""
    report = ExperimentReport(
        "E5", "FOR ≡ STEPFUNCTION + NS: offset width tracks the L∞ distance to the model")

    def measure():
        rows = []
        for noise in NOISE_LEVELS:
            column = _column(noise)
            for_scheme = FrameOfReference(segment_length=SEGMENT_LENGTH)
            form = for_scheme.compress(column)
            parts = for_form_to_model_and_residuals(form)
            model_eval = StepFunctionModel(segment_length=SEGMENT_LENGTH) \
                .decompress(parts["model"])
            residuals = NullSuppression(signed="reject").decompress(parts["residuals"])
            reconstructed = Column(model_eval.values.astype(np.int64)
                                   + residuals.values.astype(np.int64))
            linf = linf_distance(column, model_eval)
            rows.append({
                "noise": noise,
                "linf_to_model": int(linf),
                "offset_bits": form.parameters["offsets_width"],
                "for_ratio": round(form.compression_ratio(), 2),
                "model_only_bytes": parts["model"].compressed_size_bytes(),
                "residual_bytes": parts["residuals"].compressed_size_bytes(),
                "reconstruction_exact": reconstructed.equals(
                    Column(column.values.astype(np.int64))),
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for row in rows:
        report.add_row(**row)
    report.add_note("offset width = ceil(log2(L∞ + 1)) of the model error; the residual "
                    "bytes dominate the model bytes and grow with the noise")
    print_report(report)

    for row in rows:
        assert row["reconstruction_exact"]
        assert row["offset_bits"] == max(1, int(row["linf_to_model"]).bit_length())
        assert row["residual_bytes"] > row["model_only_bytes"]
    ratios = [row["for_ratio"] for row in rows]
    assert ratios == sorted(ratios, reverse=True)  # more noise -> worse ratio

    # The machine-checkable identity holds on the noisiest column too.
    assert FOR_VIA_STEPFUNCTION.verify(_column(NOISE_LEVELS[-1])).holds
