"""E6 — the L0-metric extension: patched models vs plain FOR.

Paper claim (§II-B): for data that is "really" a step function except at a
few divergent, arbitrary-value elements (small L0 distance to the model),
adding patches to the basic model beats widening every element's offset.

Measured here, sweeping the outlier fraction: compressed bits per value for
plain FOR vs patched FOR (PFOR), the chosen offset width, the patch count,
and the crossover point where patching stops paying off.
"""

import pytest

from repro.bench import ExperimentReport
from repro.schemes import FrameOfReference, PatchedFrameOfReference
from repro.workloads import step_with_outliers

from conftest import N_ROWS, print_report

SEGMENT_LENGTH = 128
OUTLIER_FRACTIONS = [0.0, 0.001, 0.01, 0.05, 0.20]


def _column(outlier_fraction):
    return step_with_outliers(N_ROWS // 2, segment_length=SEGMENT_LENGTH, step=500,
                              noise=16, outlier_fraction=outlier_fraction,
                              outlier_magnitude=1 << 24, seed=33)


@pytest.mark.parametrize("outlier_fraction", [0.01])
def test_e6_pfor_compression(benchmark, outlier_fraction):
    column = _column(outlier_fraction)
    form = benchmark(PatchedFrameOfReference(segment_length=SEGMENT_LENGTH).compress, column)
    assert form.constituent_length("patch_positions") > 0


@pytest.mark.parametrize("outlier_fraction", [0.01])
def test_e6_pfor_decompression(benchmark, outlier_fraction):
    column = _column(outlier_fraction)
    scheme = PatchedFrameOfReference(segment_length=SEGMENT_LENGTH)
    form = scheme.compress(column)
    assert benchmark(scheme.decompress, form).equals(column)


def test_e6_outlier_fraction_sweep(benchmark):
    """Bits/value for FOR vs PFOR as the outlier (L0) fraction grows."""
    report = ExperimentReport(
        "E6", "Patched model (PFOR) vs plain FOR as the outlier fraction sweeps")

    def measure():
        rows = []
        for fraction in OUTLIER_FRACTIONS:
            column = _column(fraction)
            for_form = FrameOfReference(segment_length=SEGMENT_LENGTH).compress(column)
            pfor_scheme = PatchedFrameOfReference(segment_length=SEGMENT_LENGTH)
            pfor_form = pfor_scheme.compress(column)
            assert pfor_scheme.decompress(pfor_form).equals(column)
            rows.append({
                "outlier_fraction": fraction,
                "for_bits_per_value": round(for_form.bits_per_value(), 2),
                "pfor_bits_per_value": round(pfor_form.bits_per_value(), 2),
                "for_offset_bits": for_form.parameters["offsets_width"],
                "pfor_offset_bits": pfor_form.parameters["offsets_width"],
                "patch_fraction": round(pfor_scheme.patch_fraction(pfor_form), 4),
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for row in rows:
        report.add_row(**row)
    report.add_note("with no outliers the two schemes coincide; with a few, PFOR keeps "
                    "narrow offsets and pays per patch; with many, patching loses its edge")
    print_report(report)

    by_fraction = {row["outlier_fraction"]: row for row in rows}
    # No outliers: identical width, no patches, (near-)identical size.
    clean = by_fraction[0.0]
    assert clean["patch_fraction"] == 0.0
    assert clean["pfor_bits_per_value"] <= clean["for_bits_per_value"] + 0.1
    # Few outliers: plain FOR's offsets blow up to the outlier magnitude, PFOR's don't.
    sparse = by_fraction[0.01]
    assert sparse["for_offset_bits"] >= 20
    assert sparse["pfor_offset_bits"] <= 12
    assert sparse["pfor_bits_per_value"] < 0.6 * sparse["for_bits_per_value"]
    # The PFOR advantage shrinks as the outlier fraction grows.
    advantages = [row["for_bits_per_value"] - row["pfor_bits_per_value"] for row in rows]
    assert advantages[1] >= advantages[0] - 0.1
    assert advantages[-1] <= max(advantages)
