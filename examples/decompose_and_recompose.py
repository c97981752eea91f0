#!/usr/bin/env python
"""Decomposing and re-composing schemes — the paper's §II, executable.

Four short acts:

1.  **RLE → RPE by plan surgery.**  Take Algorithm 1, drop its first step,
    and obtain a working decompression plan for Run Position Encoding.
2.  **The §II-A identity.**  Show, on data, that RLE's lengths column *is*
    the DELTA compression of RPE's positions column.
3.  **FOR → STEPFUNCTION + NS.**  Split a FOR form into its coarse model and
    NS-packed residuals, evaluate the model alone (Algorithm 2 truncated),
    and re-assemble the original losslessly.
4.  **Re-composition.**  Swap the residual encoder: fixed-width NS vs
    variable-width vs patches, on data whose residual distribution favours
    each — the paper's metric-driven choice, made by the residual profiler.

Run it with::

    python examples/decompose_and_recompose.py
"""

import numpy as np

from repro import Column
from repro.model import profile_residuals, recommend_residual_encoding
from repro.schemes import (
    Delta,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
    RunPositionEncoding,
    StepFunctionModel,
    VariableWidth,
    build_rle_decompression_plan,
)
from repro.schemes.decomposition import (
    FOR_VIA_STEPFUNCTION,
    RLE_VIA_RPE,
    derive_stepfunction_plan_from_for,
    for_form_to_model_and_residuals,
    reassemble_for_from_model_and_residuals,
)
from repro.workloads import (
    mixed_magnitude_residuals,
    runs_column,
    smooth_measure,
    step_with_outliers,
)


def act_one_plan_surgery() -> None:
    print("=" * 72)
    print("Act 1 — RPE falls out of RLE by dropping one plan step")
    print("=" * 72)
    rle_plan = build_rle_decompression_plan()
    rpe_plan = rle_plan.drop_prefix(["run_positions"],
                                    description="RPE decompression (derived)")
    print("Algorithm 1:")
    print(rle_plan.describe())
    print("\nAfter drop_prefix(['run_positions']):")
    print(rpe_plan.describe())

    column = runs_column(2_000, average_run_length=15.0, seed=1)
    rpe_form = RunPositionEncoding(narrow_positions=False).compress(column)
    out = rpe_plan.evaluate({"run_positions": rpe_form.constituent("run_positions"),
                             "values": rpe_form.constituent("values")})
    assert np.array_equal(out.values.astype(np.int64), column.values)
    print("\nthe derived plan decompresses RPE data correctly: OK\n")


def act_two_rle_identity() -> None:
    print("=" * 72)
    print("Act 2 — RLE ≡ (ID values, DELTA run_positions) ∘ RPE")
    print("=" * 72)
    column = runs_column(5_000, average_run_length=25.0, seed=2)
    rle = RunLengthEncoding(narrow_lengths=False).compress(column)
    rpe = RunPositionEncoding(narrow_positions=False).compress(column)
    delta_of_positions = Delta(narrow=False).compress(rpe.constituent("run_positions"))
    print("first 8 RLE lengths:          ",
          rle.constituent("lengths").to_pylist()[:8])
    print("first 8 RPE positions:        ",
          rpe.constituent("run_positions").to_pylist()[:8])
    print("first 8 DELTA(positions):     ",
          delta_of_positions.constituent("deltas").to_pylist()[:8],
          f"base {delta_of_positions.parameters['base']}")
    # deltas[0] repeats deltas[1]; with the base restored, they are the lengths
    differences = Delta.differences(delta_of_positions)
    print("  ... with base restored:     ", differences.to_pylist()[:8])
    assert rle.constituent("lengths").equals(differences)
    verdict = RLE_VIA_RPE.verify(column)
    print(f"\nidentity verified mechanically: {verdict.holds} ({verdict.details})\n")


def act_three_for_decomposition() -> None:
    print("=" * 72)
    print("Act 3 — FOR ≡ STEPFUNCTION + NS")
    print("=" * 72)
    column = smooth_measure(50_000, noise=48, seed=3)
    for_scheme = FrameOfReference(segment_length=128)
    form = for_scheme.compress(column)
    parts = for_form_to_model_and_residuals(form)
    model_bytes = parts["model"].compressed_size_bytes()
    residual_bytes = parts["residuals"].compressed_size_bytes()
    print(f"FOR form: {form.compressed_size_bytes()} bytes "
          f"= model {model_bytes} bytes + residuals {residual_bytes} bytes")

    truncated = derive_stepfunction_plan_from_for(128)
    approx = truncated.evaluate({
        "refs": form.constituent("refs"),
        "offsets": FrameOfReference(segment_length=128, offsets_layout="aligned")
        .compress(column).constituent("offsets"),
    })
    error = np.abs(approx.values.astype(np.int64) - column.values).max()
    print(f"Algorithm 2 truncated before its addition → step-function approximation, "
          f"max error {error} (< 2^{form.parameters['offsets_width']})")

    rebuilt = reassemble_for_from_model_and_residuals(parts["model"], parts["residuals"])
    assert for_scheme.decompress(rebuilt).equals(column)
    print("re-assembled FOR decompresses losslessly: OK")
    print(f"identity verified mechanically: {FOR_VIA_STEPFUNCTION.verify(column).holds}\n")


def act_four_recompose_residuals() -> None:
    print("=" * 72)
    print("Act 4 — re-composing: choosing the residual encoder from the metric")
    print("=" * 72)
    datasets = {
        "uniform small noise": smooth_measure(100_000, noise=40, seed=4),
        "few huge outliers": step_with_outliers(100_000, noise=0,
                                                outlier_fraction=0.005, seed=5),
        "skewed magnitudes": Column(
            smooth_measure(100_000, noise=6, seed=6).values
            + np.abs(mixed_magnitude_residuals(100_000, small_bits=1, large_bits=18,
                                               large_fraction=0.15, seed=7).values)),
    }
    for label, column in datasets.items():
        model = StepFunctionModel(segment_length=128)
        model_form = model.compress(column)
        residuals = model.residuals(model_form, column)
        profile = profile_residuals(residuals)
        recommendation = recommend_residual_encoding(profile)
        ns_bits = NullSuppression().compress(residuals).bits_per_value()
        vw_bits = VariableWidth().compress(residuals).bits_per_value()
        print(f"{label:22s} L0 fraction {profile.l0_fraction:6.3f}, "
              f"L∞ {profile.max_magnitude:>8d} | "
              f"fixed-NS {ns_bits:6.2f} b/v, var-width {vw_bits:6.2f} b/v "
              f"→ recommended: {recommendation}")


def main() -> None:
    act_one_plan_surgery()
    act_two_rle_identity()
    act_three_for_decomposition()
    act_four_recompose_residuals()


if __name__ == "__main__":
    main()
