"""Tests for the model+residual schemes: FOR, STEPFUNCTION, PFOR, LINEAR, POLY."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.errors import SchemeParameterError
from repro.schemes import (
    FrameOfReference,
    PatchedFrameOfReference,
    PiecewiseLinear,
    PiecewisePolynomial,
    StepFunctionModel)


class TestFrameOfReference:
    def test_roundtrip_min_reference(self, smooth_data):
        scheme = FrameOfReference(segment_length=128)
        assert scheme.roundtrip(smooth_data).equals(smooth_data)

    def test_roundtrip_mid_reference(self, smooth_data):
        scheme = FrameOfReference(segment_length=128, reference="mid")
        assert scheme.roundtrip(smooth_data).equals(smooth_data)

    def test_roundtrip_first_reference(self, smooth_data):
        scheme = FrameOfReference(segment_length=128, reference="first")
        assert scheme.roundtrip(smooth_data).equals(smooth_data)

    def test_roundtrip_aligned_offsets(self, smooth_data):
        scheme = FrameOfReference(segment_length=128, offsets_layout="aligned")
        assert scheme.roundtrip(smooth_data).equals(smooth_data)

    def test_compiled_matches_interpreted(self, smooth_data):
        scheme = FrameOfReference(segment_length=64)
        form = scheme.compress(smooth_data)
        assert scheme.decompress(form).equals(smooth_data)
        assert scheme.decompress(form).equals(scheme.decompress_interpreted(form))

    def test_refs_column_length(self, smooth_data):
        scheme = FrameOfReference(segment_length=100)
        form = scheme.compress(smooth_data)
        expected_segments = (len(smooth_data) + 99) // 100
        assert len(form.constituent("refs")) == expected_segments
        assert form.parameter("num_segments") == expected_segments

    def test_min_reference_gives_nonnegative_offsets(self, smooth_data):
        form = FrameOfReference(segment_length=64, offsets_layout="aligned").compress(smooth_data)
        assert not form.parameter("offsets_zigzag")

    def test_mid_reference_halves_offset_width(self):
        rng = np.random.default_rng(3)
        col = Column(rng.integers(0, 1 << 12, 4096).astype(np.int64))
        width_min = FrameOfReference(segment_length=128, reference="min") \
            .compress(col).parameter("offsets_width")
        width_mid = FrameOfReference(segment_length=128, reference="mid") \
            .compress(col).parameter("offsets_width")
        # Signed mid offsets use zig-zag, so widths end up comparable; the
        # mid reference must never be *wider* than min by more than the sign bit.
        assert width_mid <= width_min + 1

    @pytest.mark.parametrize("values", [
        np.uint64(2**63) + np.random.default_rng(3).integers(0, 1_000, 1_000).astype(np.uint64),
        2**62 + np.random.default_rng(4).integers(-500, 500, 1_000),
    ], ids=["uint64-above-2^63", "int64-near-2^62"])
    def test_mid_reference_is_exact_at_the_dtype_limits(self, values):
        """The midpoint is ``min + (max - min) // 2`` in integers, so offsets
        spanning 1 000 stay about 10 bits wide where the values are huge.
        (Taken as ``(min + max) / 2.0`` it wrapped in uint64 and rounded in
        float64, and the offsets were stored 64 bits wide.)"""
        column = Column(values)
        scheme = FrameOfReference(segment_length=128, reference="mid")
        form = scheme.compress(column)
        assert form.parameter("offsets_width") <= 11
        assert scheme.decompress(form).equals(column, check_dtype=True)
        assert scheme.decompress_interpreted(form).equals(column, check_dtype=True)

    def test_segment_length_one(self, smooth_data):
        scheme = FrameOfReference(segment_length=1)
        assert scheme.roundtrip(smooth_data).equals(smooth_data)

    def test_segment_length_larger_than_column(self):
        col = Column([5, 8, 6])
        scheme = FrameOfReference(segment_length=100)
        assert scheme.roundtrip(col).equals(col)

    def test_invalid_parameters(self):
        with pytest.raises(SchemeParameterError):
            FrameOfReference(segment_length=0)
        with pytest.raises(SchemeParameterError):
            FrameOfReference(reference="median")

    def test_plan_follows_algorithm_two(self, smooth_data):
        scheme = FrameOfReference(segment_length=64, offsets_layout="aligned",
                                  faithful_plan=True)
        form = scheme.compress(smooth_data)
        ops_used = [s.op for s in scheme.decompression_plan(form).steps]
        # Constant ones, position scan, segment division, reference gather, final add.
        assert "Gather" in ops_used and "Elementwise" in ops_used
        assert ops_used[-1] == "Elementwise"

    def test_faithful_and_iota_plans_agree(self, smooth_data):
        faithful = FrameOfReference(segment_length=64, faithful_plan=True)
        direct = FrameOfReference(segment_length=64, faithful_plan=False)
        form = faithful.compress(smooth_data)
        assert faithful.decompress(form).equals(direct.decompress(form))

    def test_packed_offsets_smaller_than_aligned(self, smooth_data):
        packed = FrameOfReference(segment_length=128, offsets_layout="packed") \
            .compress(smooth_data).compressed_size_bytes()
        aligned = FrameOfReference(segment_length=128, offsets_layout="aligned") \
            .compress(smooth_data).compressed_size_bytes()
        assert packed <= aligned

    def test_segment_bounds_cover_values(self, smooth_data):
        scheme = FrameOfReference(segment_length=128)
        form = scheme.compress(smooth_data)
        low, high = FrameOfReference.segment_bounds(form)
        seg = np.arange(len(smooth_data)) // 128
        values = smooth_data.values.astype(np.int64)
        assert np.all(values >= low[seg])
        assert np.all(values <= high[seg])

    def test_negative_data(self):
        col = Column(np.array([-100, -50, -75, -60, -110, -90], dtype=np.int64))
        scheme = FrameOfReference(segment_length=3)
        assert scheme.roundtrip(col).equals(col)

    def test_empty_column(self, empty_column):
        scheme = FrameOfReference()
        assert len(scheme.decompress(scheme.compress(empty_column))) == 0


class TestStepFunction:
    def test_is_lossy(self):
        assert not StepFunctionModel().is_lossless

    def test_exact_on_true_step_functions(self):
        col = Column(np.repeat([100, 200, 300], 64))
        scheme = StepFunctionModel(segment_length=64, reference="min")
        form = scheme.compress(col)
        assert scheme.decompress(form).equals(col)
        assert scheme.approximation_error(form, col) == 0

    def test_approximation_error_bounded_by_segment_range(self, smooth_data):
        scheme = StepFunctionModel(segment_length=64, reference="min")
        form = scheme.compress(smooth_data)
        error = scheme.approximation_error(form, smooth_data)
        seg = np.arange(len(smooth_data)) // 64
        ranges = [np.ptp(smooth_data.values[seg == s]) for s in np.unique(seg)]
        assert error <= max(ranges)

    def test_residuals_reconstruct_exactly(self, smooth_data):
        scheme = StepFunctionModel(segment_length=128)
        form = scheme.compress(smooth_data)
        evaluated = scheme.decompress(form)
        residuals = scheme.residuals(form, smooth_data)
        reconstructed = evaluated.values.astype(np.int64) + residuals.values
        assert np.array_equal(reconstructed, smooth_data.values.astype(np.int64))

    def test_compiled_matches_interpreted(self, smooth_data):
        scheme = StepFunctionModel(segment_length=128)
        form = scheme.compress(smooth_data)
        refs = form.constituent("refs").values
        expected = refs[np.arange(len(smooth_data)) // 128]
        assert np.array_equal(scheme.decompress(form).values, expected)
        assert scheme.decompress(form).equals(scheme.decompress_interpreted(form))

    def test_compressed_size_is_tiny(self, smooth_data):
        form = StepFunctionModel(segment_length=128).compress(smooth_data)
        assert form.compressed_size_bytes() < smooth_data.nbytes / 16


class TestPatchedFOR:
    def test_roundtrip_with_outliers(self, outlier_data):
        scheme = PatchedFrameOfReference(segment_length=128)
        assert scheme.roundtrip(outlier_data).equals(outlier_data)

    def test_compiled_matches_interpreted(self, outlier_data):
        scheme = PatchedFrameOfReference(segment_length=128)
        form = scheme.compress(outlier_data)
        assert scheme.decompress(form).equals(outlier_data)
        assert scheme.decompress(form).equals(scheme.decompress_interpreted(form))

    def test_outliers_become_patches(self, outlier_data):
        scheme = PatchedFrameOfReference(segment_length=128, width_quantile=0.95)
        form = scheme.compress(outlier_data)
        assert form.parameter("patch_count") > 0
        assert scheme.patch_fraction(form) < 0.1

    def test_no_patches_on_clean_data(self, smooth_data):
        scheme = PatchedFrameOfReference(segment_length=128, width_quantile=1.0)
        form = scheme.compress(smooth_data)
        assert form.parameter("patch_count") == 0
        assert scheme.decompress(form).equals(smooth_data)

    def test_beats_plain_for_on_outlier_data(self, outlier_data):
        pfor_size = PatchedFrameOfReference(segment_length=128) \
            .compress(outlier_data).compressed_size_bytes()
        for_size = FrameOfReference(segment_length=128) \
            .compress(outlier_data).compressed_size_bytes()
        assert pfor_size < for_size

    def test_explicit_width(self, outlier_data):
        scheme = PatchedFrameOfReference(segment_length=128, offset_width=8)
        form = scheme.compress(outlier_data)
        assert form.parameter("configured_width") == 8
        assert scheme.decompress(form).equals(outlier_data)

    def test_invalid_parameters(self):
        with pytest.raises(SchemeParameterError):
            PatchedFrameOfReference(segment_length=0)
        with pytest.raises(SchemeParameterError):
            PatchedFrameOfReference(offset_width=99)
        with pytest.raises(SchemeParameterError):
            PatchedFrameOfReference(width_quantile=0.0)

    def test_empty_column(self, empty_column):
        scheme = PatchedFrameOfReference()
        assert len(scheme.decompress(scheme.compress(empty_column))) == 0


class TestPiecewiseLinearAndPolynomial:
    def test_linear_roundtrip(self, trending_data):
        scheme = PiecewiseLinear(segment_length=128)
        assert scheme.roundtrip(trending_data).equals(trending_data)

    def test_polynomial_roundtrip(self, trending_data):
        scheme = PiecewisePolynomial(segment_length=128, degree=2)
        assert scheme.roundtrip(trending_data).equals(trending_data)

    def test_compiled_matches_interpreted(self, trending_data):
        for scheme in (PiecewiseLinear(segment_length=64),
                       PiecewisePolynomial(segment_length=64, degree=3)):
            form = scheme.compress(trending_data)
            assert scheme.decompress(form).equals(trending_data)
            assert scheme.decompress(form).equals(scheme.decompress_interpreted(form))

    def test_linear_beats_for_on_trending_data(self, trending_data):
        linear_width = PiecewiseLinear(segment_length=128) \
            .compress(trending_data).parameter("offsets_width")
        for_width = FrameOfReference(segment_length=128) \
            .compress(trending_data).parameter("offsets_width")
        assert linear_width < for_width

    def test_exact_on_perfect_lines(self):
        col = Column((7 * np.arange(512) + 3).astype(np.int64))
        form = PiecewiseLinear(segment_length=128).compress(col)
        assert form.parameter("offsets_width") <= 2
        assert PiecewiseLinear(segment_length=128).decompress(form).equals(col)

    def test_polynomial_is_no_wider_than_linear_on_a_large_constant(self):
        """POLY fits each segment less its first value: fitting 2**60 as is
        lost its low bits to rounding and stored 11-bit offsets, not 1."""
        col = Column(np.full(64, 2**60, dtype=np.int64))
        widths = {}
        for scheme in (PiecewisePolynomial(8, degree=2), PiecewiseLinear(8)):
            form = scheme.compress(col)
            assert scheme.decompress(form).equals(col)
            assert scheme.decompress_interpreted(form).equals(col)
            widths[scheme.name] = form.parameter("offsets_width")
        assert widths["POLY"] <= widths["LINEAR"] == 1

    def test_coefficient_constituents(self, trending_data):
        form = PiecewisePolynomial(segment_length=128, degree=2).compress(trending_data)
        assert set(form.columns) >= {"coeff_0", "coeff_1", "coeff_2", "offsets"}

    def test_roundtrip_aligned_offsets(self, trending_data):
        scheme = PiecewiseLinear(segment_length=128, offsets_layout="aligned")
        assert scheme.roundtrip(trending_data).equals(trending_data)

    def test_negative_data(self):
        col = Column(np.array([-500, -490, -481, -470, -460, -450], dtype=np.int64))
        assert PiecewiseLinear(segment_length=3).roundtrip(col).equals(col)

    def test_short_final_segment(self):
        col = Column(np.arange(100, dtype=np.int64) * 3 + 17)
        scheme = PiecewiseLinear(segment_length=64)
        assert scheme.roundtrip(col).equals(col)

    def test_invalid_parameters(self):
        with pytest.raises(SchemeParameterError):
            PiecewisePolynomial(degree=0)
        with pytest.raises(SchemeParameterError):
            PiecewisePolynomial(segment_length=0)

    def test_empty_column(self, empty_column):
        scheme = PiecewiseLinear()
        assert len(scheme.decompress(scheme.compress(empty_column))) == 0
