"""Tests for predicate evaluation directly on compressed forms."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.engine import RangeBounds, kernels
from repro.engine.kernels import range_mask_on_dict, range_mask_on_for
from repro.errors import QueryError
from repro.schemes import (
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    PatchedFrameOfReference,
    RunLengthEncoding,
    RunPositionEncoding,
    StepFunctionModel,
)


def reference_mask(column: Column, bounds: RangeBounds) -> np.ndarray:
    values = column.values
    return (values >= bounds.low) & (values <= bounds.high)


class TestRunDomainPushdown:
    @pytest.mark.parametrize("scheme", [RunLengthEncoding(), RunPositionEncoding()])
    def test_mask_matches_reference(self, runs_data, scheme):
        bounds = RangeBounds(50, 120)
        form = scheme.compress(runs_data)
        mask, stats = kernels.filter_range(scheme, form, bounds)
        assert np.array_equal(mask, reference_mask(runs_data, bounds))
        assert stats.rows_decoded == 0
        assert stats.runs_total == form.parameter("num_runs")


class TestSegmentDomainPushdown:
    @pytest.mark.parametrize("scheme", [
        FrameOfReference(segment_length=64),
        FrameOfReference(segment_length=64, reference="mid"),
        PatchedFrameOfReference(segment_length=64),
    ])
    def test_mask_matches_reference(self, smooth_data, scheme):
        lo = int(np.percentile(smooth_data.values, 30))
        hi = int(np.percentile(smooth_data.values, 70))
        bounds = RangeBounds(lo, hi)
        form = scheme.compress(smooth_data)
        mask, stats = kernels.filter_range(scheme, form, bounds)
        assert np.array_equal(mask, reference_mask(smooth_data, bounds))
        assert stats.segments_total == form.parameter("num_segments")

    def test_pfor_patches_respected(self, outlier_data):
        """Patched rows must be compared against their true (patched) values."""
        values = outlier_data.values
        lo, hi = int(values.min()), int(np.percentile(values, 90))
        bounds = RangeBounds(lo, hi)
        scheme = PatchedFrameOfReference(segment_length=128)
        form = scheme.compress(outlier_data)
        assert form.parameter("patch_count") > 0
        mask, __ = kernels.filter_range(scheme, form, bounds)
        assert np.array_equal(mask, reference_mask(outlier_data, bounds))

    def test_selective_predicate_skips_segments(self, smooth_data):
        values = smooth_data.values
        lo = int(values.min())
        hi = lo + int((values.max() - values.min()) * 0.05)
        scheme = FrameOfReference(segment_length=64)
        __, stats = kernels.filter_range(scheme, scheme.compress(smooth_data), RangeBounds(lo, hi))
        assert stats.segments_skipped > 0
        assert stats.rows_decoded < len(smooth_data)

    def test_whole_domain_predicate_accepts_everything(self, smooth_data):
        values = smooth_data.values
        scheme = FrameOfReference(segment_length=64)
        span = int(values.max()) - int(values.min())
        # Widen the range by (more than) the largest possible conservative
        # segment upper bound (ref + 2**width - 1) so every segment is accepted.
        mask, stats = kernels.filter_range(
            scheme, scheme.compress(smooth_data),
            RangeBounds(int(values.min()) - 2 * span - 1, int(values.max()) + 2 * span + 1))
        assert mask.all()
        assert stats.rows_decoded == 0
        assert stats.segments_accepted == stats.segments_total

    def test_stepfunction_model_conservative(self):
        col = Column(np.repeat([100, 200, 300], 64))
        scheme = StepFunctionModel(segment_length=64)
        form = scheme.compress(col)
        mask, stats = range_mask_on_for(scheme, form, RangeBounds(150, 250))
        assert np.array_equal(mask, (col.values >= 150) & (col.values <= 250))

    def test_wide_offset_segments_not_wrongly_rejected(self):
        """Regression: the old ``(1 << min(width, 62)) - 1`` span understated
        the bounds of ``offsets_width >= 63`` segments, so a predicate aimed
        at a wide segment's upper half rejected the whole segment."""
        high = (1 << 62) + 1_000
        values = np.zeros(256, dtype=np.int64)
        values[17] = high
        values[200] = high - 3
        column = Column(values)
        scheme = FrameOfReference(segment_length=128)
        form = scheme.compress(column)
        assert int(form.parameter("offsets_width")) >= 63  # the regression setup

        bounds = RangeBounds(high - 10, high + 10)
        mask, stats = kernels.filter_range(scheme, form, bounds)
        assert np.array_equal(mask, reference_mask(column, bounds))
        assert mask[17] and mask[200]

    def test_wide_offset_segments_not_wrongly_accepted(self):
        """The understated span could also blanket-accept a wide segment for
        a predicate that excludes its true upper values."""
        high = (1 << 62) + 1_000
        values = np.zeros(128, dtype=np.int64)
        values[5] = high
        column = Column(values)
        scheme = FrameOfReference(segment_length=128)

        bounds = RangeBounds(0, 1 << 61)
        mask, __ = kernels.filter_range(scheme, scheme.compress(column), bounds)
        assert np.array_equal(mask, reference_mask(column, bounds))
        assert not mask[5]

    def test_saturating_bounds_never_overflow(self):
        """Every value a segment decodes to — its reference plus any offset of
        the width, wrapped in int64 as decoding wraps it — lies in the
        segment's bounds, and a segment whose values wrap bounds nothing."""
        from repro.schemes.for_ import saturating_segment_bounds

        top = np.iinfo(np.int64).max
        bottom = np.iinfo(np.int64).min
        refs = np.array([0, top - 10, bottom + 10], dtype=np.int64)
        for width in (0, 1, 32, 62, 63, 64):
            stored = np.unique(np.array([0, 1, (1 << width) - 2, (1 << width) - 1],
                                        dtype=object).clip(0, (1 << width) - 1)).astype(np.uint64)
            for zigzag in (False, True):
                low, high = saturating_segment_bounds(refs, width, zigzag)
                offsets = (stored >> np.uint64(1)).astype(np.int64) \
                    ^ -(stored & np.uint64(1)).astype(np.int64) if zigzag \
                    else stored.astype(np.int64)
                decoded = refs[:, None] + offsets[None, :]
                assert np.all(low[:, None] <= decoded) and np.all(decoded <= high[:, None])
                bounded = (low != bottom) | (high != top)
                assert bounded[0] or width == 64
                for ref, bounds_something in zip(refs.tolist(), bounded):
                    wraps = not bottom <= ref + int(offsets.min()) \
                        <= ref + int(offsets.max()) <= top
                    assert not (wraps and bounds_something)
        # width >= 63 zigzag admits everything
        low, high = saturating_segment_bounds(refs, 64, zigzag=True)
        assert np.all(low == bottom) and np.all(high == top)

    def test_wrong_scheme_rejected(self, smooth_data):
        with pytest.raises(QueryError):
            range_mask_on_for(Delta(), Delta().compress(smooth_data), RangeBounds(0, 1))


class TestDictPushdown:
    def test_mask_matches_reference(self, categorical_data):
        values = categorical_data.values
        lo, hi = int(np.percentile(values, 20)), int(np.percentile(values, 80))
        bounds = RangeBounds(lo, hi)
        scheme = DictionaryEncoding()
        form = scheme.compress(categorical_data)
        mask, __ = range_mask_on_dict(scheme, form, bounds)
        assert np.array_equal(mask, reference_mask(categorical_data, bounds))

    def test_aligned_codes_layout(self, categorical_data):
        bounds = RangeBounds(0, int(categorical_data.values.max()))
        scheme = DictionaryEncoding(codes_layout="aligned")
        form = scheme.compress(categorical_data)
        mask, __ = range_mask_on_dict(scheme, form, bounds)
        assert mask.all()

    def test_wrong_scheme_rejected(self, categorical_data):
        with pytest.raises(QueryError):
            range_mask_on_dict(Delta(), Delta().compress(categorical_data), RangeBounds(0, 1))


class TestDispatch:
    def test_dispatches_by_scheme(self, runs_data, smooth_data, categorical_data):
        bounds = RangeBounds(0, 10**9)
        for scheme, data in ((RunLengthEncoding(), runs_data),
                             (FrameOfReference(), smooth_data),
                             (DictionaryEncoding(), categorical_data)):
            assert kernels.filter_range(scheme, scheme.compress(data),
                                        bounds) is not None

    def test_unsupported_scheme_returns_none(self, monotone_data):
        scheme = Delta()
        assert kernels.filter_range(scheme, scheme.compress(monotone_data),
                                    RangeBounds(0, 1)) is None
