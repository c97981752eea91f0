"""Tests for the paper's decomposition identities (§II-A and §II-B)."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.errors import DecompressionError
from repro.schemes import (
    Delta,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
    RunPositionEncoding,
    StepFunctionModel,
)
from repro.schemes import decomposition as D


class TestRleRpeIdentity:
    def test_form_conversion_rle_to_rpe(self, runs_data):
        rle_form = RunLengthEncoding(narrow_lengths=False).compress(runs_data)
        rpe_form = D.rle_form_to_rpe_form(rle_form)
        assert rpe_form.scheme == "RPE"
        expected = RunPositionEncoding(narrow_positions=False).compress(runs_data)
        assert rpe_form.constituent("run_positions").equals(
            expected.constituent("run_positions"))
        assert RunPositionEncoding().decompress(rpe_form).equals(runs_data)

    def test_form_conversion_rpe_to_rle(self, runs_data):
        rpe_form = RunPositionEncoding(narrow_positions=False).compress(runs_data)
        rle_form = D.rpe_form_to_rle_form(rpe_form)
        assert rle_form.scheme == "RLE"
        expected = RunLengthEncoding(narrow_lengths=False).compress(runs_data)
        assert rle_form.constituent("lengths").equals(expected.constituent("lengths"))
        assert RunLengthEncoding().decompress(rle_form).equals(runs_data)

    def test_conversions_are_inverse(self, runs_data):
        rle_form = RunLengthEncoding(narrow_lengths=False).compress(runs_data)
        back = D.rpe_form_to_rle_form(D.rle_form_to_rpe_form(rle_form))
        assert back.constituent("lengths").equals(rle_form.constituent("lengths"))
        assert back.constituent("values").equals(rle_form.constituent("values"))

    def test_wrong_scheme_rejected(self, runs_data):
        with pytest.raises(DecompressionError):
            D.rle_form_to_rpe_form(Delta().compress(runs_data))
        with pytest.raises(DecompressionError):
            D.rpe_form_to_rle_form(Delta().compress(runs_data))

    def test_lengths_are_delta_of_positions(self, runs_data):
        """The heart of §II-A: lengths == the differences of DELTA-compressed
        run positions (stored deltas, base restored at index 0)."""
        rpe_form = RunPositionEncoding(narrow_positions=False).compress(runs_data)
        delta_form = Delta(narrow=False).compress(rpe_form.constituent("run_positions"))
        rle_form = RunLengthEncoding(narrow_lengths=False).compress(runs_data)
        lengths = rle_form.constituent("lengths")
        assert Delta.differences(delta_form).equals(lengths, check_dtype=True)
        stored = delta_form.constituent("deltas").values
        assert stored[0] == stored[1] and np.array_equal(stored[1:], lengths.values[1:])

    def test_derived_rpe_plan_structure(self):
        derived = D.derive_rpe_plan_from_rle()
        assert "run_positions" in derived.inputs
        assert all(step.op != "PrefixSum" or step.column_inputs.get("col") != "lengths"
                   for step in derived.steps)

    def test_cascade_over_rpe_roundtrips(self, runs_data):
        cascade = D.rle_as_cascade_over_rpe()
        assert cascade.decompress(cascade.compress(runs_data)).equals(runs_data)

    def test_identity_verifies_on_various_data(self, runs_data, dates_data, small_column):
        for column in (runs_data, dates_data, small_column, Column([1]), Column([2, 2, 2])):
            result = D.RLE_VIA_RPE.verify(column)
            assert result.holds, result.details


class TestForStepfunctionIdentity:
    def test_split_into_model_and_residuals(self, smooth_data):
        form = FrameOfReference(segment_length=64).compress(smooth_data)
        parts = D.for_form_to_model_and_residuals(form)
        assert parts["model"].scheme == "STEPFUNCTION"
        assert parts["residuals"].scheme == "NS"
        model_eval = StepFunctionModel(segment_length=64).decompress(parts["model"])
        residuals = NullSuppression(signed="reject").decompress(parts["residuals"])
        reconstructed = model_eval.values.astype(np.int64) + residuals.values.astype(np.int64)
        assert np.array_equal(reconstructed, smooth_data.values.astype(np.int64))

    def test_reassembly_roundtrips(self, smooth_data):
        for_scheme = FrameOfReference(segment_length=64)
        form = for_scheme.compress(smooth_data)
        parts = D.for_form_to_model_and_residuals(form)
        rebuilt = D.reassemble_for_from_model_and_residuals(parts["model"], parts["residuals"])
        assert for_scheme.decompress(rebuilt).equals(smooth_data)

    def test_wrong_scheme_rejected(self, smooth_data):
        with pytest.raises(DecompressionError):
            D.for_form_to_model_and_residuals(Delta().compress(smooth_data))

    def test_truncated_for_plan_evaluates_model(self, smooth_data):
        segment_length = 64
        truncated = D.derive_stepfunction_plan_from_for(segment_length)
        for_form = FrameOfReference(segment_length=segment_length,
                                    offsets_layout="aligned").compress(smooth_data)
        evaluated = truncated.evaluate({
            "refs": for_form.constituent("refs"),
            "offsets": for_form.constituent("offsets"),
        })
        model = StepFunctionModel(segment_length=segment_length)
        expected = model.decompress(model.compress(smooth_data))
        assert np.array_equal(evaluated.values.astype(np.int64),
                              expected.values.astype(np.int64))

    def test_truncated_plan_has_no_final_addition(self):
        truncated = D.derive_stepfunction_plan_from_for(64)
        assert truncated.steps[-1].op == "Gather"

    def test_identity_verifies_on_various_data(self, smooth_data, trending_data):
        for column in (smooth_data, trending_data, Column([5] * 200),
                       Column(np.arange(100))):
            result = D.FOR_VIA_STEPFUNCTION.verify(column)
            assert result.holds, result.details


class TestIdentityFramework:
    def test_all_identities_listed(self):
        assert len(D.ALL_IDENTITIES) == 2
        names = {identity.name for identity in D.ALL_IDENTITIES}
        assert any("RPE" in name for name in names)
        assert any("STEPFUNCTION" in name for name in names)

    def test_result_reports_individual_checks(self, small_column):
        result = D.RLE_VIA_RPE.verify(small_column)
        assert len(result.details) == len(D.RLE_VIA_RPE.checks)
        assert bool(result) is result.holds

    def test_empty_column_passes(self):
        empty = Column.empty()
        assert D.RLE_VIA_RPE.verify(empty).holds
        assert D.FOR_VIA_STEPFUNCTION.verify(empty).holds
