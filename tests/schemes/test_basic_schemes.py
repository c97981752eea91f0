"""Tests for the simple schemes: ID, NS, DELTA, DICT, VARWIDTH."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.errors import CompressionError, DecompressionError, SchemeParameterError
from repro.schemes import (
    Delta,
    DictionaryEncoding,
    Identity,
    NullSuppression,
    VariableWidth,
)


class TestIdentity:
    def test_roundtrip(self, small_column):
        scheme = Identity()
        assert scheme.roundtrip(small_column).equals(small_column)

    def test_plan_is_empty(self, small_column):
        form = Identity().compress(small_column)
        assert len(Identity().decompression_plan(form)) == 0

    def test_ratio_is_one(self, small_column):
        assert Identity().compress(small_column).compression_ratio() == pytest.approx(1.0)

    def test_accepts_floats(self):
        col = Column([1.5, 2.5])
        assert Identity().roundtrip(col).equals(col)

    def test_wrong_form_rejected(self, small_column):
        form = Identity().compress(small_column)
        with pytest.raises(DecompressionError):
            Delta().decompress(form)


class TestNullSuppression:
    def test_roundtrip_packed(self, small_column):
        scheme = NullSuppression()
        assert scheme.roundtrip(small_column).equals(small_column)

    def test_roundtrip_aligned(self, small_column):
        scheme = NullSuppression(mode="aligned")
        assert scheme.roundtrip(small_column).equals(small_column)

    def test_packed_size_is_bit_exact(self):
        col = Column(np.arange(8, dtype=np.int64))  # values 0..7 -> 3 bits each
        form = NullSuppression().compress(col)
        assert form.compressed_size_bytes() == 3  # 24 bits

    def test_explicit_width(self):
        col = Column([1, 2, 3])
        form = NullSuppression(width=8).compress(col)
        assert form.parameters["width"] == 8

    def test_width_too_narrow_rejected(self):
        with pytest.raises(CompressionError):
            NullSuppression(width=2).compress(Column([100]))

    def test_invalid_width_rejected(self):
        with pytest.raises(SchemeParameterError):
            NullSuppression(width=0)
        with pytest.raises(SchemeParameterError):
            NullSuppression(width=70)

    def test_invalid_mode_rejected(self):
        with pytest.raises(SchemeParameterError):
            NullSuppression(mode="fancy")

    def test_negative_data_zigzag(self):
        col = Column([-5, 3, -1, 0])
        scheme = NullSuppression(signed="zigzag")
        assert scheme.roundtrip(col).equals(col)

    def test_negative_data_bias(self):
        col = Column([-5, 3, -1, 0])
        scheme = NullSuppression(signed="bias")
        form = scheme.compress(col)
        assert form.parameters["transform"] == "bias"
        assert scheme.decompress(form).equals(col)

    def test_negative_data_reject(self):
        with pytest.raises(CompressionError):
            NullSuppression(signed="reject").compress(Column([-1]))

    def test_ratio_better_than_identity(self):
        col = Column(np.arange(1000) % 16)
        assert NullSuppression().compression_ratio(col) > 10

    def test_compiled_matches_interpreted(self, categorical_data):
        scheme = NullSuppression()
        form = scheme.compress(categorical_data)
        assert scheme.decompress(form).equals(categorical_data)
        assert scheme.decompress(form).equals(scheme.decompress_interpreted(form))

    def test_empty_column(self, empty_column):
        scheme = NullSuppression()
        form = scheme.compress(empty_column)
        assert len(scheme.decompress(form)) == 0

    def test_rejects_float_columns(self):
        with pytest.raises(CompressionError):
            NullSuppression().compress(Column([1.5]))

    def test_preserves_original_dtype(self):
        col = Column(np.array([1, 2, 3], dtype=np.uint16))
        assert NullSuppression().roundtrip(col).dtype == np.uint16


class TestDelta:
    def test_roundtrip(self, monotone_data):
        assert Delta().roundtrip(monotone_data).equals(monotone_data)

    def test_deltas_constituent(self):
        """deltas[0] repeats deltas[1]; the base restores the first value."""
        form = Delta(narrow=False).compress(Column([10, 13, 13, 20]))
        assert form.constituent("deltas").to_pylist() == [3, 3, 0, 7]
        assert form.parameters["base"] == 7
        assert Delta.differences(form).to_pylist() == [10, 3, 0, 7]

    def test_plan_is_single_prefix_sum(self, monotone_data):
        form = Delta().compress(monotone_data)
        plan = Delta().decompression_plan(form)
        assert len(plan) == 1
        assert plan.steps[0].op == "PrefixSum"

    def test_narrow_reduces_size_for_smooth_data(self, monotone_data):
        narrow = Delta(narrow=True).compress(monotone_data).compressed_size_bytes()
        wide = Delta(narrow=False).compress(monotone_data).compressed_size_bytes()
        assert narrow < wide

    def test_handles_negative_deltas(self):
        col = Column([100, 50, 75, 10])
        assert Delta().roundtrip(col).equals(col)

    def test_compiled_matches_interpreted(self, monotone_data):
        scheme = Delta()
        form = scheme.compress(monotone_data)
        assert scheme.decompress(form).equals(monotone_data)
        assert scheme.decompress(form).equals(scheme.decompress_interpreted(form))

    def test_empty_column(self, empty_column):
        form = Delta().compress(empty_column)
        assert form.original_length == 0

    def test_single_element(self):
        col = Column([42])
        assert Delta().roundtrip(col).equals(col)


class TestDictionary:
    def test_roundtrip(self, categorical_data):
        assert DictionaryEncoding().roundtrip(categorical_data).equals(categorical_data)

    def test_roundtrip_aligned(self, categorical_data):
        scheme = DictionaryEncoding(codes_layout="aligned")
        assert scheme.roundtrip(categorical_data).equals(categorical_data)

    def test_dictionary_is_sorted_and_distinct(self, categorical_data):
        form = DictionaryEncoding().compress(categorical_data)
        dictionary = form.constituent("dictionary").values
        assert np.array_equal(dictionary, np.unique(categorical_data.values))

    def test_code_width_matches_dictionary_size(self):
        col = Column([10, 20, 30, 10, 20, 30, 10, 20])  # 3 distinct -> 2 bits
        form = DictionaryEncoding().compress(col)
        assert form.parameters["code_width"] == 2

    def test_single_distinct_value(self):
        col = Column([5] * 100)
        scheme = DictionaryEncoding()
        assert scheme.roundtrip(col).equals(col)

    def test_dictionary_fraction_guard(self):
        col = Column(np.arange(100))  # all distinct
        with pytest.raises(CompressionError):
            DictionaryEncoding(max_dictionary_fraction=0.5).compress(col)

    def test_invalid_parameters(self):
        with pytest.raises(SchemeParameterError):
            DictionaryEncoding(codes_layout="bogus")
        with pytest.raises(SchemeParameterError):
            DictionaryEncoding(max_dictionary_fraction=0.0)

    def test_plan_decode_is_gather(self, categorical_data):
        scheme = DictionaryEncoding()
        form = scheme.compress(categorical_data)
        plan = scheme.decompression_plan(form)
        assert plan.steps[-1].op == "Gather"

    def test_range_rewrite_to_codes(self):
        col = Column([10, 20, 30, 40, 20, 30])
        form = DictionaryEncoding().compress(col)
        lo, hi = DictionaryEncoding.rewrite_range_to_codes(form, 15, 35)
        dictionary = form.constituent("dictionary").values
        selected = dictionary[lo:hi]
        assert selected.tolist() == [20, 30]

    def test_compiled_matches_interpreted(self, categorical_data):
        scheme = DictionaryEncoding()
        form = scheme.compress(categorical_data)
        assert scheme.decompress(form).equals(categorical_data)
        assert scheme.decompress(form).equals(scheme.decompress_interpreted(form))

    def test_preserves_original_dtype(self):
        col = Column(np.array([7, 7, 9], dtype=np.int16))
        assert DictionaryEncoding().roundtrip(col).dtype == np.int16


class TestVariableWidth:
    def test_roundtrip_mixed_magnitudes(self):
        col = Column([1, 300, 2, 70000, 5, 2**40])
        assert VariableWidth().roundtrip(col).equals(col)

    def test_roundtrip_negative(self):
        col = Column([-1, 1000, -70000, 3])
        assert VariableWidth().roundtrip(col).equals(col)

    def test_small_values_take_one_byte(self):
        col = Column([1, 2, 3, 4])
        form = VariableWidth().compress(col)
        assert form.constituent("widths").to_pylist() == [1, 1, 1, 1]
        assert len(form.constituent("data")) == 4

    def test_width_grows_with_magnitude(self):
        form = VariableWidth().compress(Column([255, 256, 65535, 65536]))
        assert form.constituent("widths").to_pylist() == [1, 2, 2, 3]

    def test_compiled_matches_interpreted(self, monotone_data):
        scheme = VariableWidth()
        form = scheme.compress(monotone_data)
        assert scheme.decompress(form).equals(monotone_data)
        assert scheme.decompress(form).equals(scheme.decompress_interpreted(form))

    def test_beats_fixed_width_on_skewed_residuals(self):
        from repro.workloads import mixed_magnitude_residuals

        col = mixed_magnitude_residuals(10_000, small_bits=4, large_bits=24,
                                        large_fraction=0.02, seed=5)
        varwidth_size = VariableWidth().compress(col).compressed_size_bytes()
        fixed_size = NullSuppression().compress(col).compressed_size_bytes()
        assert varwidth_size < fixed_size

    def test_empty_column(self, empty_column):
        form = VariableWidth().compress(empty_column)
        assert len(VariableWidth().decompress(form)) == 0
