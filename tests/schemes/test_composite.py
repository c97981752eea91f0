"""Tests for scheme composition (Cascade) and the compressed-form container."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.errors import DecompressionError, SchemeParameterError
from repro.schemes import (
    Cascade,
    Delta,
    Identity,
    NullSuppression,
    RunLengthEncoding,
    RunPositionEncoding,
    VariableWidth,
    ensure_lossless_roundtrip,
    make_cascade,
    make_scheme,
    available_schemes,
)


class TestCompressedForm:
    def test_constituent_access(self, small_column):
        form = RunLengthEncoding().compress(small_column)
        assert form.constituent("values").to_pylist() == [7, 9, 5]
        with pytest.raises(DecompressionError):
            form.constituent("nonexistent")

    def test_parameter_access(self, small_column):
        form = RunLengthEncoding().compress(small_column)
        assert form.constituent_length("values") == 3
        assert form.parameters == {}  # a run count is the values' length

    def test_size_accounting(self, small_column):
        form = RunLengthEncoding(narrow_lengths=False).compress(small_column)
        # 3 runs: values int64 (24 B) + lengths int64 (24 B)
        assert form.compressed_size_bytes() == 48
        assert form.uncompressed_size_bytes() == small_column.nbytes
        assert form.compression_ratio() == pytest.approx(small_column.nbytes / 48)

    def test_bits_per_value(self, small_column):
        form = RunLengthEncoding(narrow_lengths=False).compress(small_column)
        assert form.bits_per_value() == pytest.approx(48 * 8 / len(small_column))

    def test_summary_mentions_scheme_and_ratio(self, small_column):
        text = RunLengthEncoding().compress(small_column).summary()
        assert "RLE" in text and "ratio" in text

    def test_with_constituent_replaces_without_mutation(self, small_column):
        form = RunLengthEncoding().compress(small_column)
        replaced = form.with_constituent("values", Column([1, 2, 3]))
        assert replaced.constituent("values").to_pylist() == [1, 2, 3]
        assert form.constituent("values").to_pylist() == [7, 9, 5]

    def test_constituent_names_include_nested(self, dates_data):
        cascade = Cascade(RunLengthEncoding(), {"values": Delta()})
        form = cascade.compress(dates_data)
        assert set(form.constituent_names()) == {"values", "lengths"}
        assert "values" in form.nested and "values" not in form.columns

    def test_ensure_lossless_roundtrip(self, small_column):
        form = ensure_lossless_roundtrip(RunLengthEncoding(), small_column)
        assert form.scheme == "RLE"


class TestCascade:
    def test_paper_example_rle_then_delta(self, dates_data):
        """§I: RLE on dates, DELTA on run values — much stronger than either alone."""
        composite = Cascade(RunLengthEncoding(), {"values": Delta()})
        composite_ratio = composite.compression_ratio(dates_data)
        rle_ratio = RunLengthEncoding().compression_ratio(dates_data)
        delta_ratio = Delta().compression_ratio(dates_data)
        assert composite_ratio > 2 * max(rle_ratio, delta_ratio)

    def test_roundtrip(self, dates_data):
        composite = Cascade(RunLengthEncoding(),
                            {"values": Delta(), "lengths": NullSuppression()})
        assert composite.decompress(composite.compress(dates_data)).equals(dates_data)

    def test_compiled_matches_interpreted(self, dates_data):
        composite = Cascade(RunLengthEncoding(), {"values": Delta()})
        form = composite.compress(dates_data)
        assert composite.decompress(form).equals(dates_data)
        assert composite.decompress(form).equals(composite.decompress_interpreted(form))

    def test_flat_plan_roundtrip(self, dates_data):
        """The composed decompression is still one flat plan of columnar operators."""
        composite = Cascade(RunLengthEncoding(), {"values": Delta()})
        form = composite.compress(dates_data)
        plan = composite.decompression_plan(form)
        out = plan.evaluate(composite.plan_inputs(form))
        assert np.array_equal(out.values.astype(np.int64),
                              dates_data.values.astype(np.int64))

    def test_flat_plan_contains_both_schemes_operators(self, dates_data):
        composite = Cascade(RunLengthEncoding(), {"values": Delta()})
        form = composite.compress(dates_data)
        counts = composite.decompression_plan(form).operator_counts()
        # Algorithm 1 has two PrefixSums; the spliced DELTA decode adds a third.
        assert counts["PrefixSum"] == 3
        assert counts["Gather"] == 1

    def test_nested_forms_reported_in_size(self, dates_data):
        composite = Cascade(RunLengthEncoding(), {"values": Delta()})
        form = composite.compress(dates_data)
        assert form.compressed_size_bytes() > 0
        assert form.compressed_size_bytes() < dates_data.nbytes

    def test_name_and_describe(self):
        composite = Cascade(RunLengthEncoding(), {"values": Delta()})
        assert composite.name == "RLE∘[values=DELTA]"
        assert "DELTA" in composite.describe()

    def test_identity_inner_schemes_are_dropped(self):
        composite = Cascade(RunLengthEncoding(), {"values": Identity()})
        assert composite.name == "RLE"
        assert composite.inner == {}

    def test_unknown_constituent_rejected(self):
        with pytest.raises(SchemeParameterError):
            Cascade(RunLengthEncoding(), {"bogus": Delta()})

    def test_double_nesting(self, dates_data):
        inner = Cascade(Delta(narrow=False), {"deltas": VariableWidth()})
        composite = Cascade(RunLengthEncoding(), {"values": inner})
        assert composite.decompress(composite.compress(dates_data)).equals(dates_data)

    def test_multiple_inner_schemes_with_same_constituent_names(self, dates_data):
        """Two DELTA inner schemes both expose a 'deltas' input; namespacing must keep
        them apart in the composed plan."""
        composite = Cascade(RunPositionEncoding(),
                            {"values": Delta(), "run_positions": Delta()})
        form = composite.compress(dates_data)
        plan = composite.decompression_plan(form)
        out = plan.evaluate(composite.plan_inputs(form))
        assert np.array_equal(out.values.astype(np.int64),
                              dates_data.values.astype(np.int64))

    def test_lossless_flag_propagates(self):
        from repro.schemes import StepFunctionModel

        assert Cascade(RunLengthEncoding(), {"values": Delta()}).is_lossless
        assert not Cascade(RunLengthEncoding(), {"values": StepFunctionModel()}).is_lossless

    def test_missing_nested_form_rejected(self, dates_data):
        composite = Cascade(RunLengthEncoding(), {"values": Delta()})
        form = composite.compress(dates_data)
        form.nested.clear()
        with pytest.raises(DecompressionError):
            composite.decompress(form)

    def test_convenience_constructors(self, dates_data):
        a = Cascade.rle_then_delta_on_values()
        b = Cascade.rpe_with_delta_positions()
        assert a.decompress(a.compress(dates_data)).equals(dates_data)
        assert b.decompress(b.compress(dates_data)).equals(dates_data)

    def test_an_inner_plan_that_is_the_identity_splices(self, monotone_data, tmp_path):
        """Aligned NS without a transform decompresses in zero steps (its
        output is its input): the outer plan reads that input in place of
        its constituent, on both decompress paths and through a packed file."""
        from repro.io import load_table, save_table
        from repro.storage import Table

        inner = NullSuppression(mode="aligned")
        composite = Cascade(Delta(), {"deltas": inner})
        form = composite.compress(monotone_data)
        inner_plan = inner.decompression_plan(form.nested["deltas"])
        assert inner_plan.output in inner_plan.inputs and not inner_plan.steps
        assert "deltas.values" in composite.decompression_plan(form).inputs
        assert composite.decompress(form).equals(monotone_data)
        assert composite.decompress_interpreted(form).equals(monotone_data)

        table = Table.from_columns({"v": monotone_data}, schemes={"v": composite},
                                   chunk_size=1_000)
        loaded = load_table(save_table(table, tmp_path / "identity.rpk"))
        assert loaded.column("v").chunks[0].scheme.describe() == composite.describe()
        assert np.array_equal(loaded.column("v").materialize().values, monotone_data.values)


class TestSchemeRegistry:
    def test_available_schemes_cover_the_paper(self):
        names = available_schemes()
        for expected in ("ID", "NS", "DELTA", "RLE", "RPE", "FOR", "DICT",
                         "STEPFUNCTION", "PFOR", "VARWIDTH", "LINEAR", "POLY"):
            assert expected in names

    def test_make_scheme_with_parameters(self):
        scheme = make_scheme("FOR", segment_length=64)
        assert scheme.segment_length == 64

    def test_make_scheme_unknown(self):
        with pytest.raises(SchemeParameterError):
            make_scheme("LZ77")

    def test_make_cascade(self, dates_data):
        composite = make_cascade("RLE", {"values": "DELTA"})
        assert composite.name == "RLE∘[values=DELTA]"
        assert composite.decompress(composite.compress(dates_data)).equals(dates_data)

    def test_make_cascade_with_parameters(self):
        composite = make_cascade("FOR", {"refs": "DELTA"},
                                 outer_parameters={"segment_length": 32},
                                 inner_parameters={"refs": {"narrow": False}})
        assert composite.outer.segment_length == 32
        assert composite.inner["refs"].narrow is False


class TestRestoreCast:
    """The spliced inner plan must restore the constituent's stored dtype.

    ``decompress()`` casts outside the plan, but a cascade feeds the inner
    plan's output straight into the outer plan — packed DICT codes must
    arrive uint8, and narrowed RPE positions must keep their stored width.
    """

    def test_dict_packed_codes_interpret_like_compiled(self):
        composite = make_cascade("DICT", {"codes": "NS"})
        data = Column(np.arange(300, dtype=np.int64) % 7)
        form = composite.compress(data)
        assert composite.decompress(form).equals(data)
        assert composite.decompress_interpreted(form).equals(data)

    def test_cast_step_only_when_dtype_differs(self):
        narrow = make_cascade("DICT", {"codes": "NS"})
        form = narrow.compress(Column(np.arange(64, dtype=np.int64) % 5))
        assert "Cast" in narrow.decompression_plan(form).operator_counts()
        plain = make_cascade("RLE", {"values": "NS"})
        form = plain.compress(Column(np.repeat(np.arange(9, dtype=np.int64), 4)))
        assert "Cast" not in plain.decompression_plan(form).operator_counts()

    def test_mixed_position_widths_do_not_share_a_cast(self):
        # Two chunks of one logical column can narrow run positions to
        # different widths; the compiled-plan cache must not reuse the
        # uint16 restore-cast for the uint32 chunk (65536 would wrap to 0).
        composite = make_cascade("RPE", {"run_positions": "DELTA"})
        short = Column(np.repeat(np.arange(40, dtype=np.int64), 25))
        long = Column(np.repeat(np.arange(40, dtype=np.int64), 1700))
        short_form = composite.compress(short)
        long_form = composite.compress(long)
        assert short_form.nested["run_positions"].original_dtype != \
            long_form.nested["run_positions"].original_dtype
        assert composite.decompress(short_form).equals(short)
        assert composite.decompress(long_form).equals(long)
