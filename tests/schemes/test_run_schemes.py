"""Tests for the run-based schemes: RLE and RPE (the paper's §II-A pair)."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.engine import kernels
from repro.errors import OperatorError, ReproError
from repro.schemes import (
    RunLengthEncoding,
    RunPositionEncoding,
    build_rle_decompression_plan,
    build_rpe_decompression_plan,
)


class TestRLE:
    def test_constituents(self, small_column):
        form = RunLengthEncoding().compress(small_column)
        assert form.constituent("values").to_pylist() == [7, 9, 5]
        assert form.constituent("lengths").to_pylist() == [3, 2, 4]

    def test_roundtrip_plan(self, small_column):
        scheme = RunLengthEncoding()
        assert scheme.roundtrip(small_column).equals(small_column)

    def test_compiled_matches_interpreted(self, runs_data):
        scheme = RunLengthEncoding()
        form = scheme.compress(runs_data)
        assert scheme.decompress(form).equals(runs_data)
        assert scheme.decompress(form).equals(scheme.decompress_interpreted(form))

    def test_plan_is_algorithm_one(self):
        plan = build_rle_decompression_plan()
        ops_in_order = [step.op for step in plan.steps]
        assert ops_in_order == ["PrefixSum", "PopBack", "Ones", "Zeros", "Scatter",
                                "PrefixSum", "Gather"]
        assert set(plan.inputs) == {"lengths", "values"}

    def test_num_runs_parameter(self, small_column):
        form = RunLengthEncoding().compress(small_column)
        assert form.constituent_length("values") == 3

    def test_narrow_lengths(self, runs_data):
        narrow = RunLengthEncoding(narrow_lengths=True).compress(runs_data)
        wide = RunLengthEncoding(narrow_lengths=False).compress(runs_data)
        assert narrow.compressed_size_bytes() < wide.compressed_size_bytes()
        assert RunLengthEncoding(narrow_lengths=True).decompress(narrow).equals(runs_data)

    def test_ratio_scales_with_run_length(self):
        short = Column(np.repeat(np.arange(500), 2))
        long = Column(np.repeat(np.arange(10), 100))
        assert RunLengthEncoding().compression_ratio(long) > \
            RunLengthEncoding().compression_ratio(short)

    def test_all_distinct_is_worst_case(self):
        col = Column(np.arange(100))
        form = RunLengthEncoding().compress(col)
        assert form.constituent_length("values") == 100
        assert RunLengthEncoding().decompress(form).equals(col)

    def test_single_run(self):
        col = Column([3] * 50)
        form = RunLengthEncoding().compress(col)
        assert form.constituent_length("values") == 1
        assert RunLengthEncoding().decompress(form).equals(col)

    def test_empty_column(self, empty_column):
        scheme = RunLengthEncoding()
        form = scheme.compress(empty_column)
        assert len(scheme.decompress(form)) == 0

    def test_preserves_original_dtype(self):
        col = Column(np.array([4, 4, 9, 9], dtype=np.uint32))
        assert RunLengthEncoding().roundtrip(col).dtype == np.uint32


class TestRPE:
    def test_constituents_are_run_end_positions(self, small_column):
        form = RunPositionEncoding().compress(small_column)
        assert form.constituent("values").to_pylist() == [7, 9, 5]
        assert form.constituent("run_positions").to_pylist() == [3, 5, 9]

    def test_last_position_is_column_length(self, runs_data):
        form = RunPositionEncoding().compress(runs_data)
        assert form.constituent("run_positions")[-1] == len(runs_data)

    def test_roundtrip(self, runs_data):
        scheme = RunPositionEncoding()
        assert scheme.roundtrip(runs_data).equals(runs_data)

    def test_compiled_matches_interpreted(self, runs_data):
        scheme = RunPositionEncoding()
        form = scheme.compress(runs_data)
        assert scheme.decompress(form).equals(runs_data)
        assert scheme.decompress(form).equals(scheme.decompress_interpreted(form))

    def test_plan_is_algorithm_one_without_first_step(self):
        """The paper: apply Algorithm 1 'sans its first operation'."""
        rle_plan = build_rle_decompression_plan()
        rpe_plan = build_rpe_decompression_plan(derive_from_rle=True)
        assert len(rpe_plan) == len(rle_plan) - 1
        assert [s.op for s in rpe_plan.steps] == [s.op for s in rle_plan.steps[1:]]
        assert "run_positions" in rpe_plan.inputs
        assert "lengths" not in rpe_plan.inputs

    def test_direct_and_derived_plans_agree(self, runs_data):
        form = RunPositionEncoding(narrow_positions=False).compress(runs_data)
        inputs = {"run_positions": form.constituent("run_positions"),
                  "values": form.constituent("values")}
        derived = build_rpe_decompression_plan(derive_from_rle=True).evaluate(inputs)
        direct = build_rpe_decompression_plan(derive_from_rle=False).evaluate(inputs)
        assert derived.equals(direct)

    def test_random_access_searches_the_stored_ends(self, small_column):
        """RPE's payoff: its gather plan binary-searches the stored run ends,
        with no prefix sum over the runs first (RLE's plan has one)."""
        scheme = RunPositionEncoding()
        form = scheme.compress(small_column)
        positions = np.arange(len(small_column))[::-1]
        assert np.array_equal(kernels.gather(scheme, form, positions),
                              small_column.values[positions])
        ops = [step.op for step in kernels.query_plan(scheme, form, "gather").plan.steps]
        assert ops == ["SearchSorted", "Gather"]

    def test_random_access_out_of_range(self, small_column):
        scheme = RunPositionEncoding()
        form = scheme.compress(small_column)
        with pytest.raises(OperatorError):
            kernels.gather(scheme, form, [len(small_column)])
        with pytest.raises(OperatorError):
            kernels.gather(scheme, form, [-1])

    def test_rpe_trades_ratio_for_position_width(self, dates_data):
        """RPE's positions need more bits than RLE's lengths (paper's trade-off)."""
        rle_size = RunLengthEncoding().compress(dates_data).compressed_size_bytes()
        rpe_size = RunPositionEncoding().compress(dates_data).compressed_size_bytes()
        assert rpe_size >= rle_size

    def test_empty_column(self, empty_column):
        scheme = RunPositionEncoding()
        assert len(scheme.decompress(scheme.compress(empty_column))) == 0

    def test_single_run(self):
        col = Column([7] * 10)
        form = RunPositionEncoding().compress(col)
        assert form.constituent("run_positions").to_pylist() == [10]
        assert RunPositionEncoding().decompress(form).equals(col)


def _malformed_run_forms():
    """(id, scheme, form): run forms a reader must refuse, never decode."""
    column = Column([7, 7, 7, 9, 9, 5, 5, 5, 5])
    for scheme in (RunLengthEncoding(), RunPositionEncoding()):
        form = scheme.compress(column)
        yield f"{scheme.name}-values-shorter", scheme, \
            form.with_constituent("values", Column([7, 9]))
        yield f"{scheme.name}-values-longer", scheme, \
            form.with_constituent("values", Column([7, 9, 5, 1]))
    rpe = RunPositionEncoding()
    form = rpe.compress(column)
    for dtype in (np.uint8, np.uint32, np.int64):
        positions = Column(np.array([5, 3, 9], dtype=dtype))
        yield f"RPE-non-monotone-{np.dtype(dtype).name}", rpe, \
            form.with_constituent("run_positions", positions)


@pytest.mark.parametrize(
    "scheme, broken",
    [pytest.param(scheme, form, id=label) for label, scheme, form in _malformed_run_forms()])
def test_malformed_run_form_is_refused_by_decompress(scheme, broken):
    """The path that runs carries the form checks: ``decompress`` raises a
    ``ReproError`` and never returns a column for a malformed run form."""
    with pytest.raises(ReproError):
        scheme.decompress(broken)
