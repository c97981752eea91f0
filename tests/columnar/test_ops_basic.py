"""Tests for the generate / scan / elementwise / reduction operators."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.columnar import ops
from repro.errors import OperatorError


class TestGenerate:
    def test_constant(self):
        assert ops.constant(7, 4).to_pylist() == [7, 7, 7, 7]

    def test_constant_zero_length(self):
        assert len(ops.constant(7, 0)) == 0

    def test_constant_negative_length_rejected(self):
        with pytest.raises(OperatorError):
            ops.constant(1, -1)

    def test_constant_dtype(self):
        assert ops.constant(1, 3, dtype=np.uint8).dtype == np.uint8

    def test_zeros_and_ones(self):
        assert ops.zeros(3).to_pylist() == [0, 0, 0]
        assert ops.ones(2).to_pylist() == [1, 1]

    def test_iota(self):
        assert ops.iota(5).to_pylist() == [0, 1, 2, 3, 4]

    def test_iota_start_step(self):
        assert ops.iota(4, start=10, step=2).to_pylist() == [10, 12, 14, 16]

    def test_sequence(self):
        assert ops.sequence([4, 5]).to_pylist() == [4, 5]


class TestScan:
    def test_prefix_sum(self):
        assert ops.prefix_sum(Column([3, 1, 2])).to_pylist() == [3, 4, 6]

    def test_prefix_sum_empty(self):
        assert len(ops.prefix_sum(Column.empty())) == 0

    def test_prefix_sum_promotes_narrow_dtypes(self):
        col = Column(np.full(1000, 255, dtype=np.uint8))
        assert ops.prefix_sum(col)[-1] == 255 * 1000

    def test_exclusive_prefix_sum(self):
        assert ops.exclusive_prefix_sum(Column([3, 1, 2])).to_pylist() == [0, 3, 4]

    def test_exclusive_prefix_sum_initial(self):
        assert ops.exclusive_prefix_sum(Column([1, 1]), initial=10).to_pylist() == [10, 11]

    def test_exclusive_vs_inclusive_relationship(self):
        data = Column([5, 2, 8, 1])
        inclusive = ops.prefix_sum(data).to_pylist()
        exclusive = ops.exclusive_prefix_sum(data).to_pylist()
        assert exclusive == [0] + inclusive[:-1]


class TestElementwise:
    @pytest.mark.parametrize("op, left, right, expected", [
        ("+", [1, 2], [10, 20], [11, 22]),
        ("+", [1, 2], 5, [6, 7]),
        ("-", [5, 5], [1, 2], [4, 3]),
        ("*", [2, 3], 4, [8, 12]),
        ("//", [0, 1, 4, 5], 4, [0, 0, 1, 1]),
        ("%", [0, 1, 4, 5], 4, [0, 1, 0, 1]),
    ], ids=["add-columns", "add-scalar", "subtract", "multiply", "floor-divide", "modulo"])
    def test_arithmetic(self, op, left, right, expected):
        right = Column(right) if isinstance(right, list) else right
        assert ops.elementwise(op, Column(left), right).to_pylist() == expected

    def test_elementwise_named_operation(self):
        assert ops.elementwise("max", Column([1, 9]), Column([5, 3])).to_pylist() == [5, 9]

    def test_elementwise_unknown_operation(self):
        with pytest.raises(OperatorError):
            ops.elementwise("bogus", Column([1]), Column([1]))

    def test_elementwise_length_mismatch(self):
        with pytest.raises(OperatorError):
            ops.elementwise("+", Column([1, 2]), Column([1]))

    def test_comparison_produces_bool(self):
        out = ops.elementwise("<", Column([1, 5]), 3)
        assert out.dtype == np.bool_
        assert out.to_pylist() == [True, False]

    def test_unary_neg_abs(self):
        assert ops.elementwise_unary("neg", Column([1, -2])).to_pylist() == [-1, 2]
        assert ops.elementwise_unary("abs", Column([-3, 3])).to_pylist() == [3, 3]

    def test_unary_round_casts_to_int(self):
        out = ops.elementwise_unary("round", Column([1.4, 2.6]))
        assert out.to_pylist() == [1, 3]
        assert np.issubdtype(out.dtype, np.integer)

    def test_unary_unknown(self):
        with pytest.raises(OperatorError):
            ops.elementwise_unary("bogus", Column([1]))

    def test_adjacent_difference(self):
        assert ops.adjacent_difference(Column([3, 4, 6])).to_pylist() == [3, 1, 2]

    def test_adjacent_difference_inverts_prefix_sum(self):
        data = Column([5, -2, 7, 0, 3])
        assert ops.adjacent_difference(ops.prefix_sum(data)).to_pylist() == data.to_pylist()

    def test_adjacent_difference_empty(self):
        assert len(ops.adjacent_difference(Column.empty())) == 0

    def test_adjacent_difference_uint64_stays_integer(self):
        """Regression: result_type(uint64, int64) is float64, so uint64
        columns silently came back as floats (and lost precision)."""
        big = (1 << 62) + 3
        out = ops.adjacent_difference(Column(np.array([big, big + 5], dtype=np.uint64)))
        assert out.dtype == np.uint64
        assert out.to_pylist() == [big, 5]

    def test_adjacent_difference_uint64_inverts_uint64_prefix_sum(self):
        data = Column(np.array([(1 << 60) + 1, 2, 7], dtype=np.uint64))
        summed = ops.prefix_sum(data, dtype=np.uint64)
        assert ops.adjacent_difference(summed).to_pylist() == data.to_pylist()

    def test_adjacent_difference_small_ints_still_promote(self):
        out = ops.adjacent_difference(Column(np.array([5, 2], dtype=np.uint8)))
        assert out.dtype == np.int64
        assert out.to_pylist() == [5, -3]


class TestReduction:
    def test_sum(self):
        assert ops.sum_(Column([1, 2, 3]))[0] == 6

    def test_sum_empty_is_zero(self):
        assert ops.sum_(Column.empty())[0] == 0

    def test_min_max(self):
        assert ops.min_(Column([4, -1, 9]))[0] == -1
        assert ops.max_(Column([4, -1, 9]))[0] == 9

    def test_min_empty_raises(self):
        with pytest.raises(OperatorError):
            ops.min_(Column.empty())

    def test_count(self):
        assert ops.count(Column([1, 2, 3]))[0] == 3

    def test_reductions_return_length_one_columns(self):
        col = Column([1, 2, 3])
        for fn in (ops.sum_, ops.min_, ops.max_, ops.count):
            out = fn(col)
            assert isinstance(out, Column) and len(out) == 1
