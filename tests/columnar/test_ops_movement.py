"""Tests for the movement / selection / run / bit-packing operators."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.columnar import ops
from repro.errors import OperatorError


class TestGatherScatter:
    def test_gather(self):
        out = ops.gather(Column([10, 20, 30]), Column([2, 0, 0, 1]))
        assert out.to_pylist() == [30, 10, 10, 20]

    def test_gather_preserves_value_dtype(self):
        out = ops.gather(Column(np.array([1, 2], dtype=np.uint16)), Column([0, 1, 0]))
        assert out.dtype == np.uint16

    def test_gather_out_of_range(self):
        with pytest.raises(OperatorError):
            ops.gather(Column([1, 2]), Column([2]))
        with pytest.raises(OperatorError):
            ops.gather(Column([1, 2]), Column([-1]))

    def test_gather_requires_integer_indices(self):
        with pytest.raises(OperatorError):
            ops.gather(Column([1, 2]), Column([0.5]))

    def test_scatter(self):
        out = ops.scatter(Column([1, 1]), Column([0, 3]), ops.zeros(5))
        assert out.to_pylist() == [1, 0, 0, 1, 0]

    def test_scatter_does_not_mutate_base(self):
        base = ops.zeros(3)
        ops.scatter(Column([9]), Column([1]), base)
        assert base.to_pylist() == [0, 0, 0]

    def test_scatter_length_mismatch(self):
        with pytest.raises(OperatorError):
            ops.scatter(Column([1]), Column([0, 1]), ops.zeros(3))

    def test_scatter_out_of_range(self):
        with pytest.raises(OperatorError):
            ops.scatter(Column([1]), Column([5]), ops.zeros(3))


class TestStructuralMovement:
    def test_pop_back(self):
        assert ops.pop_back(Column([1, 2, 3])).to_pylist() == [1, 2]

    def test_pop_back_empty_rejected(self):
        with pytest.raises(OperatorError):
            ops.pop_back(Column.empty())

    def test_push_front(self):
        assert ops.push_front(Column([2, 3]), 1).to_pylist() == [1, 2, 3]

    def test_repeat(self):
        assert ops.repeat(Column([7, 9]), Column([3, 2])).to_pylist() == [7, 7, 7, 9, 9]

    def test_repeat_zero_lengths(self):
        assert ops.repeat(Column([7, 9]), Column([0, 2])).to_pylist() == [9, 9]

    @pytest.mark.parametrize("lengths", [
        np.array([1, -1]),
        # what a wrapping AdjacentDifference of non-monotone uint64 ends yields:
        # negative once cast to the intp counts np.repeat takes
        np.array([1, 2**64 - 1], dtype=np.uint64),
    ], ids=["int64", "uint64-wrapped"])
    def test_repeat_negative_length_rejected(self, lengths):
        with pytest.raises(OperatorError):
            ops.repeat(Column([1, 2]), Column(lengths))

    def test_repeat_length_mismatch(self):
        with pytest.raises(OperatorError):
            ops.repeat(Column([1, 2]), Column([1]))

    def test_replicate(self):
        # The step function of fixed-length segments: values[i // each].
        refs = Column([7, 8, 9])
        assert ops.replicate(refs, each=2, count=5).to_pylist() == [7, 7, 8, 8, 9]
        assert ops.replicate(refs, each=2, count=6).to_pylist() == [7, 7, 8, 8, 9, 9]
        assert ops.replicate(refs, each=2 ** 70, count=4).to_pylist() == [7] * 4
        assert ops.replicate(refs, each=1, count=0).to_pylist() == []

    def test_replicate_invalid(self):
        with pytest.raises(OperatorError):
            ops.replicate(Column([7, 8, 9]), each=0, count=5)
        with pytest.raises(OperatorError):
            ops.replicate(Column([7, 8, 9]), each=2, count=-1)
        with pytest.raises(OperatorError, match="cannot fill 7 positions"):
            ops.replicate(Column([7, 8, 9]), each=2, count=7)


class TestSelection:
    def test_compact(self):
        out = ops.compact(Column([1, 2, 3, 4]), Column([True, False, True, False]))
        assert out.to_pylist() == [1, 3]

    def test_compact_requires_bool_mask(self):
        with pytest.raises(OperatorError):
            ops.compact(Column([1, 2]), Column([1, 0]))

    def test_compact_length_mismatch(self):
        with pytest.raises(OperatorError):
            ops.compact(Column([1, 2]), Column([True]))

    def test_between(self):
        out = ops.between(Column([1, 5, 10]), 2, 9)
        assert out.to_pylist() == [False, True, False]

    def test_is_in(self):
        out = ops.is_in(Column([1, 2, 3]), [2, 9])
        assert out.to_pylist() == [False, True, False]

    def test_mask_logic(self):
        a = Column([True, True, False])
        b = Column([True, False, False])
        assert ops.mask_and(a, b).to_pylist() == [True, False, False]
        assert ops.mask_or(a, b).to_pylist() == [True, True, False]
        assert ops.mask_not(b).to_pylist() == [False, True, True]

    def test_count_true(self):
        assert ops.count_true(Column([True, False, True]))[0] == 2


class TestRuns:
    def test_run_starts_mask(self):
        out = ops.run_starts_mask(Column([5, 5, 7, 7, 7, 5]))
        assert out.to_pylist() == [True, False, True, False, False, True]

    def test_run_values_lengths(self):
        col = Column([5, 5, 7, 7, 7, 5])
        assert ops.run_values(col).to_pylist() == [5, 7, 5]
        assert ops.run_lengths(col).to_pylist() == [2, 3, 1]

    def test_run_positions(self):
        col = Column([5, 5, 7, 7, 7, 5])
        assert ops.run_end_positions(col).to_pylist() == [2, 5, 6]

    def test_runs_of_roundtrip(self):
        col = Column([9, 9, 9, 2, 2, 4])
        values, lengths = ops.run_values(col), ops.run_lengths(col)
        assert ops.repeat(values, lengths).to_pylist() == col.to_pylist()

    def test_empty_column_runs(self):
        assert len(ops.run_values(Column.empty())) == 0
        assert len(ops.run_lengths(Column.empty())) == 0

    def test_all_distinct(self):
        col = Column([1, 2, 3])
        assert ops.run_lengths(col).to_pylist() == [1, 1, 1]

    def test_single_run(self):
        col = Column([4, 4, 4])
        assert ops.run_values(col).to_pylist() == [4]
        assert ops.run_lengths(col).to_pylist() == [3]


class TestBitPacking:
    def test_pack_unpack_roundtrip(self):
        values = Column([1, 2, 3, 7, 0, 5])
        packed = ops.pack_bits(values, width=3)
        assert packed.dtype == np.uint8
        out = ops.unpack_bits(packed, width=3, count=6)
        assert out.to_pylist() == values.to_pylist()

    def test_pack_size_is_bit_exact(self):
        packed = ops.pack_bits(Column(np.arange(16)), width=4)
        assert packed.nbytes == 8  # 16 values * 4 bits = 64 bits = 8 bytes

    def test_pack_width_too_narrow(self):
        with pytest.raises(OperatorError):
            ops.pack_bits(Column([8]), width=3)

    def test_pack_rejects_negative(self):
        with pytest.raises(OperatorError):
            ops.pack_bits(Column([-1]), width=8)

    def test_pack_invalid_width(self):
        with pytest.raises(OperatorError):
            ops.pack_bits(Column([1]), width=0)
        with pytest.raises(OperatorError):
            ops.pack_bits(Column([1]), width=65)

    def test_unpack_count_zero(self):
        assert len(ops.unpack_bits(Column(np.empty(0, dtype=np.uint8)), width=3, count=0)) == 0

    def test_unpack_buffer_too_small(self):
        with pytest.raises(OperatorError):
            ops.unpack_bits(Column(np.zeros(1, dtype=np.uint8)), width=8, count=2)

    def test_unpack_requires_uint8(self):
        with pytest.raises(OperatorError):
            ops.unpack_bits(Column([1, 2]), width=3, count=2)

    def test_wide_values_roundtrip(self):
        values = Column([2**40, 2**41 - 1, 0])
        packed = ops.pack_bits(values, width=41)
        assert ops.unpack_bits(packed, width=41, count=3).to_pylist() == values.to_pylist()

    def test_zigzag_roundtrip(self):
        values = Column([0, -1, 1, -2, 2, -1000, 1000])
        encoded = ops.zigzag_encode(values)
        assert int(encoded.values.min()) >= 0
        assert ops.zigzag_decode(encoded).to_pylist() == values.to_pylist()

    def test_zigzag_small_magnitudes_stay_small(self):
        encoded = ops.zigzag_encode(Column([-2, 2]))
        assert int(encoded.values.max()) <= 4

    def test_zigzag_requires_integers(self):
        with pytest.raises(OperatorError):
            ops.zigzag_encode(Column([1.5]))
