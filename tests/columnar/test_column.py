"""Tests for repro.columnar.column.Column."""

import numpy as np
import pytest

from repro.columnar import Column, as_column, concat_columns
from repro.errors import ColumnError


class TestConstruction:
    def test_from_list(self):
        col = Column([1, 2, 3], name="x")
        assert len(col) == 3
        assert col.name == "x"
        assert col.to_pylist() == [1, 2, 3]

    def test_from_numpy_preserves_dtype(self):
        col = Column(np.array([1, 2, 3], dtype=np.uint16))
        assert col.dtype == np.uint16
        assert col.width_bits == 16

    def test_dtype_override(self):
        col = Column([1, 2, 3], dtype=np.int32)
        assert col.dtype == np.int32

    def test_from_column_copies_name(self):
        original = Column([1, 2], name="orig")
        wrapped = Column(original)
        assert wrapped.name == "orig"
        assert wrapped.equals(original)

    def test_rejects_two_dimensional(self):
        with pytest.raises(ColumnError):
            Column(np.zeros((2, 2)))

    def test_rejects_object_dtype(self):
        with pytest.raises(ColumnError):
            Column(np.array(["a", "b"], dtype=object))

    @pytest.mark.parametrize("dtype", ["m8[s]", "M8[s]", "c16", "U2"])
    def test_rejects_dtypes_outside_integer_float_bool(self, dtype):
        # timedelta64 included: NumPy files it under np.signedinteger.
        values = np.zeros(2, dtype=dtype)
        for build in (Column, Column.adopt, Column.wrap_readonly):
            with pytest.raises(ColumnError, match="unsupported column dtype"):
                build(values)

    def test_bool_columns_allowed(self):
        col = Column([True, False, True])
        assert col.dtype == np.bool_

    def test_from_pylist(self):
        assert Column.from_pylist(range(4)).to_pylist() == [0, 1, 2, 3]

    def test_empty(self):
        col = Column.empty(np.int32, name="e")
        assert len(col) == 0
        assert col.dtype == np.int32


class TestImmutability:
    def test_values_are_read_only(self):
        col = Column([1, 2, 3])
        with pytest.raises(ValueError):
            col.values[0] = 99

    def test_to_numpy_returns_writable_copy(self):
        col = Column([1, 2, 3])
        arr = col.to_numpy()
        arr[0] = 99
        assert col[0] == 1

    def test_source_array_mutation_does_not_leak(self):
        source = np.array([1, 2, 3])
        col = Column(source)
        source[0] = 99
        assert col[0] == 1


class TestAccess:
    def test_scalar_indexing_returns_python_scalar(self):
        col = Column([10, 20, 30])
        assert col[1] == 20
        assert isinstance(col[1], int)

    def test_negative_indexing(self):
        assert Column([1, 2, 3])[-1] == 3

    def test_slicing_returns_column(self):
        col = Column([1, 2, 3, 4], name="x")
        sliced = col[1:3]
        assert isinstance(sliced, Column)
        assert sliced.to_pylist() == [2, 3]
        assert sliced.name == "x"

    def test_iteration(self):
        assert [int(v) for v in Column([5, 6])] == [5, 6]

    def test_repr_contains_name_and_length(self):
        text = repr(Column([1, 2, 3], name="abc"))
        assert "abc" in text and "n=3" in text


class TestEqualityAndConversion:
    def test_equals_same_values_different_dtype(self):
        assert Column([1, 2], dtype=np.int32).equals(Column([1, 2], dtype=np.int64))

    def test_equals_check_dtype(self):
        a = Column([1, 2], dtype=np.int32)
        b = Column([1, 2], dtype=np.int64)
        assert not a.equals(b, check_dtype=True)

    def test_equals_different_lengths(self):
        assert not Column([1]).equals(Column([1, 2]))

    def test_equals_names_ignored(self):
        assert Column([1], name="a").equals(Column([1], name="b"))

    def test_equals_non_column(self):
        assert not Column([1]).equals([1])

    def test_float_equality_uses_allclose(self):
        a = Column([1.0, 2.0])
        b = Column([1.0 + 1e-12, 2.0])
        assert a.equals(b)

    def test_empty_columns_equal(self):
        assert Column.empty().equals(Column.empty())


class TestDerivedQuantities:
    def test_min_max(self):
        col = Column([5, -2, 9])
        assert col.min() == -2
        assert col.max() == 9

    def test_min_of_empty_raises(self):
        with pytest.raises(ColumnError):
            Column.empty().min()

    def test_is_sorted(self):
        assert Column([1, 1, 2, 5]).is_sorted()
        assert not Column([2, 1]).is_sorted()
        assert Column.empty().is_sorted()

    def test_narrowest_dtype_unsigned(self):
        assert Column([0, 255]).narrowest_dtype() == np.uint8
        assert Column([0, 256]).narrowest_dtype() == np.uint16

    def test_narrowest_dtype_signed(self):
        assert Column([-1, 100]).narrowest_dtype() == np.int8

    def test_logical_bits_per_value(self):
        assert Column([0, 7]).logical_bits_per_value() == 3
        assert Column([-4, 3]).logical_bits_per_value() == 3

    def test_nbytes(self):
        assert Column(np.zeros(4, dtype=np.int64)).nbytes == 32

    def test_rename_shares_buffer(self):
        col = Column([1, 2], name="a")
        renamed = col.rename("b")
        assert renamed.name == "b"
        assert renamed.values is col.values

    def test_astype(self):
        assert Column([1, 2]).astype(np.uint8).dtype == np.uint8


class TestHelpers:
    def test_as_column_passthrough(self):
        col = Column([1])
        assert as_column(col) is col

    def test_as_column_rename(self):
        col = Column([1], name="a")
        assert as_column(col, name="b").name == "b"

    def test_as_column_from_list(self):
        assert as_column([1, 2]).to_pylist() == [1, 2]

    def test_concat_columns(self):
        out = concat_columns([Column([1, 2]), Column([3])])
        assert out.to_pylist() == [1, 2, 3]

    def test_concat_columns_empty_list_raises(self):
        with pytest.raises(ColumnError):
            concat_columns([])
