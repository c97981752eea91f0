"""The :class:`Column` — the single data container of the library.

The paper insists on viewing compressed forms as *"pure" columns, stripped
bare of implementation-specific adornments* (headers, block padding, ...).
Accordingly the whole library passes around a single, very plain container:
a named, typed, one-dimensional, immutable array of values.

Columns wrap a NumPy array.  All columnar operators (:mod:`repro.columnar.ops`)
consume and produce Columns; compression schemes map one Column to a bundle
of Columns (:class:`repro.schemes.base.CompressedForm`) and back.

Who may skip the copy.  ``Column(values)`` copies a writeable array or a
view, because its caller may still write it.  :meth:`Column.adopt` is for the
*producer* of an array (an operator that just computed it and hands over its
only reference) and :meth:`Column.wrap_readonly` for read-only views of
storage nobody mutates; each copies when its condition does not hold.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from ..errors import ColumnError
from . import dtypes as _dt

ArrayLike = Union[np.ndarray, Sequence[int], Sequence[float], "Column"]


class Column:
    """An immutable, typed, one-dimensional column of values.

    Parameters
    ----------
    values:
        Anything :func:`numpy.asarray` accepts, as long as the result is
        one-dimensional and of integer, floating or boolean dtype.
    name:
        Optional human-readable name, used in plans, storage and query
        results.  The name is metadata only: two columns with equal values
        but different names compare equal under :meth:`equals`.
    dtype:
        Optional dtype override; values are converted (safely) if given.

    Notes
    -----
    The underlying buffer is marked read-only, so accidentally mutating a
    column through its ``values`` attribute raises instead of silently
    corrupting shared data — columns are shared freely between compressed
    forms, plans and query operators.
    """

    __slots__ = ("_values", "_name", "_derived")

    def __init__(self, values: ArrayLike, name: Optional[str] = None, dtype: Any = None):
        if isinstance(values, Column):
            arr = values.values if dtype is None else values.values.astype(dtype)
            if name is None:
                name = values.name
        else:
            arr = np.asarray(values, dtype=dtype)
        _check_column_array(arr)
        arr = arr.copy() if arr.base is not None or arr.flags.writeable else arr
        arr.setflags(write=False)
        self._values = arr
        self._name = name

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_pylist(values: Iterable[Any], name: Optional[str] = None, dtype: Any = None) -> "Column":
        """Build a column from a plain Python iterable."""
        return Column(np.asarray(list(values), dtype=dtype), name=name)

    @staticmethod
    def empty(dtype: Any = np.int64, name: Optional[str] = None) -> "Column":
        """An empty column of the given dtype."""
        return Column(np.empty(0, dtype=dtype), name=name)

    @staticmethod
    def adopt(values: np.ndarray, name: Optional[str] = None) -> "Column":
        """Freeze and wrap, without copying, an array its producer owns
        outright — just computed, no other reference or view kept — if it
        owns its buffer; a view or an array over a foreign buffer is copied.
        The freeze is on *values* itself: an accepted array comes back
        read-only (a rejected one as it was)."""
        if values.base is None and values.flags.owndata:
            _check_column_array(values)
            values.setflags(write=False)
            return Column.wrap_readonly(values, name=name)
        return Column(values, name=name)

    @staticmethod
    def wrap_readonly(values: np.ndarray, name: Optional[str] = None) -> "Column":
        """Wrap *values* without copying, trusting the caller's buffer:
        zero-copy views over read-only storage (``np.memmap`` slices from the
        packed file format, :mod:`repro.io`).  The caller guarantees the
        backing buffer is never mutated for the lifetime of the column.
        Writeable arrays are still copied — only already-read-only views
        take the zero-copy path.
        """
        arr = np.asarray(values)
        _check_column_array(arr)
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        column = Column.__new__(Column)
        column._values = arr
        column._name = name
        return column

    def cached(self, key: Any, factory) -> Any:
        """The memoised derived artifact *key* (its statistics); a column is
        immutable, so what was derived from it never goes stale."""
        try:
            derived = self._derived
        except AttributeError:  # unset until first use: construction pays nothing
            derived = self._derived = {}
        if key not in derived:
            derived[key] = factory()
        return derived[key]

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #

    @property
    def values(self) -> np.ndarray:
        """The underlying (read-only) NumPy array."""
        return self._values

    @property
    def name(self) -> Optional[str]:
        """The column's name, or ``None`` if unnamed."""
        return self._name

    @property
    def dtype(self) -> np.dtype:
        """The NumPy dtype of the column's values."""
        return self._values.dtype

    @property
    def nbytes(self) -> int:
        """Physical size of the column's buffer in bytes."""
        return int(self._values.nbytes)

    @property
    def width_bits(self) -> int:
        """Physical width of a single element, in bits."""
        return _dt.dtype_bits(self._values.dtype)

    def __len__(self) -> int:
        return int(self._values.shape[0])

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __getitem__(self, item: Any) -> Any:
        """Scalar indexing returns a Python scalar; slicing returns a Column."""
        result = self._values[item]
        if isinstance(result, np.ndarray):
            return Column(result, name=self._name)
        return result.item() if hasattr(result, "item") else result

    def __repr__(self) -> str:
        label = self._name or "<unnamed>"
        preview = np.array2string(self._values[:8], separator=", ")
        suffix = ", ..." if len(self) > 8 else ""
        return f"Column({label!r}, n={len(self)}, dtype={self.dtype}, {preview}{suffix})"

    # ------------------------------------------------------------------ #
    # Comparison and conversion
    # ------------------------------------------------------------------ #

    def equals(self, other: "Column", check_dtype: bool = False) -> bool:
        """Value equality (optionally also requiring identical dtypes)."""
        if not isinstance(other, Column):
            return False
        if len(self) != len(other):
            return False
        if check_dtype and self.dtype != other.dtype:
            return False
        if len(self) == 0:
            return True
        if _dt.is_float_dtype(self.dtype) or _dt.is_float_dtype(other.dtype):
            return bool(np.allclose(self._values, other._values, equal_nan=True))
        return bool(np.array_equal(self._values, other._values))

    def __eq__(self, other: object) -> bool:  # pragma: no cover - thin wrapper
        if isinstance(other, Column):
            return self.equals(other)
        return NotImplemented

    def __hash__(self) -> int:
        # Columns are immutable; a cheap structural hash is enough for use in
        # sets of plan inputs.  Collisions only cost an equality check.
        return hash((len(self), str(self.dtype)))

    def to_numpy(self) -> np.ndarray:
        """Return a *writable copy* of the column's values."""
        return self._values.copy()

    def to_pylist(self) -> list:
        """Return the values as a plain Python list."""
        return self._values.tolist()

    # ------------------------------------------------------------------ #
    # Convenience derived quantities
    # ------------------------------------------------------------------ #

    def rename(self, name: Optional[str]) -> "Column":
        """Return the same values under a different name (no copy)."""
        clone = Column.__new__(Column)
        clone._values = self._values
        clone._name = name
        return clone

    def astype(self, dtype: Any) -> "Column":
        """Return a column with the values converted to *dtype*."""
        return Column.adopt(self._values.astype(dtype), name=self._name)

    def min(self) -> Any:
        """Minimum value (raises on an empty column)."""
        if len(self) == 0:
            raise ColumnError("min() of an empty column")
        return self._values.min().item()

    def max(self) -> Any:
        """Maximum value (raises on an empty column)."""
        if len(self) == 0:
            raise ColumnError("max() of an empty column")
        return self._values.max().item()

    def is_sorted(self) -> bool:
        """True when the values are non-decreasing."""
        if len(self) <= 1:
            return True
        return bool(np.all(self._values[1:] >= self._values[:-1]))

    def narrowest_dtype(self) -> np.dtype:
        """The narrowest physical integer dtype able to hold the values."""
        return _dt.narrowest_dtype_for(self._values)

    def logical_bits_per_value(self) -> int:
        """Minimum bits per value under an ideal (bit-packed) NS encoding."""
        if len(self) == 0:
            return 1
        if _dt.is_float_dtype(self.dtype):
            return self.width_bits
        if int(self._values.min()) >= 0:
            return _dt.bits_needed_unsigned(self._values)
        return _dt.bits_needed_signed(self._values)


def _check_column_array(arr: np.ndarray) -> None:
    if arr.ndim != 1:
        raise ColumnError(f"a Column must be one-dimensional, got shape {arr.shape}")
    if arr.dtype.kind not in "iufb":  # integer, float or bool
        raise ColumnError(f"unsupported column dtype: {arr.dtype}")


def as_column(values: ArrayLike, name: Optional[str] = None) -> Column:
    """Coerce *values* to a :class:`Column` (no copy when already a Column)."""
    if isinstance(values, Column):
        return values if name is None else values.rename(name)
    return Column(values, name=name)


def concat_columns(columns: Sequence[Column], name: Optional[str] = None) -> Column:
    """Concatenate columns end to end, promoting dtypes as NumPy would."""
    if not columns:
        raise ColumnError("concat_columns() requires at least one column")
    arrays = [c.values for c in columns]
    return Column.adopt(np.concatenate(arrays), name=name or columns[0].name)
