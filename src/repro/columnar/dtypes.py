"""Dtype and bit-width helpers for the columnar substrate.

Lightweight compression is, to a large extent, about *widths*: null
suppression (NS) stores values in the narrowest width that can represent
them, frame-of-reference (FOR) makes values narrow by subtracting a nearby
reference, DELTA makes them narrow by subtracting the previous element.
This module centralises the width arithmetic used throughout the library:

* how many bits a value (or a range of values) needs,
* the narrowest NumPy integer dtype for a given bit width,
* logical vs physical sizes of columns.

All functions operate on plain integers or NumPy arrays and never mutate
their inputs.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from ..errors import ColumnError

#: Integer dtypes the library considers "physical" storage widths, narrowest
#: first.  Unsigned widths are used for non-negative data (offsets, lengths,
#: dictionary codes); signed widths for general integer data (deltas can be
#: negative).
UNSIGNED_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)
SIGNED_DTYPES = (np.int8, np.int16, np.int32, np.int64)

#: Bit widths corresponding to the physical dtypes above.
PHYSICAL_BIT_WIDTHS = (8, 16, 32, 64)

IntLike = Union[int, np.integer]


def is_integer_dtype(dtype: np.dtype) -> bool:
    """Return ``True`` when *dtype* is a (signed or unsigned) integer dtype."""
    return np.issubdtype(np.dtype(dtype), np.integer)


def is_unsigned_dtype(dtype: np.dtype) -> bool:
    """Return ``True`` when *dtype* is an unsigned integer dtype."""
    return np.issubdtype(np.dtype(dtype), np.unsignedinteger)


def is_float_dtype(dtype: np.dtype) -> bool:
    """Return ``True`` when *dtype* is a floating-point dtype."""
    return np.issubdtype(np.dtype(dtype), np.floating)


def sum_accumulator(dtype: np.dtype) -> type:
    """What an integer or boolean sum accumulates in (exact mod 2**64)."""
    return np.uint64 if is_unsigned_dtype(dtype) else np.int64


def dtype_bits(dtype: np.dtype) -> int:
    """Return the physical width of *dtype* in bits (e.g. 32 for ``int32``)."""
    return np.dtype(dtype).itemsize * 8


def bits_for_unsigned(value: IntLike) -> int:
    """Return the number of bits needed to represent non-negative *value*.

    By convention zero needs one bit (a width-0 column cannot distinguish
    anything, but a run of zeros still occupies one bit per element under a
    bit-packed NS encoding).

    >>> bits_for_unsigned(0)
    1
    >>> bits_for_unsigned(1)
    1
    >>> bits_for_unsigned(255)
    8
    >>> bits_for_unsigned(256)
    9
    """
    value = int(value)
    if value < 0:
        raise ColumnError(f"bits_for_unsigned() requires a non-negative value, got {value}")
    return max(1, value.bit_length())


def bits_for_signed(value: IntLike) -> int:
    """Return the number of bits needed for *value* in two's complement.

    >>> bits_for_signed(0)
    1
    >>> bits_for_signed(-1)
    1
    >>> bits_for_signed(127)
    8
    >>> bits_for_signed(-128)
    8
    >>> bits_for_signed(128)
    9
    """
    value = int(value)
    if value >= 0:
        return value.bit_length() + 1 if value else 1
    return (-value - 1).bit_length() + 1 if value != -1 else 1


def bits_for_range(lo: IntLike, hi: IntLike) -> int:
    """Bits needed to represent any value in the inclusive range [*lo*, *hi*]
    as a non-negative offset from *lo*.

    This is the quantity that determines the offset width of a FOR segment
    whose reference is the segment minimum.

    >>> bits_for_range(100, 100)
    1
    >>> bits_for_range(0, 255)
    8
    >>> bits_for_range(-4, 3)
    3
    """
    lo, hi = int(lo), int(hi)
    if hi < lo:
        raise ColumnError(f"bits_for_range() requires lo <= hi, got [{lo}, {hi}]")
    return bits_for_unsigned(hi - lo)


def bits_needed_unsigned(values: Union[np.ndarray, Iterable[int]]) -> int:
    """Bits needed to store every element of *values* as an unsigned integer."""
    arr = np.asarray(values)
    if arr.size == 0:
        return 1
    mn = int(arr.min())
    if mn < 0:
        raise ColumnError("bits_needed_unsigned() requires non-negative data")
    return bits_for_unsigned(int(arr.max()))


def bits_needed_signed(values: Union[np.ndarray, Iterable[int]]) -> int:
    """Bits needed to store every element of *values* as a signed integer."""
    arr = np.asarray(values)
    if arr.size == 0:
        return 1
    return max(bits_for_signed(int(arr.min())), bits_for_signed(int(arr.max())))


def narrowest_unsigned_dtype(bits: int) -> np.dtype:
    """Return the narrowest physical unsigned dtype holding *bits* bits.

    >>> narrowest_unsigned_dtype(1) == np.dtype(np.uint8)
    True
    >>> narrowest_unsigned_dtype(12) == np.dtype(np.uint16)
    True
    """
    if bits <= 0:
        raise ColumnError(f"bit width must be positive, got {bits}")
    for dtype, width in zip(UNSIGNED_DTYPES, PHYSICAL_BIT_WIDTHS):
        if bits <= width:
            return np.dtype(dtype)
    raise ColumnError(f"no unsigned dtype can hold {bits} bits")


def narrowest_signed_dtype(bits: int) -> np.dtype:
    """Return the narrowest physical signed dtype holding *bits* bits
    (two's-complement, so the sign bit counts).
    """
    if bits <= 0:
        raise ColumnError(f"bit width must be positive, got {bits}")
    for dtype, width in zip(SIGNED_DTYPES, PHYSICAL_BIT_WIDTHS):
        if bits <= width:
            return np.dtype(dtype)
    raise ColumnError(f"no signed dtype can hold {bits} bits")


def narrowest_dtype_for(values: np.ndarray) -> np.dtype:
    """Return the narrowest physical integer dtype that can hold *values*.

    Non-negative data gets an unsigned dtype, data with negative elements a
    signed one.  Float data is returned unchanged (lightweight integer
    narrowing does not apply).
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return np.dtype(np.uint8)
    if is_float_dtype(arr.dtype):
        return arr.dtype
    if int(arr.min()) >= 0:
        return narrowest_unsigned_dtype(bits_needed_unsigned(arr))
    return narrowest_signed_dtype(bits_needed_signed(arr))


def packed_size_bits(num_values: int, bits_per_value: int) -> int:
    """Size in bits of *num_values* values bit-packed at *bits_per_value*."""
    if num_values < 0 or bits_per_value < 0:
        raise ColumnError("sizes must be non-negative")
    return num_values * bits_per_value


def packed_size_bytes(num_values: int, bits_per_value: int) -> int:
    """Size in bytes (rounded up to whole bytes) of a bit-packed buffer."""
    bits = packed_size_bits(num_values, bits_per_value)
    return (bits + 7) // 8


def stored_size_bytes(num_values: int, bits_per_value: int, layout: str = "packed") -> int:
    """Bytes of *num_values* values bit-packed, or — ``"aligned"`` — held in
    the narrowest unsigned dtype of at least *bits_per_value* bits."""
    if layout == "aligned":
        return num_values * narrowest_unsigned_dtype(bits_per_value).itemsize
    return packed_size_bytes(num_values, bits_per_value)
