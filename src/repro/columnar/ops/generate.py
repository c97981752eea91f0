"""Column-generating operators: ``Constant``, ``Iota``, ``Zeros``, ``Ones``.

These are the "leaves" of many decompression plans.  Algorithm 1 of the paper
(RLE decompression) starts by materialising a column of ones and a column of
zeros; Algorithm 2 (FOR decompression) materialises a constant column holding
the segment length.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ...errors import OperatorError
from ..column import Column
from .registry import register_operator


@register_operator("Constant", 0, "a column of n copies of a constant value", category="generate")
def constant(value: Any, length: int, dtype: Any = None, name: Optional[str] = None) -> Column:
    """Return a column of *length* copies of *value*.

    >>> constant(7, 4).to_pylist()
    [7, 7, 7, 7]
    """
    if length < 0:
        raise OperatorError(f"Constant() length must be non-negative, got {length}")
    if dtype is None:
        dtype = np.asarray(value).dtype
        if np.issubdtype(dtype, np.integer):
            dtype = np.int64
    return Column.adopt(np.full(length, value, dtype=dtype), name=name)


@register_operator("Zeros", 0, "a column of n zeros", category="generate")
def zeros(length: int, dtype: Any = np.int64, name: Optional[str] = None) -> Column:
    """Return a column of *length* zeros."""
    if length < 0:
        raise OperatorError(f"Zeros() length must be non-negative, got {length}")
    return Column.adopt(np.zeros(length, dtype=dtype), name=name)


@register_operator("Ones", 0, "a column of n ones", category="generate")
def ones(length: int, dtype: Any = np.int64, name: Optional[str] = None) -> Column:
    """Return a column of *length* ones."""
    if length < 0:
        raise OperatorError(f"Ones() length must be non-negative, got {length}")
    return Column.adopt(np.ones(length, dtype=dtype), name=name)


@register_operator("Iota", 0, "the identity column 0, 1, ..., n-1", category="generate")
def iota(length: int, start: int = 0, step: int = 1, dtype: Any = np.int64,
         name: Optional[str] = None) -> Column:
    """Return the arithmetic sequence ``start, start+step, ...`` of *length* elements.

    With the default arguments this is the *position* (a.k.a. ``id``) column
    used by Algorithm 2 to compute which FOR segment each element belongs to.

    >>> iota(5).to_pylist()
    [0, 1, 2, 3, 4]
    >>> iota(4, start=10, step=2).to_pylist()
    [10, 12, 14, 16]
    """
    if length < 0:
        raise OperatorError(f"Iota() length must be non-negative, got {length}")
    stop = start + step * length
    return Column(np.arange(start, stop, step, dtype=dtype)[:length], name=name)


@register_operator("Sequence", 0, "an explicit literal column", category="generate")
def sequence(values, dtype: Any = None, name: Optional[str] = None) -> Column:
    """Materialise an explicit list of values as a column (a literal)."""
    return Column(np.asarray(values, dtype=dtype), name=name)
