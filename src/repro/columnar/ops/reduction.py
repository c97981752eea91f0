"""Reduction operators (aggregates).

Reductions return a length-1 column rather than a bare scalar, so they can
participate in plans uniformly.  The module also exposes scalar convenience
wrappers for direct library use.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...errors import OperatorError
from ..column import Column
from .registry import register_operator


def _require_nonempty(col: Column, op: str) -> None:
    if len(col) == 0:
        raise OperatorError(f"{op}() of an empty column")


@register_operator("Sum", 1, "sum of all elements", category="reduction")
def sum_(col: Column, name: Optional[str] = None) -> Column:
    """Sum of all elements (0 for an empty column), as a length-1 column."""
    dtype = np.int64 if np.issubdtype(col.dtype, np.integer) else np.float64
    return Column.adopt(np.asarray([col.values.sum(dtype=dtype)]), name=name)


@register_operator("Min", 1, "minimum element", category="reduction")
def min_(col: Column, name: Optional[str] = None) -> Column:
    """Minimum element, as a length-1 column."""
    _require_nonempty(col, "Min")
    return Column.adopt(np.asarray([col.values.min()]), name=name)


@register_operator("Max", 1, "maximum element", category="reduction")
def max_(col: Column, name: Optional[str] = None) -> Column:
    """Maximum element, as a length-1 column."""
    _require_nonempty(col, "Max")
    return Column.adopt(np.asarray([col.values.max()]), name=name)


@register_operator("Count", 1, "number of elements", category="reduction")
def count(col: Column, name: Optional[str] = None) -> Column:
    """Number of elements, as a length-1 column."""
    return Column.adopt(np.asarray([len(col)], dtype=np.int64), name=name)


@register_operator("CountDistinct", 1, "number of distinct elements", category="reduction")
def count_distinct(col: Column, name: Optional[str] = None) -> Column:
    """Number of distinct elements, as a length-1 column."""
    return Column.adopt(np.asarray([len(np.unique(col.values))], dtype=np.int64), name=name)


@register_operator("Last", 1, "the last element of a column", category="reduction")
def last(col: Column, name: Optional[str] = None) -> Column:
    """The last element of the column, as a length-1 column.

    Algorithm 1 reads the total uncompressed length ``n`` off the last
    element of the prefix-summed lengths column; this operator is that read.
    """
    _require_nonempty(col, "Last")
    return Column(col.values[-1:], name=name)


@register_operator("First", 1, "the first element of a column", category="reduction")
def first(col: Column, name: Optional[str] = None) -> Column:
    """The first element of the column, as a length-1 column."""
    _require_nonempty(col, "First")
    return Column(col.values[:1], name=name)


@register_operator("Mean", 1, "arithmetic mean of all elements", category="reduction")
def mean(col: Column, name: Optional[str] = None) -> Column:
    """Arithmetic mean of all elements, as a length-1 float column."""
    _require_nonempty(col, "Mean")
    return Column.adopt(np.asarray([col.values.mean()], dtype=np.float64), name=name)


# --------------------------------------------------------------------------- #
# Scalar convenience wrappers (not registered; for direct library use)
# --------------------------------------------------------------------------- #

def scalar_sum(col: Column):
    """Sum of all elements as a Python scalar."""
    return sum_(col)[0]


def scalar_min(col: Column):
    """Minimum element as a Python scalar."""
    return min_(col)[0]


def scalar_max(col: Column):
    """Maximum element as a Python scalar."""
    return max_(col)[0]


def scalar_count_distinct(col: Column) -> int:
    """Number of distinct elements as a Python int."""
    return int(count_distinct(col)[0])
