"""Reduction operators (aggregates).

Reductions return a length-1 column rather than a bare scalar, so they can
participate in plans uniformly.
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
