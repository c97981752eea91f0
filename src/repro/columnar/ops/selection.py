"""Selection / stream-compaction operators.

These operators implement the "query side" of the paper's argument that
decompression and query execution are made of the same building blocks:
producing boolean selection masks, compacting columns under a mask, and
turning masks into position lists (the late-materialisation currency of
columnar engines).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...errors import OperatorError
from ..column import Column
from .registry import register_operator


def _require_mask(mask: Column, op: str) -> np.ndarray:
    values = mask.values
    if values.dtype != np.bool_:
        raise OperatorError(f"{op}() requires a boolean mask column, got dtype {values.dtype}")
    return values


@register_operator("Compact", 2, "keep only elements where the mask is true",
                   category="selection")
def compact(col: Column, mask: Column, name: Optional[str] = None) -> Column:
    """Stream compaction: keep ``col[i]`` where ``mask[i]`` is true.

    >>> from repro.columnar.ops.generate import sequence
    >>> from repro.columnar.column import Column
    >>> compact(sequence([1, 2, 3, 4]), Column([True, False, True, False])).to_pylist()
    [1, 3]
    """
    values = _require_mask(mask, "Compact")
    if len(col) != len(mask):
        raise OperatorError(
            f"Compact() column and mask must have equal length, got {len(col)} and {len(mask)}"
        )
    return Column.adopt(col.values[values], name=name or col.name)


@register_operator("Between", 1, "boolean mask for lo <= col <= hi", category="selection")
def between(col: Column, lo, hi, name: Optional[str] = None) -> Column:
    """Return the boolean mask of elements within the inclusive range [*lo*, *hi*]."""
    values = col.values
    return Column.adopt((values >= lo) & (values <= hi), name=name)


@register_operator("IsIn", 1, "boolean mask for membership in a literal set",
                   category="selection")
def is_in(col: Column, candidates, name: Optional[str] = None) -> Column:
    """Return the boolean mask of elements contained in *candidates*."""
    cand = np.asarray(list(candidates) if not isinstance(candidates, np.ndarray) else candidates)
    return Column.adopt(np.isin(col.values, cand), name=name)


@register_operator("MaskAnd", 2, "logical AND of two boolean masks", category="selection")
def mask_and(left: Column, right: Column, name: Optional[str] = None) -> Column:
    """Logical AND of two boolean masks."""
    lvals = _require_mask(left, "MaskAnd")
    rvals = _require_mask(right, "MaskAnd")
    if len(left) != len(right):
        raise OperatorError("MaskAnd() masks must have equal length")
    return Column.adopt(lvals & rvals, name=name)


@register_operator("MaskOr", 2, "logical OR of two boolean masks", category="selection")
def mask_or(left: Column, right: Column, name: Optional[str] = None) -> Column:
    """Logical OR of two boolean masks."""
    lvals = _require_mask(left, "MaskOr")
    rvals = _require_mask(right, "MaskOr")
    if len(left) != len(right):
        raise OperatorError("MaskOr() masks must have equal length")
    return Column.adopt(lvals | rvals, name=name)


@register_operator("MaskNot", 1, "logical negation of a boolean mask", category="selection")
def mask_not(mask: Column, name: Optional[str] = None) -> Column:
    """Logical NOT of a boolean mask."""
    values = _require_mask(mask, "MaskNot")
    return Column.adopt(~values, name=name)


@register_operator("CountTrue", 1, "number of true elements in a boolean mask",
                   category="selection")
def count_true(mask: Column, name: Optional[str] = None) -> Column:
    """Return a length-1 column holding the number of true elements of *mask*."""
    values = _require_mask(mask, "CountTrue")
    return Column.adopt(np.asarray([int(values.sum(dtype=np.int64))], dtype=np.int64), name=name)
