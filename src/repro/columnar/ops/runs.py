"""Run-structure operators: detecting runs and run boundaries.

These operators are the *compression-side* counterparts of the paper's
Algorithm 1: where decompression expands ``(lengths, values)`` back into a
flat column, compression must first find where runs begin and how long they
are.  They are also reused by the query engine to aggregate directly over
the run domain without decompressing (experiment E10).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...errors import OperatorError
from ..column import Column
from .registry import register_operator


@register_operator("RunStartsMask", 1, "boolean mask marking the first element of each run",
                   category="runs")
def run_starts_mask(col: Column, name: Optional[str] = None) -> Column:
    """Boolean mask which is true exactly at positions where a new run begins.

    >>> from repro.columnar.ops.generate import sequence
    >>> run_starts_mask(sequence([5, 5, 7, 7, 7, 5])).to_pylist()
    [True, False, True, False, False, True]
    """
    values = col.values
    if len(values) == 0:
        return Column.adopt(np.empty(0, dtype=bool), name=name)
    mask = np.empty(len(values), dtype=bool)
    mask[0] = True
    np.not_equal(values[1:], values[:-1], out=mask[1:])
    return Column.adopt(mask, name=name)


@register_operator("RunEndPositions", 1, "exclusive end position of each run", category="runs")
def run_end_positions(col: Column, name: Optional[str] = None) -> Column:
    """Exclusive end position of every run; the last element equals ``len(col)``.

    This is exactly the ``run_positions`` column of the paper's RPE scheme
    (§II-A): the inclusive prefix sum of the run lengths.
    """
    values = col.values
    if len(values) == 0:
        return Column.adopt(np.empty(0, dtype=np.int64), name=name)
    starts = np.flatnonzero(run_starts_mask(col).values)
    ends = np.empty(len(starts), dtype=np.int64)
    ends[:-1] = starts[1:]
    ends[-1] = len(values)
    return Column.adopt(ends, name=name)


@register_operator("RunLengths", 1, "length of each run", category="runs")
def run_lengths(col: Column, name: Optional[str] = None) -> Column:
    """Length of every maximal run of equal values.

    >>> from repro.columnar.ops.generate import sequence
    >>> run_lengths(sequence([5, 5, 7, 7, 7, 5])).to_pylist()
    [2, 3, 1]
    """
    values = col.values
    if len(values) == 0:
        return Column.adopt(np.empty(0, dtype=np.int64), name=name)
    starts = np.flatnonzero(run_starts_mask(col).values)
    lengths = np.empty(len(starts), dtype=np.int64)
    lengths[:-1] = np.diff(starts)
    lengths[-1] = len(values) - starts[-1]
    return Column.adopt(lengths, name=name)


@register_operator("RunValues", 1, "representative value of each run", category="runs")
def run_values(col: Column, name: Optional[str] = None) -> Column:
    """The value of every maximal run (one element per run).

    >>> from repro.columnar.ops.generate import sequence
    >>> run_values(sequence([5, 5, 7, 7, 7, 5])).to_pylist()
    [5, 7, 5]
    """
    values = col.values
    if len(values) == 0:
        return Column.adopt(np.empty(0, dtype=col.dtype), name=name)
    starts = np.flatnonzero(run_starts_mask(col).values)
    return Column.adopt(values[starts], name=name or col.name)


@register_operator("SearchSorted", 2, "per key, how many sorted values precede it",
                   cost_weight=2.0, category="runs")
def search_sorted(col: Column, keys: Column, side: str = "left",
                  name: Optional[str] = None) -> Column:
    """For every key, how many elements of the sorted *col* are below it
    (``side="left"``) or not above it (``side="right"``): over a column's run
    ends, ``side="right"`` is the index of the run holding each position.  A
    key outside ``[0, col[-1])`` is held by no run: an error, as for ``Gather``.

    >>> from repro.columnar.ops.generate import sequence
    >>> search_sorted(sequence([3, 5, 9]), sequence([0, 3, 8]), side="right").to_pylist()
    [0, 1, 2]
    """
    top = col.values[-1] if len(col) else 0
    if len(keys) and (keys.values.min() < 0 or keys.values.max() >= top):
        raise OperatorError(f"SearchSorted() keys out of range [0, {top}): "
                            f"min={keys.values.min()}, max={keys.values.max()}")
    found = np.searchsorted(col.values, keys.values, side=side).astype(np.int64, copy=False)
    return Column.adopt(found, name=name)

