"""Scan (prefix-aggregate) operators: ``PrefixSum`` and friends.

``PrefixSum`` is the workhorse of the paper's Algorithm 1: it turns run
lengths into run end positions, and it turns a scattered column of run-start
markers into a per-element run index.  The library also provides the
exclusive variant and segmented scans, which show up when decompressing
block-partitioned data.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...errors import OperatorError
from ..column import Column
from .registry import register_operator


@register_operator("PrefixSum", 1, "inclusive prefix sum (scan) of a column", category="scan")
def prefix_sum(col: Column, initial: int = 0, dtype=np.int64,
               name: Optional[str] = None) -> Column:
    """Inclusive prefix sum: ``out[i] = initial + col[0] + ... + col[i]``.

    *initial* (a value of *dtype*) is added into the widened first element
    before the scan, so it costs no pass of its own: DELTA decompresses as
    ``PrefixSum(deltas, initial=base)``.

    >>> from repro.columnar.ops.generate import sequence
    >>> prefix_sum(sequence([3, 1, 2])).to_pylist()
    [3, 4, 6]
    >>> prefix_sum(sequence([3, 1, 2]), initial=10).to_pylist()
    [13, 14, 16]
    """
    out = col.values.astype(dtype)  # widen once, then accumulate where it stands
    if initial:
        out[:1] += initial  # wraps like the scan: an array add, not a scalar one
    np.cumsum(out, dtype=dtype, out=out)
    return Column.adopt(out, name=name or col.name)


@register_operator("ExclusivePrefixSum", 1, "exclusive prefix sum (scan) of a column",
                   category="scan")
def exclusive_prefix_sum(col: Column, initial: int = 0, dtype=np.int64,
                         name: Optional[str] = None) -> Column:
    """Exclusive prefix sum: ``out[i] = initial + col[0] + ... + col[i-1]``.

    The first output element equals *initial*.  For run *lengths* this yields
    run *start* positions directly (whereas the paper's Algorithm 1 obtains
    them as the inclusive prefix sum with the last element popped off and a
    zero pushed in front — both formulations are provided so the
    equivalence can be tested).

    >>> from repro.columnar.ops.generate import sequence
    >>> exclusive_prefix_sum(sequence([3, 1, 2])).to_pylist()
    [0, 3, 4]
    """
    arr = col.values
    out = np.empty(len(arr), dtype=dtype)
    if len(arr):
        out[0] = initial
        np.cumsum(arr[:-1], dtype=dtype, out=out[1:])
        if initial:
            out[1:] += initial
    return Column.adopt(out, name=name or col.name)


@register_operator("PrefixMax", 1, "inclusive prefix maximum of a column", category="scan")
def prefix_max(col: Column, name: Optional[str] = None) -> Column:
    """Inclusive running maximum: ``out[i] = max(col[0..i])``.

    Useful for propagating the most recent "anchor" value to subsequent
    positions, e.g. when decompressing patched or sparse encodings.
    """
    return Column.adopt(np.maximum.accumulate(col.values), name=name or col.name)


@register_operator("SegmentedPrefixSum", 2,
                   "prefix sum restarting at every new segment id", category="scan")
def segmented_prefix_sum(col: Column, segment_ids: Column,
                         name: Optional[str] = None) -> Column:
    """Inclusive prefix sum that restarts whenever ``segment_ids`` changes.

    ``segment_ids`` must be non-decreasing (a standard assumption for
    segmented scans over block-partitioned columns).

    >>> from repro.columnar.ops.generate import sequence
    >>> segmented_prefix_sum(sequence([1, 1, 1, 1]), sequence([0, 0, 1, 1])).to_pylist()
    [1, 2, 1, 2]
    """
    if len(col) != len(segment_ids):
        raise OperatorError(
            f"SegmentedPrefixSum() operands must have equal length, "
            f"got {len(col)} and {len(segment_ids)}"
        )
    values = col.values.astype(np.int64, copy=False)
    seg = segment_ids.values
    if len(values) == 0:
        return Column(np.empty(0, dtype=np.int64), name=name or col.name)
    if np.any(seg[1:] < seg[:-1]):
        raise OperatorError("SegmentedPrefixSum() requires non-decreasing segment ids")
    total = np.cumsum(values, dtype=np.int64)
    # Subtract, from every element, the running total accumulated before its
    # segment started: find the index where each segment starts and propagate
    # the prefix total at that point.
    starts = np.empty(len(values), dtype=bool)
    starts[0] = True
    starts[1:] = seg[1:] != seg[:-1]
    start_offsets = np.where(starts, total - values, 0)
    baseline = np.maximum.accumulate(np.where(starts, start_offsets, 0))
    return Column.adopt(total - baseline, name=name or col.name)
