"""Scan (prefix-aggregate) operators: ``PrefixSum`` and friends.

``PrefixSum`` is the workhorse of the paper's Algorithm 1: it turns run
lengths into run end positions, and it turns a scattered column of run-start
markers into a per-element run index.  The library also provides the
exclusive variant.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

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
