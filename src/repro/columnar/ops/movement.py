"""Data-movement operators: ``Gather``, ``Scatter``, ``PopBack``, ``Repeat`` ...

These are the operators that actually *move* data between positions — the
expensive, random-access part of both decompression plans and query plans.
Algorithm 1 of the paper uses ``Scatter`` to mark run starts and ``Gather``
to replicate run values into output positions; dictionary decoding is a pure
``Gather``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...errors import OperatorError
from ..column import Column
from .registry import register_operator


@register_operator("Gather", 2, "out[i] = values[indices[i]]", cost_weight=2.0,
                   category="movement")
def gather(values: Column, indices: Column, name: Optional[str] = None) -> Column:
    """Random-access read: ``out[i] = values[indices[i]]``.

    *indices* must be integer-typed and within ``[0, len(values))``.

    >>> from repro.columnar.ops.generate import sequence
    >>> gather(sequence([10, 20, 30]), sequence([2, 0, 0, 1])).to_pylist()
    [30, 10, 10, 20]
    """
    idx = indices.values
    if not np.issubdtype(idx.dtype, np.integer):
        raise OperatorError(f"Gather() indices must be integers, got dtype {idx.dtype}")
    if len(idx) and (idx.min() < 0 or idx.max() >= len(values)):
        raise OperatorError(
            f"Gather() indices out of range [0, {len(values)}): "
            f"min={idx.min() if len(idx) else None}, max={idx.max() if len(idx) else None}"
        )
    return Column.adopt(values.values[idx], name=name or values.name)


@register_operator("Scatter", 3, "out[indices[i]] = values[i] over a base column",
                   cost_weight=2.0, category="movement")
def scatter(values: Column, indices: Column, base: Column,
            name: Optional[str] = None) -> Column:
    """Random-access write into a copy of *base*: ``out = base; out[indices[i]] = values[i]``.

    Following the paper's usage, ``Scatter`` never writes out of bounds and
    leaves unwritten positions at their *base* value (Algorithm 1 scatters
    ones into a column of zeros).

    >>> from repro.columnar.ops.generate import sequence, zeros
    >>> scatter(sequence([1, 1]), sequence([0, 3]), zeros(5)).to_pylist()
    [1, 0, 0, 1, 0]
    """
    if len(values) != len(indices):
        raise OperatorError(
            f"Scatter() values and indices must have equal length, "
            f"got {len(values)} and {len(indices)}"
        )
    idx = indices.values
    if not np.issubdtype(idx.dtype, np.integer):
        raise OperatorError(f"Scatter() indices must be integers, got dtype {idx.dtype}")
    if len(idx) and (idx.min() < 0 or idx.max() >= len(base)):
        raise OperatorError(f"Scatter() indices out of range [0, {len(base)})")
    out = base.to_numpy()
    out[idx] = values.values
    return Column.adopt(out, name=name or base.name)


@register_operator("PopBack", 1, "drop the last element of a column", category="movement")
def pop_back(col: Column, name: Optional[str] = None) -> Column:
    """Return the column without its last element (length must be >= 1).

    >>> from repro.columnar.ops.generate import sequence
    >>> pop_back(sequence([1, 2, 3])).to_pylist()
    [1, 2]
    """
    if len(col) == 0:
        raise OperatorError("PopBack() of an empty column")
    return Column(col.values[:-1], name=name or col.name)


@register_operator("PushFront", 1, "prepend a scalar to a column", category="movement")
def push_front(col: Column, value, name: Optional[str] = None) -> Column:
    """Return the column with *value* prepended.

    >>> from repro.columnar.ops.generate import sequence
    >>> push_front(sequence([2, 3]), 1).to_pylist()
    [1, 2, 3]
    """
    front = np.asarray([value], dtype=col.dtype)
    return Column.adopt(np.concatenate([front, col.values]), name=name or col.name)


@register_operator("Repeat", 2, "repeat values[i] lengths[i] times (run expansion)",
                   cost_weight=1.5, category="movement")
def repeat(values: Column, lengths: Column, name: Optional[str] = None) -> Column:
    """Expand ``(values, lengths)`` run pairs into a flat column.

    This is the *fused* form of RLE decompression — the baseline the paper's
    columnar formulation (Algorithm 1) is compared against in experiment E2.

    >>> from repro.columnar.ops.generate import sequence
    >>> repeat(sequence([7, 9]), sequence([3, 2])).to_pylist()
    [7, 7, 7, 9, 9]
    """
    if len(values) != len(lengths):
        raise OperatorError(
            f"Repeat() values and lengths must have equal length, "
            f"got {len(values)} and {len(lengths)}"
        )
    # np.repeat only takes counts it can cast to intp *safely*, which
    # excludes uint64 — a dtype Algorithm 1's PrefixSum accepts.  The sign is
    # checked on the cast counts: a uint64 length >= 2**63 wraps negative.
    counts = lengths.values.astype(np.intp, casting="same_kind", copy=False)
    if len(counts) and counts.min() < 0:
        raise OperatorError("Repeat() lengths must be non-negative")
    return Column.adopt(np.repeat(values.values, counts), name=name or values.name)


def replicate_values(values: np.ndarray, each: int, count: int) -> np.ndarray:
    """Raw-array step function ``values[i // each]`` for ``i < count``: the one
    kernel behind ``Replicate``, its fused instruction and FOR's compression."""
    needed = -(-count // max(each, 1))
    if each < 1 or count < 0 or len(values) < needed:
        raise OperatorError(f"Replicate() cannot fill {count} positions with "
                            f"{len(values)} values, {each} times each")
    out = np.repeat(values[:needed], min(each, count))  # however large *each* is
    return out if len(out) == count else out[:count]  # (a cut last run: a view, copied on adoption)


@register_operator("Replicate", 1, "values[i // each] for i < count (a step function)",
                   cost_weight=1.5, category="movement")
def replicate(values: Column, each: int, count: int, name: Optional[str] = None) -> Column:
    """The constant-run-length sibling of :func:`repeat`: Algorithm 2's
    ``Gather(values, Iota(count) // each)`` — the paper's STEPFUNCTION.

    >>> from repro.columnar.ops.generate import sequence
    >>> replicate(sequence([7, 9]), each=3, count=5).to_pylist()
    [7, 7, 7, 9, 9]
    """
    return Column.adopt(replicate_values(values.values, each, count), name=name or values.name)
