"""Physical operators over stored (compressed) tables.

The engine is vectorised and chunk-at-a-time: operators consume and produce
:class:`RowSelection` s (a chunk reference plus a position list), so filters
stay in the cheap position-list ("late materialisation") currency for as
long as possible and columns are only decompressed when their values are
actually needed — and, where :mod:`repro.engine.kernels` has a kernel for the
form, predicates, gathers and aggregates run on the compressed form itself.

The operator set is intentionally the one the paper's decompression plans
are made of — selection, gather/materialisation, aggregation, hash join —
to keep the "decompression is query execution" point front and centre.

Aggregates come in two forms.  :func:`aggregate` and :func:`grouped_reduce`
reduce materialised columns.  :func:`aggregate_state` is the compressed
form: it turns one chunk range's selection into a mergeable
:class:`ScalarAggState` / :class:`GroupedAggState` straight off the stored
chunks, and is the only code that does — the range executor
(:func:`repro.engine.scan.execute_range`) calls it for serial scans and pool
workers alike, and :func:`merge_states` folds the ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..columnar.column import Column, concat_columns
from ..errors import QueryError
from . import kernels
from .stats import ScanStats


@dataclass
class SelectionVector:
    """Qualifying global row positions (the engine's late-materialisation currency)."""

    positions: Column

    def __len__(self) -> int:
        return len(self.positions)

    @staticmethod
    def from_mask(mask: np.ndarray, row_offset: int) -> "SelectionVector":
        return SelectionVector(Column(np.flatnonzero(mask).astype(np.int64) + row_offset))

    @staticmethod
    def all_rows(row_count: int) -> "SelectionVector":
        return SelectionVector(Column(np.arange(row_count, dtype=np.int64)))

    @staticmethod
    def concatenate(vectors: Sequence["SelectionVector"]) -> "SelectionVector":
        if not vectors:
            return SelectionVector(Column(np.empty(0, dtype=np.int64)))
        return SelectionVector(concat_columns([v.positions for v in vectors]))


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #

_AGGREGATES = ("sum", "count", "min", "max", "mean")


def aggregate(values: Column, how: str):
    """A scalar aggregate over a materialised column."""
    if how not in _AGGREGATES:
        raise QueryError(f"unknown aggregate {how!r}; known: {_AGGREGATES}")
    if how == "count":
        return len(values)
    if len(values) == 0:
        raise QueryError(f"aggregate {how!r} over zero rows")
    data = values.values
    if how == "sum":
        if np.issubdtype(data.dtype, np.unsignedinteger):
            return int(data.sum(dtype=np.uint64))
        if np.issubdtype(data.dtype, np.integer):
            return int(data.sum(dtype=np.int64))
        return float(data.sum())  # repro: ignore[RA001] — float64 sums accumulate in float64
    if how == "min":
        return data.min().item()
    if how == "max":
        return data.max().item()
    return float(data.mean())


def grouped_reduce(codes: np.ndarray, num_groups: int,
                   values: Optional[Column], how: str) -> Column:
    """Reduce *values* per group, given pre-factorised group *codes*.

    *codes* maps each row to its group index in ``[0, num_groups)``
    (pre-factorised by the caller).  Factorising once and
    reducing many times is what multi-aggregate ``group_by().agg(...)``
    queries (and multi-key groupings, which factorise outside NumPy's
    ``unique``) need.  ``how="count"`` ignores *values* (may be ``None``).
    The dtype discipline matches the scalar aggregates: integer sums
    accumulate in int64/uint64, min/max preserve the value dtype.
    """
    if how not in _AGGREGATES:
        raise QueryError(f"unknown aggregate {how!r}; known: {_AGGREGATES}")
    if how == "count":
        result = np.bincount(codes, minlength=num_groups)
        return Column(result, name=how)
    if values is None:
        raise QueryError(f"grouped_reduce(): aggregate {how!r} needs values")
    if codes.size != len(values):
        raise QueryError("grouped_reduce(): codes and values must have equal length")
    data = values.values
    if how == "sum":
        if np.issubdtype(data.dtype, np.integer):
            # bincount's float64 weights lose integer precision above 2^53;
            # accumulate in the value's own integer family instead.
            accumulator = np.uint64 if np.issubdtype(data.dtype, np.unsignedinteger) \
                else np.int64
            result = np.zeros(num_groups, dtype=accumulator)
            np.add.at(result, codes, data.astype(accumulator))
        else:
            result = np.bincount(codes, weights=data.astype(np.float64),
                                 minlength=num_groups)
    elif how == "mean":
        sums = np.bincount(codes, weights=data.astype(np.float64),
                           minlength=num_groups)
        counts = np.bincount(codes, minlength=num_groups)
        result = sums / np.maximum(counts, 1)
    else:
        fill = minmax_identity(data.dtype, how)
        result = np.full(num_groups, fill, dtype=data.dtype)
        ufunc = np.minimum if how == "min" else np.maximum
        ufunc.at(result, codes, data)
    return Column(result, name=how)


def minmax_identity(dtype: np.dtype, how: str):
    """The identity element of per-group ``min``/``max`` for *dtype* (the
    fill value a group that no row touches keeps)."""
    if dtype == np.bool_:
        return how == "min"  # identity of AND for min, of OR for max
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return info.max if how == "min" else info.min
    return np.inf if how == "min" else -np.inf


# --------------------------------------------------------------------------- #
# Mergeable aggregate states
# --------------------------------------------------------------------------- #

_COMBINE_UFUNC = {"sum": np.add, "min": np.minimum, "max": np.maximum}


@dataclass
class ScalarAggState:
    """A mergeable partial of one scalar aggregate.

    The range executor computes one state per chunk range; the scheduler
    merges them (associative and order-insensitive for every supported op:
    integer sums are exact mod 2**64, min/max are lattice joins, count is a
    plain sum) and finalises once.  ``partial is None`` means the range
    selected no rows; :meth:`finalize` raises the same
    :class:`~repro.errors.QueryError` :func:`aggregate` raises for an
    all-empty selection.
    """

    op: str
    rows: int = 0
    partial: Optional[Any] = None  # a NumPy scalar, or None when no rows yet

    def merge(self, other: "ScalarAggState") -> None:
        if self.op != other.op:
            raise QueryError(f"cannot merge {other.op!r} state into "
                             f"{self.op!r} state")
        self.rows += other.rows
        if other.partial is not None:
            if self.partial is None:
                self.partial = other.partial
            else:
                self.partial = _COMBINE_UFUNC[self.op](self.partial,
                                                       other.partial)

    def finalize(self) -> Any:
        """The finished aggregate value, matching :func:`aggregate`."""
        if self.op == "count":
            return int(self.rows)
        if self.partial is None:
            raise QueryError(f"aggregate {self.op!r} over zero rows")
        if self.op == "sum":
            return int(self.partial)
        return self.partial.item() if hasattr(self.partial, "item") \
            else self.partial


@dataclass
class GroupedAggState:
    """A mergeable partial of a single-key grouped aggregation.

    *keys* holds the sorted distinct key values this partial saw;
    *aggregates* maps output names to ``(op, per-group array)`` aligned with
    *keys*.  Merging unions the key dictionaries (sorted, exactly like the
    per-chunk dictionary merge of the state builder) and combines the
    per-group arrays: sums/counts add (exact for the integer accumulators
    the grouped kernels produce), min/max join against the dtype identity
    fill — so the merged result is bit-identical to grouping the whole
    selection at once, for every op this state supports.
    """

    keys: np.ndarray
    rows: int
    aggregates: Dict[str, Tuple[str, np.ndarray]]

    def merge(self, other: "GroupedAggState") -> None:
        if list(self.aggregates) != list(other.aggregates):
            raise QueryError("cannot merge grouped states with different "
                             "aggregate layouts")
        merged = np.union1d(self.keys, other.keys)
        remap_self = np.searchsorted(merged, self.keys)
        remap_other = np.searchsorted(merged, other.keys)
        combined: Dict[str, Tuple[str, np.ndarray]] = {}
        for name, (op, mine) in self.aggregates.items():
            theirs = other.aggregates[name][1]
            if op in ("sum", "count"):
                out = np.zeros(merged.size, dtype=mine.dtype)
                out[remap_self] += mine
                out[remap_other] += theirs
            else:
                ufunc = np.minimum if op == "min" else np.maximum
                fill = minmax_identity(mine.dtype, op)
                out = np.full(merged.size, fill, dtype=mine.dtype)
                out[remap_self] = ufunc(out[remap_self], mine)
                out[remap_other] = ufunc(out[remap_other], theirs)
            combined[name] = (op, out)
        self.keys = merged
        self.rows += other.rows
        self.aggregates = combined


def merge_states(states: Sequence[Any]) -> Any:
    """Fold a non-empty sequence of per-range states (scalar dicts or
    grouped states, as :func:`aggregate_state` builds them) into one."""
    if not states:
        raise QueryError("merge_states() needs at least one partial state")
    first = states[0]
    if isinstance(first, dict):  # {output name: ScalarAggState}
        merged: Dict[str, ScalarAggState] = {
            name: ScalarAggState(op=state.op, rows=state.rows,
                                 partial=state.partial)
            for name, state in first.items()}
        for partial in states[1:]:
            for name, state in partial.items():
                merged[name].merge(state)
        return merged
    merged_grouped = GroupedAggState(keys=first.keys, rows=first.rows,
                                     aggregates=dict(first.aggregates))
    for partial in states[1:]:
        merged_grouped.merge(partial)
    return merged_grouped


# --------------------------------------------------------------------------- #
# The state builder: one range's selection -> one mergeable state
# --------------------------------------------------------------------------- #

def _iter_chunk_hits(chunks, positions: np.ndarray):
    """Yield ``(chunk, local_positions, (start, stop))`` for each of *chunks*
    hit by the sorted global *positions* (one ``searchsorted`` pair per
    chunk; untouched chunks are skipped entirely)."""
    for chunk in chunks:
        start, stop = np.searchsorted(
            positions, [chunk.row_offset, chunk.row_offset + chunk.row_count])
        if start == stop:
            continue
        yield chunk, positions[start:stop] - chunk.row_offset, (int(start), int(stop))


def _reduce(values: np.ndarray, how: str):
    """sum/min/max of a non-empty array as a NumPy scalar: integer sums in
    the int64/uint64 family (exact mod 2**64 under any chunking, like
    NumPy's own), min/max in the value dtype."""
    if how == "sum":
        accumulator = np.uint64 if np.issubdtype(values.dtype, np.unsignedinteger) \
            else np.int64
        return values.sum(dtype=accumulator)
    return values.min() if how == "min" else values.max()


def aggregate_state(table, positions: np.ndarray, agg_spec: Dict[str, Any],
                    stats: ScanStats, chunks_of: Callable, chunk_values: Callable
                    ) -> Any:
    """The mergeable state of *agg_spec* over one range's sorted *positions*.

    *agg_spec* is ``{"key": name | None, "aggregates": [(output, op, column
    | None)]}`` with ops count/sum/min/max (sums over integer columns only:
    float sums depend on summation order and have no mergeable state).
    Returns ``{output: ScalarAggState}`` without a key and a
    :class:`GroupedAggState` with one; folding the states of disjoint ranges
    with :func:`merge_states` and finalising equals aggregating the whole
    selection with :func:`aggregate` / :func:`grouped_reduce`.

    Every input is read where it is stored: chunks wholly covered by the
    selection reduce through the whole-form kernels (an RLE chunk sums as
    ``values·lengths``), partially covered ones gather positionally, the key
    factorises from the chunks' dictionary codes.  ``chunks_of(name)`` yields
    the chunks of a column that *positions* can fall in — only those are
    walked — and ``chunk_values(name, chunk)`` is the caller's decompression
    cache, used for chunks no kernel serves.  The compressed-execution
    accounting lands in *stats*.
    """
    rows = int(positions.size)

    def served_compressed(chunk, count: int) -> None:
        stats.rows_computed_compressed += count
        stats.bytes_decompressed_saved += chunk.uncompressed_size_bytes()

    def gather_chunk(name: str, chunk, local: np.ndarray) -> np.ndarray:
        values = kernels.gather(chunk.scheme, chunk.form, local)
        if values is None:
            return chunk_values(name, chunk).values[local]
        served_compressed(chunk, local.size)
        return values

    #: One positional materialisation per *distinct* operand column, shared
    #: by every aggregate over it (multi-aggregate queries would otherwise
    #: re-walk the chunks once per aggregate).
    gathered_cache: Dict[str, Column] = {}

    def gathered(name: str) -> Column:
        column = gathered_cache.get(name)
        if column is None:
            out = np.empty(rows, dtype=table.column(name).dtype)
            for chunk, local, (start, stop) in _iter_chunk_hits(
                    chunks_of(name), positions):
                out[start:stop] = gather_chunk(name, chunk, local)
            column = gathered_cache[name] = Column(out)
        return column

    def partial(name: str, how: str):
        """Per-chunk partials combined; ``None`` when no row survived."""
        total = None
        for chunk, local, __ in _iter_chunk_hits(chunks_of(name), positions):
            piece = None
            if local.size == chunk.row_count:
                piece = kernels.aggregate_whole(chunk.scheme, chunk.form, how)
                if piece is not None:
                    served_compressed(chunk, local.size)
            if piece is None:
                piece = _reduce(gather_chunk(name, chunk, local), how)
            total = piece if total is None \
                else _COMBINE_UFUNC[how](total, piece)
        return total

    def group_codes(name: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(unique_values, codes)`` of column *name* over the selection,
        exactly matching ``np.unique(selection, return_inverse=True)``, from
        the chunks' dictionary codes instead of a sort of the selected
        values: the small per-chunk dictionaries are merged.  A chunk
        without the kernel factorises its gathered values."""
        if rows == 0:
            return (np.empty(0, dtype=table.column(name).dtype),
                    np.empty(0, dtype=np.int64))
        per_chunk = []
        for chunk, local, span in _iter_chunk_hits(chunks_of(name), positions):
            coded = kernels.group_codes(
                chunk.scheme, chunk.form,
                None if local.size == chunk.row_count else local)
            if coded is None:
                groups, codes = np.unique(gather_chunk(name, chunk, local),
                                          return_inverse=True)
                coded = (codes.reshape(-1).astype(np.int64), groups)
            else:
                served_compressed(chunk, local.size)
            per_chunk.append((span, coded[0], coded[1]))

        merged = np.unique(np.concatenate([groups for __, __, groups in per_chunk]))
        codes_out = np.empty(rows, dtype=np.int64)
        for (start, stop), codes, groups in per_chunk:
            remap = np.searchsorted(merged, groups)
            codes_out[start:stop] = remap[codes]
        counts = np.bincount(codes_out, minlength=merged.size)
        present = counts > 0
        if not present.all():
            # Dictionary entries (or other chunks' values) absent from the
            # selection must not surface as empty groups — np.unique would
            # not report them.
            relabel = np.cumsum(present, dtype=np.int64) - 1
            codes_out = relabel[codes_out]
            merged = merged[present]
        return merged, codes_out

    if agg_spec["key"] is None:
        column_uses = [column for __, op, column in agg_spec["aggregates"]
                       if op != "count"]
        states: Dict[str, ScalarAggState] = {}
        for output_name, op, column in agg_spec["aggregates"]:
            value = None
            if op != "count" and rows:
                # Several aggregates over one column gather it once and
                # reduce the gathered values per op; a lone one walks the
                # chunks and may never gather at all.
                value = _reduce(gathered(column).values, op) \
                    if column_uses.count(column) > 1 else partial(column, op)
            states[output_name] = ScalarAggState(op=op, rows=rows,
                                                 partial=value)
        return states

    keys, codes = group_codes(agg_spec["key"])
    return GroupedAggState(keys=keys, rows=rows, aggregates={
        output_name: (op, grouped_reduce(
            codes, int(keys.size),
            None if op == "count" else gathered(column), op).values)
        for output_name, op, column in agg_spec["aggregates"]})


# --------------------------------------------------------------------------- #
# Hash join
# --------------------------------------------------------------------------- #

def hash_join(left_keys: Column, right_keys: Column
              ) -> Tuple[Column, Column]:
    """Inner equi-join of two key columns.

    Returns matching position pairs ``(left_positions, right_positions)``.
    The build side is the right input; the probe uses ``searchsorted`` over
    the sorted build keys, which is the NumPy-friendly stand-in for a hash
    table and preserves the relevant behaviour (one probe per left row).
    """
    right = right_keys.values
    order = np.argsort(right, kind="stable")
    sorted_right = right[order]
    left = left_keys.values

    start = np.searchsorted(sorted_right, left, side="left")
    stop = np.searchsorted(sorted_right, left, side="right")
    counts = stop - start
    if counts.sum(dtype=np.int64) == 0:
        empty = Column(np.empty(0, dtype=np.int64))
        return empty, empty

    left_positions = np.repeat(np.arange(left.size, dtype=np.int64), counts)
    # For every match, the offset within its run of equal right keys.
    within = np.arange(counts.sum(dtype=np.int64), dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(counts, dtype=np.int64)[:-1])), counts)
    right_positions = order[np.repeat(start, counts) + within]
    return Column(left_positions), Column(right_positions.astype(np.int64))
