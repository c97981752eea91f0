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
reduce materialised columns.  :func:`aggregate_state` is the per-range fold:
it turns one chunk range's selection into a mergeable
:class:`ScalarAggState` / :class:`GroupedAggState` — stored columns read
where they are stored (through the kernels, decompressing where none
serves), derived columns as the range executor evaluated them — and is the
only code that does: the range executor
(:func:`repro.engine.scan.execute_range`) calls it for serial scans and pool
workers alike, and :func:`merge_states` folds the ranges.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..columnar.column import Column
from ..columnar.ops.bitpack import SPARSE_RATIO
from ..columnar.profile import ColumnProfile
from ..errors import QueryError
from . import kernels
from .kernels import _sum_accumulator  # uint64 for unsigned, else int64


@dataclass
class SelectionVector:
    """Qualifying global row positions (the engine's late-materialisation currency)."""

    positions: Column

    def __len__(self) -> int:
        return len(self.positions)


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #

_AGGREGATES = ("sum", "count", "min", "max", "mean")


def is_integral(dtype: np.dtype) -> bool:
    """Integer or boolean: the dtypes whose ``sum`` is exact (mod 2**64)
    under any grouping of its addends, and that group by plain equality."""
    return np.issubdtype(dtype, np.integer) or dtype == np.bool_


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
        if is_integral(data.dtype):
            return int(data.sum(dtype=_sum_accumulator(data.dtype)))
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
    The dtype discipline matches the scalar aggregates: integer and boolean
    sums accumulate in int64/uint64, min/max preserve the value dtype.
    """
    if how not in _AGGREGATES:
        raise QueryError(f"unknown aggregate {how!r}; known: {_AGGREGATES}")
    if how != "count":
        if values is None:
            raise QueryError(f"grouped_reduce(): aggregate {how!r} needs values")
        if codes.size != len(values):
            raise QueryError("grouped_reduce(): codes and values must have equal length")
    data = None if values is None else values.values
    return Column(_reduce_by_codes(codes, num_groups, data, how), name=how)


def _reduce_by_codes(codes: np.ndarray, num_groups: int,
                     data: Optional[np.ndarray], how: str) -> np.ndarray:
    """:func:`grouped_reduce` on bare arrays."""
    if how == "count":
        return np.bincount(codes, minlength=num_groups)
    if how == "sum":
        if is_integral(data.dtype):
            # bincount's float64 weights lose integer precision above 2^53;
            # accumulate in the value's own integer family instead.
            accumulator = _sum_accumulator(data.dtype)
            result = np.zeros(num_groups, dtype=accumulator)
            np.add.at(result, codes, data.astype(accumulator))
            return result
        return np.bincount(codes, weights=data.astype(np.float64),
                           minlength=num_groups)
    if how == "mean":
        sums = np.bincount(codes, weights=data.astype(np.float64),
                           minlength=num_groups)
        counts = np.bincount(codes, minlength=num_groups)
        return sums / np.maximum(counts, 1)
    result = np.full(num_groups, minmax_identity(data.dtype, how),
                     dtype=data.dtype)
    (np.minimum if how == "min" else np.maximum).at(result, codes, data)
    return result


def _reduce_by_runs(starts: np.ndarray, lengths: np.ndarray,
                    data: Optional[np.ndarray], how: str) -> np.ndarray:
    """count/sum/min/max per group when the groups are consecutive runs
    (run *i* starts at ``starts[i]`` and holds ``lengths[i]`` rows): counts
    are the lengths, the rest one ``reduceat`` — same dtypes and values as
    :func:`_reduce_by_codes` over the runs' codes."""
    if how == "count":
        return lengths
    if how == "sum":
        return np.add.reduceat(data, starts, dtype=_sum_accumulator(data.dtype))
    return (np.minimum if how == "min" else np.maximum).reduceat(data, starts)


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

    *keys* holds the sorted distinct key **values** this partial saw —
    whether they came from dictionary codes, from the runs of a sorted key
    or from a sort of an unsorted one — and *aggregates* maps output names
    to ``(op, per-group array)`` aligned with *keys*: int64 counts,
    int64/uint64 sums, min/max in the operand dtype.  A partial over no
    rows has zero keys and zero-length arrays of those dtypes.
    :func:`merge_states` unions the keys of all partials and combines the
    arrays, so the merged result is bit-identical to grouping the whole
    selection at once.
    """

    keys: np.ndarray
    rows: int
    aggregates: Dict[str, Tuple[str, np.ndarray]]


def merge_states(states: Sequence[Any]) -> Any:
    """Fold a non-empty sequence of per-range states (scalar dicts or
    grouped states, as :func:`aggregate_state` builds them) into one.

    Grouped states merge in one step: the sorted union of every partial's
    keys is taken once, each partial is remapped onto it once, and each
    aggregate is combined into one output array — sums and counts add
    (exact for their integer accumulators), min/max join against the dtype
    identity.
    """
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
    if any(list(state.aggregates) != list(first.aggregates)
           for state in states[1:]):
        raise QueryError("cannot merge grouped states with different "
                         "aggregate layouts")
    keys = np.unique(np.concatenate([state.keys for state in states]))
    remaps = [np.searchsorted(keys, state.keys) for state in states]
    combined: Dict[str, Tuple[str, np.ndarray]] = {}
    for name, (op, template) in first.aggregates.items():
        ufunc = _COMBINE_UFUNC.get(op, np.add)  # counts add
        identity = 0 if ufunc is np.add else minmax_identity(template.dtype, op)
        out = np.full(keys.size, identity, dtype=template.dtype)  # sums: int64/uint64
        for state, remap in zip(states, remaps):
            out[remap] = ufunc(out[remap], state.aggregates[name][1])
        combined[name] = (op, out)
    return GroupedAggState(keys=keys,
                           rows=sum(state.rows for state in states),
                           aggregates=combined)


# --------------------------------------------------------------------------- #
# The state builder: one range's selection -> one mergeable state
# --------------------------------------------------------------------------- #

def sparse_hits(hits: int, chunk) -> bool:
    """Whether *hits* rows of *chunk* are few enough that gathering them
    positionally on the compressed form beats decompressing the chunk — the
    one threshold the scan's gathers and the aggregate fold share."""
    return hits * SPARSE_RATIO <= chunk.row_count


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
    """sum/min/max of a non-empty array as a NumPy scalar: integer and
    boolean sums in the int64/uint64 family (exact mod 2**64 under any
    chunking, like NumPy's own), min/max in the value dtype."""
    if how == "sum":
        return values.sum(dtype=_sum_accumulator(values.dtype))
    return values.min() if how == "min" else values.max()


def evaluate_over(spec, env: Mapping[str, np.ndarray], rows: int) -> np.ndarray:
    """``spec.evaluate`` over the ``spec.columns`` of *env* (the derived-column
    protocol of :mod:`repro.engine.scan`), a constant broadcast to *rows*."""
    value = np.asarray(spec.evaluate({name: env[name] for name in spec.columns}))
    return np.full(rows, value[()]) if value.ndim == 0 else value


def aggregate_state(table, positions: np.ndarray, agg_spec: Dict[str, Any],
                    served: Callable, chunks_of: Callable, chunk_values: Callable,
                    outputs: Optional[Mapping[str, np.ndarray]] = None,
                    use_kernels: bool = True, use_zone_maps: bool = True) -> Any:
    """The mergeable state of *agg_spec* over one range's sorted, distinct
    *positions*.

    *agg_spec* is ``{"key": operand | None, "aggregates": [(output, op,
    operand | None)]}`` with ops count/sum/min/max (sums over integer and
    boolean operands only: float sums depend on summation order and have no
    mergeable state).  An operand is the name of a stored column of *table*,
    or an expression spec (``columns`` + ``evaluate(env)``) over *outputs* —
    the scan's materialised and derived columns as the range executor
    gathered and evaluated them at *positions*; ``None`` is ``count(*)``.
    Returns ``{output: ScalarAggState}`` without a key and a
    :class:`GroupedAggState` with one; folding the states of disjoint ranges
    with :func:`merge_states` and finalising equals aggregating the whole
    selection with :func:`aggregate` / :func:`grouped_reduce`.

    A stored column is read where it is stored: a lone scalar aggregate
    takes a chunk the selection covers whole from what the chunk stores —
    ``min``/``max`` from its zone map (under *use_zone_maps*: nothing of the
    chunk is read), ``sum`` from the sum kernel (RLE ``values·lengths``, FOR
    ``refs·segment lengths + offsets``; under *use_kernels*); other chunks
    gather positionally, a key whose chunks all carry dictionary codes
    factorises from them.  ``chunks_of(name)`` yields the chunks of a column
    that *positions* can fall in and ``chunk_values(name, chunk)`` is the
    caller's decompression cache.  A range whose every stored operand has a
    gather kernel and whose stored key has group codes, on every chunk hit,
    stays in the compressed domain — decided on its first gather, so a range
    answered whole asks no chunk.  One that has to decompress something
    anyway reads each chunk the cheaper way (:func:`sparse_hits`, the scan's
    own rule): positionally for sparse hits, else the cached decompressed
    values — always those without *use_kernels*.  A key without codes groups
    by value: by its runs where its values at the positions are
    non-decreasing (``reduceat``), else by one ``np.unique``.
    ``served(name, chunk, rows)`` hears of every chunk computed on without
    decompressing — the range's compressed-execution accounting.
    """
    rows = int(positions.size)
    outputs = outputs or {}
    aggregates, key = agg_spec["aggregates"], agg_spec["key"]
    hits: Dict[str, list] = {}

    def hits_of(name: str) -> list:
        if name not in hits:
            hits[name] = list(_iter_chunk_hits(chunks_of(name), positions))
        return hits[name]

    @functools.cache
    def compressed() -> bool:
        """Whether the range stays in the compressed domain (first gather only)."""
        needs = [(key, kernels.KERNEL_GROUP_CODES)] if isinstance(key, str) else []
        needs += [(ref, kernels.KERNEL_GATHER) for __, op, ref in aggregates
                  if op != "count" and isinstance(ref, str)]
        return all(kernels.supports(chunk.scheme, chunk.form, kernel)
                   for name, kernel in needs for chunk, __, __ in hits_of(name))

    def gather_chunk(name: str, chunk, local: np.ndarray) -> np.ndarray:
        values = None
        if use_kernels and (sparse_hits(local.size, chunk) or compressed()):
            values = kernels.gather(chunk.scheme, chunk.form, local)
        if values is None:
            values = chunk_values(name, chunk).values
            # Sorted distinct positions that cover the chunk are its rows.
            return values if local.size == chunk.row_count else values[local]
        served(name, chunk, local.size)
        return values

    #: One positional materialisation per *distinct* stored column, shared
    #: by every aggregate over it (multi-aggregate queries would otherwise
    #: re-walk the chunks once per aggregate).
    gathered: Dict[str, np.ndarray] = {}

    def operand(ref) -> np.ndarray:
        """The values of operand *ref* at the positions."""
        if not isinstance(ref, str):
            return evaluate_over(ref, outputs, rows)
        values = gathered.get(ref)
        if values is None:
            values = np.empty(rows, dtype=table.column(ref).dtype)
            for chunk, local, (start, stop) in hits_of(ref):
                values[start:stop] = gather_chunk(ref, chunk, local)
            gathered[ref] = values
        return values

    def whole(name: str, chunk, how: str):
        """*how* over every row of *chunk* off what it stores — ``min``/``max``
        its zone map's, ``sum`` the sum kernel's — or ``None``."""
        if how == "sum":
            piece = kernels.aggregate_whole(chunk.scheme, chunk.form) if use_kernels else None
        else:
            starts, __, minima, maxima = table.column(name).zone_maps()
            bounds = minima if how == "min" else maxima
            piece = None if bounds is None or not use_zone_maps \
                else bounds[np.searchsorted(starts, chunk.row_offset)]
        if piece is not None:
            served(name, chunk, chunk.row_count)
        return piece

    def partial(name: str, how: str):
        """Per-chunk partials combined; ``None`` when no row survived."""
        total = None
        for chunk, local, __ in hits_of(name):
            piece = whole(name, chunk, how) if local.size == chunk.row_count else None
            if piece is None:
                piece = _reduce(gather_chunk(name, chunk, local), how)
            total = piece if total is None \
                else _COMBINE_UFUNC[how](total, piece)
        return total

    def dictionary_codes(name: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(unique_values, codes)`` of stored column *name* over the
        selection, exactly matching ``np.unique(selection,
        return_inverse=True)``, from the chunks' dictionary codes instead of
        a sort of the selected values: the small per-chunk dictionaries are
        merged.  ``None`` unless every chunk hit has the kernel."""
        if not (use_kernels and hits_of(name) and all(
                kernels.supports(chunk.scheme, chunk.form,
                                 kernels.KERNEL_GROUP_CODES)
                for chunk, __, __ in hits_of(name))):
            return None
        per_chunk = []
        for chunk, local, span in hits_of(name):
            codes, groups = kernels.group_codes(
                chunk.scheme, chunk.form,
                None if local.size == chunk.row_count else local)
            served(name, chunk, local.size)
            per_chunk.append((span, codes, groups))

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

    if key is None:
        column_uses = [ref for __, op, ref in aggregates
                       if op != "count" and isinstance(ref, str)]
        states: Dict[str, ScalarAggState] = {}
        for output_name, op, ref in aggregates:
            value = None
            if op != "count" and rows:
                # A lone aggregate over a stored column walks the chunks and
                # may never gather at all; several over one column gather it
                # once and reduce the gathered values per op.
                value = partial(ref, op) if column_uses.count(ref) == 1 \
                    else _reduce(operand(ref), op)
            states[output_name] = ScalarAggState(op=op, rows=rows,
                                                 partial=value)
        return states

    coded = dictionary_codes(key) if isinstance(key, str) else None
    profile = ColumnProfile(operand(key)) if coded is None else None
    if profile is not None and rows and profile.is_sorted:
        keys = profile.run_values.values
        reduce = functools.partial(_reduce_by_runs, profile.run_starts,
                                   profile.run_lengths.values)
    else:
        keys, codes = coded if profile is None \
            else np.unique(profile.values, return_inverse=True)
        reduce = functools.partial(_reduce_by_codes, codes.reshape(-1),
                                   int(keys.size))
    return GroupedAggState(keys=keys, rows=rows, aggregates={
        output_name: (op, reduce(None if op == "count" else operand(ref), op))
        for output_name, op, ref in aggregates})


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
