"""Physical operators over stored (compressed) tables.

The engine is vectorised and chunk-at-a-time: operators consume and produce
:class:`RowSelection` s (a chunk reference plus a position list), so filters
stay in the cheap position-list ("late materialisation") currency for as
long as possible and columns are only decompressed when their values are
actually needed — and, where :mod:`repro.engine.kernels` has a kernel for the
form, predicates, gathers and aggregates run on the compressed form itself.

The operator set is intentionally the one the paper's decompression plans
are made of — selection, gather/materialisation, aggregation —
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
from ..columnar.dtypes import sum_accumulator
from ..columnar.ops.bitpack import SPARSE_RATIO
from ..errors import QueryError
from ..schemes.rle import RunScheme
from . import kernels


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
            return int(data.sum(dtype=sum_accumulator(data.dtype)))
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
            accumulator = sum_accumulator(data.dtype)
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
        return np.add.reduceat(data, starts, dtype=sum_accumulator(data.dtype))
    return (np.minimum if how == "min" else np.maximum).reduceat(data, starts)


def _runs_key(values: np.ndarray, starts: np.ndarray, rows: int
              ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(keys, starts, lengths)`` of the runs starting at *starts* (sorted
    indices into *rows* rows) that hold a row: their *values*, starts and
    row counts.  ``None`` unless those values rise strictly, as ``np.unique``'s do."""
    lengths = np.concatenate((starts[1:], [rows])) - starts
    kept = lengths > 0
    keys = values[kept]
    if not (keys[1:] > keys[:-1]).all():  # out of order, equal neighbours, NaN
        return None
    return keys, starts[kept], lengths[kept]


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


def _reduce(values: np.ndarray, how: str):
    """sum/min/max of a non-empty array as a NumPy scalar: integer and
    boolean sums in the int64/uint64 family (exact mod 2**64 under any
    chunking, like NumPy's own), min/max in the value dtype."""
    if how == "sum":
        return values.sum(dtype=sum_accumulator(values.dtype))
    return values.min() if how == "min" else values.max()


#: The field of an integer column's zone map (:class:`~repro.storage.statistics.ZoneMaps`)
#: that states, per chunk, an aggregate over all its rows.
_ZONE_FACTS = {"sum": "totals", "min": "minima", "max": "maxima"}


def whole_chunk_state(agg_spec: Dict[str, Any], zones: Mapping[str, Any],
                      chunks: np.ndarray, rows: int) -> Dict[str, ScalarAggState]:
    """The state of a scalar count/sum/min/max *agg_spec* over the *rows*
    rows of the chunks *chunks* selects (a mask over its operands' chunks),
    from the operands' zone maps *zones* alone — what :func:`aggregate_state`
    builds over those chunks' rows, merged."""
    return {output_name: ScalarAggState(op, rows, None if op == "count" else
                                        _COMBINE_UFUNC[op].reduce(
                                            getattr(zones[ref], _ZONE_FACTS[op])[chunks]))
            for output_name, op, ref in agg_spec["aggregates"]}


def evaluate_over(expr, env: Mapping[str, np.ndarray], rows: int) -> np.ndarray:
    """The expression *expr* (a derived column or aggregate operand of
    :mod:`repro.engine.scan`) over the columns of *env* it reads, a constant
    broadcast to *rows*."""
    value = np.asarray(expr.evaluate({name: env[name] for name in expr.columns()}))
    return np.full(rows, value[()]) if value.ndim == 0 else value


def aggregate_state(table, index: Optional[int], local: np.ndarray, agg_spec: Dict[str, Any],
                    served: Callable, chunk_values: Callable,
                    outputs: Optional[Mapping[str, np.ndarray]] = None,
                    use_kernels: bool = True, use_zone_maps: bool = True) -> Any:
    """The mergeable state of *agg_spec* over the rows *local* (sorted,
    distinct, range-local) of chunk range *index* of *table*: chunk *index*
    of every column (``None`` for a range with no rows: nothing is read).

    *agg_spec* is ``{"key": operand | None, "aggregates": [(output, op,
    operand | None)]}`` with ops count/sum/min/max (sums over integer and
    boolean operands only: float sums depend on summation order and have no
    mergeable state).  An operand is the name of a stored column of *table*,
    or an expression (:class:`repro.api.expr.Expr`) over *outputs* —
    the scan's materialised and derived columns as the range executor
    gathered and evaluated them at *local*; ``None`` is ``count(*)``.
    Returns ``{output: ScalarAggState}`` without a key and a
    :class:`GroupedAggState` with one; folding the states of disjoint ranges
    with :func:`merge_states` and finalising equals aggregating the whole
    selection with :func:`aggregate` / :func:`grouped_reduce`.

    A stored column is read where it is stored: a scalar aggregate takes a
    chunk of an integer column the selection covers whole from its zone map
    — ``min``/``max`` its bounds, ``sum`` its total (under *use_zone_maps*:
    nothing of the chunk is read); other chunks are read once per range,
    however many aggregates reduce them.  ``chunk_values(name)`` is the
    caller's decompression cache.  A range whose every stored operand has a
    gather kernel and whose stored key has group codes stays in the
    compressed domain — decided on its first gather, so a range answered
    whole asks no chunk.  One that has to decompress something anyway reads
    each chunk the cheaper way (:func:`sparse_hits`, the scan's own rule):
    positionally for sparse hits, else the cached decompressed values —
    always those without *use_kernels*.  A key groups by the first that
    applies: its chunk's dictionary codes; the runs of its chunk's run form,
    never decoded (under *use_kernels*, where the kept run values rise); the
    runs of its values at the rows, where those never fall; one
    ``np.unique`` — runs reduce by ``reduceat``.  ``served(name, rows)`` hears
    of every chunk computed on without decompressing — the range's
    compressed-execution accounting.
    """
    rows = int(local.size)
    outputs = outputs or {}
    aggregates, key = agg_spec["aggregates"], agg_spec["key"]

    def chunk_of(name: str):
        return table.column(name).chunks[index]

    @functools.cache
    def compressed() -> bool:
        """Whether the range stays in the compressed domain (first gather only)."""
        needs = [(key, kernels.KERNEL_GROUP_CODES)] if isinstance(key, str) else []
        needs += [(ref, kernels.KERNEL_GATHER) for __, op, ref in aggregates
                  if op != "count" and isinstance(ref, str)]
        return all(kernels.supports(chunk_of(name).scheme, chunk_of(name).form, kernel)
                   for name, kernel in needs)

    @functools.cache
    def stored(name: str) -> np.ndarray:
        """The values of stored column *name* at the rows, read once however
        many aggregates reduce them."""
        dtype = table.column(name).dtype
        if not rows:
            return np.empty(0, dtype=dtype)
        chunk = chunk_of(name)
        if use_kernels and (sparse_hits(rows, chunk) or compressed()):
            values = kernels.gather(chunk.scheme, chunk.form, local)
            if values is not None:
                served(name, rows)
                return np.asarray(values, dtype=dtype)
        values = chunk_values(name)
        # Sorted distinct rows that cover the chunk are its rows.
        return np.asarray(values if rows == chunk.row_count else values[local], dtype=dtype)

    def operand(ref) -> np.ndarray:
        """The values of operand *ref* at the rows."""
        return stored(ref) if isinstance(ref, str) else evaluate_over(ref, outputs, rows)

    def partial(name: str, how: str):
        """The chunk's partial — a whole chunk's from its zone map."""
        facts = getattr(table.column(name).zone_maps(), _ZONE_FACTS[how])
        if use_zone_maps and facts is not None and rows == chunk_of(name).row_count:
            served(name, rows)
            return facts[index]
        return _reduce(stored(name), how)

    def dictionary_codes(name: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(unique_values, codes)`` of stored column *name* over the
        selection, exactly matching ``np.unique(selection,
        return_inverse=True)``, from the chunk's dictionary codes instead of
        a sort of the selected values.  ``None`` unless the chunk has the
        kernel."""
        if not (use_kernels and rows):
            return None
        chunk = chunk_of(name)
        if not kernels.supports(chunk.scheme, chunk.form, kernels.KERNEL_GROUP_CODES):
            return None
        codes, groups = kernels.group_codes(chunk.scheme, chunk.form,
                                            None if rows == chunk.row_count else local)
        served(name, rows)
        present = np.bincount(codes, minlength=groups.size) > 0
        if not present.all():
            # Dictionary entries absent from the selection must not surface
            # as empty groups — np.unique would not report them.
            codes = (np.cumsum(present, dtype=np.int64) - 1)[codes]
            groups = groups[present]
        return groups, codes

    if key is None:
        def value(op: str, ref):
            if op == "count" or not rows:
                return None
            return partial(ref, op) if isinstance(ref, str) else _reduce(operand(ref), op)
        return {output_name: ScalarAggState(op, rows, value(op, ref))
                for output_name, op, ref in aggregates}

    def form_runs(name: str) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """:func:`_runs_key` of stored column *name* from the run form (RLE or
        RPE, bare or a cascade's outer scheme) of its chunk, never decoded."""
        if not (use_kernels and rows):
            return None
        chunk = chunk_of(name)
        outer = kernels.plain_scheme(chunk.scheme)
        if not isinstance(outer, RunScheme):
            return None
        form = kernels.resolve_form(chunk.scheme, chunk.form)
        values = np.asarray(form.constituent("values").values, dtype=table.column(name).dtype)
        runs = _runs_key(values, np.searchsorted(local, outer.run_bounds(form)[:-1]), rows)
        if runs is not None:
            served(name, rows)
        return runs

    coded = dictionary_codes(key) if isinstance(key, str) else None
    runs = form_runs(key) if isinstance(key, str) and coded is None else None
    if coded is None and runs is None:
        values = operand(key)
        if rows and np.all(values[1:] >= values[:-1]):
            starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
            runs = _runs_key(values[starts], starts, rows)
        else:
            coded = np.unique(values, return_inverse=True)
    if runs is not None:
        keys, starts, lengths = runs
        reduce = functools.partial(_reduce_by_runs, starts, lengths)
    else:
        keys, codes = coded
        reduce = functools.partial(_reduce_by_codes, codes.reshape(-1), int(keys.size))
    return GroupedAggState(keys=keys, rows=rows, aggregates={
        output_name: (op, reduce(None if op == "count" else operand(ref), op))
        for output_name, op, ref in aggregates})
