"""Selection-aware, chunk-parallel scan scheduling.

A chunk-at-a-time scheduler that evaluates the *whole conjunction* per chunk:

* per chunk, each conjunct goes through the usual cascade — zone-map
  decision, compressed-form pushdown, decompress-and-compare — into one
  chunk-local boolean mask, AND-ed in place; the chunk **short-circuits**
  as soon as the mask goes empty: later conjuncts are never evaluated there;
* values decompressed for one conjunct are cached for the duration of the
  chunk, so several predicates over the same column cost one decompression
  pass, and the columns requested via *materialize* are gathered inside
  the same per-chunk step, reusing that cache;
* :class:`~repro.engine.stats.ScanStats` are merged across **all** conjuncts;
* the chunk range is the one unit of execution: :func:`execute_range`
  takes the query's :class:`ScanSpec` and a range and does everything that
  happens to it — conjunction, gathers and derived columns, the range's
  mergeable aggregate state when the spec carries an aggregate plan
  (:func:`repro.engine.operators.aggregate_state`; only the state leaves
  the range), with the fault plan installed and corruption quarantined per
  policy.  Ranges run in a serial loop or fan out over the process pool of
  :mod:`repro.engine.parallel` (:func:`choose_backend` is the one rule
  deciding which); either way it is that function that runs, and
  :func:`scan_table` folds the outcomes in chunk order (:func:`_fold`), so
  parallel results are bit-identical to serial ones.

Pruning is decided in two places.  Before any range runs,
:func:`_live_ranges` holds every range of the grid against the leading
range/point conjuncts in one NumPy pass over the columns' zone-map arrays
(:meth:`StoredColumn.zone_maps`): a range whose first conjunct that does not
accept it whole rejects it whole is never executed, on either backend — not
queued, no form built, no descriptor read — nor is one every conjunct
accepts whole in a scalar count/sum/min/max scan of stored integer columns,
answered from its zone maps' bounds and totals.  Each kind contributes one
outcome, counter for counter what the range executor would have reported.  Every other zone-map decision (a conjunct
without pushable bounds, a row filter, a column on another chunk grid) is the
range executor's, chunk by chunk, from the same
:func:`~repro.storage.statistics.zone_verdict`.

The scheduler does not care where chunk constituents live: over a packed
table opened through :mod:`repro.io` each chunk's compressed form is
mmap-lazy behind the :class:`~repro.schemes.base.CompressedForm` constituent
mapping, so zone-map decisions (footer arrays) happen **before any file
I/O**, a pruned chunk's bytes are never mapped (a range its zone maps rule
out whole costs its counters only: no mask, no gather), and pushdown maps
only the constituents it reads.

:func:`repro.storage.column_store.gather_rows` (re-exported here) is the
materialisation half on its own: it buckets a position list by chunk with
one ``searchsorted`` and decompresses only the chunks actually hit.

Two extension points serve the lazy query API (:mod:`repro.api`):

* **row filters** — duck-typed objects with ``columns`` (referenced column
  names), ``evaluate(env) -> bool ndarray`` (*env* maps each referenced
  column to its values over the chunk range) and ``chunk_decision(stats_env)
  -> Optional[bool]`` — express predicates the single-column
  :class:`~repro.engine.predicates.Predicate` cascade cannot, e.g.
  ``a < b`` across columns.  They are evaluated after the per-column
  conjuncts (sharing the same per-chunk decompression cache and
  short-circuiting), with zone-map decisions from interval arithmetic over
  every referenced column's statistics;
* **derived columns** — ``(name, spec)`` pairs where *spec* has ``columns``
  and ``evaluate(env) -> ndarray``; the expression is evaluated per chunk
  range against values gathered at the surviving positions from the scan's
  shared decompressed buffers, so a projection like ``price * qty`` never
  materialises its inputs table-wide.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..columnar.column import Column
from ..columnar.compile import cache_info
from ..errors import CorruptionError, QueryError, ScanTimeoutError
from ..storage.column_store import StoredColumn, gather_rows
from ..storage.statistics import ZoneMaps, zone_verdict
from ..storage.table import Table
from . import kernels, resilience
from .context import ExecutionContext
from .operators import SelectionVector, aggregate_state, evaluate_over, \
    merge_states, sparse_hits, whole_chunk_state
from .predicates import Between, Equals, Predicate, RangeBounds
from .stats import ScanStats

__all__ = ["ScanResult", "ScanSpec", "scan_table", "execute_range",
           "gather_rows", "choose_backend", "describe_backend", "columns_read_decoded",
           "BACKENDS"]

#: The execution backends a scan can run on: ``serial``, and ``process`` (a
#: pool of long-lived worker processes that mmap the same packed file, see
#: :mod:`repro.engine.parallel`).
BACKENDS = ("serial", "process")

#: Tables below this row count resolve ``workers="auto"`` to serial —
#: fan-out overhead cannot pay for itself on data this small.
MIN_PARALLEL_ROWS = 1 << 16


def choose_backend(table: Table, workers: Union[int, str],
                   num_ranges: int) -> Tuple[int, str]:
    """The one rule deciding where a scan over *table* runs: returns
    ``(effective workers, backend label)``; one effective worker
    means serial.  *workers* is ``ExecutionContext.workers``: ``1`` is
    serial; a larger count is honoured up to *num_ranges* (extra workers
    would only idle); ``"auto"`` is ``min(cpu_count, num_ranges)``, or 1
    below :data:`MIN_PARALLEL_ROWS` rows.  More than one effective worker
    runs on the process pool, which needs the table to be one packed file;
    otherwise the scan is serial and the label says why.  ``explain()``,
    :func:`scan_table` and the aggregate router all decide through here, so
    the report cannot drift from the executor.
    """
    if workers == 1:
        return 1, "serial"
    if workers == "auto":
        count = 1 if table.row_count < MIN_PARALLEL_ROWS \
            else min(os.cpu_count() or 1, num_ranges)
    else:
        count = min(workers, num_ranges)
    if count <= 1:
        return 1, f"serial (process[{workers}] resolved to 1 worker)"
    from .parallel import packed_source_path

    if packed_source_path(table) is None:
        return 1, (f"serial (process[{workers}] requested; table is not "
                   "backed by a single packed file)")
    return count, f"process[{count}]"


@dataclass
class ScanSpec:
    """What one query asks of every chunk range.

    :func:`scan_table` builds one per scan and :func:`execute_range` reads
    everything off it; pickled once per query beside the table's path, it is
    also all that pool workers are told — no column data, no chunk bytes.
    *aggregates*, when set, is
    the aggregate plan ``{"key": operand | None, "aggregates": [(output,
    op, operand | None)]}`` with ops count/sum/min/max (see
    :func:`repro.engine.operators.aggregate_state`).  An operand is the
    name of a stored column — read through the kernels where they serve —
    or an expression spec (``columns`` + ``evaluate(env)``, the *derive*
    protocol) over this spec's *materialize* and *derive* outputs,
    evaluated per range at the surviving positions; ``None`` is
    ``count(*)``.  Each range then folds its rows into a mergeable state
    and returns that instead of positions and pieces.  *context* is the
    query's (resolved) :class:`ExecutionContext`, carried whole: the range
    executor reads the scan switches, the fault plan and the corruption
    policy off it, the coordinator the retry/deadline policy.
    """

    predicates: Tuple[Any, ...]
    row_filters: Tuple[Any, ...] = ()
    derive: Tuple[Tuple[str, Any], ...] = ()
    materialize: Tuple[str, ...] = ()
    aggregates: Optional[Dict[str, Any]] = None
    context: ExecutionContext = ExecutionContext()

    def input_columns(self) -> List[str]:
        """Every column a range reads, each once, in first-use order."""
        names = [p.column_name for p in self.predicates]
        names += [name for rf in self.row_filters for name in rf.columns]
        names += self.materialize
        names += [name for __, spec in self.derive for name in spec.columns]
        names += [operand for operand in self.aggregate_operands()
                  if isinstance(operand, str)]
        return list(dict.fromkeys(names))

    def aggregate_operands(self) -> List[Any]:
        """The key and operands of the aggregate plan (``count(*)`` has
        none): stored-column names and expression specs over the outputs."""
        if self.aggregates is None:
            return []
        operands = [self.aggregates["key"]]
        operands += [operand for __, __, operand in self.aggregates["aggregates"]]
        return [operand for operand in operands if operand is not None]


@dataclass
class ScanResult:
    """What one scheduled scan produced.

    Attributes
    ----------
    selection:
        Qualifying global row positions, in ascending order.  Empty for an
        aggregate scan: its rows were folded into *state* range by range
        and never left the range executor (``stats.rows_selected`` still
        counts them).
    stats:
        Merged :class:`ScanStats` over every conjunct.
    columns:
        The columns requested via ``materialize`` and ``derive``, gathered
        at the selected positions chunk-by-chunk inside the scan pass.
        Empty for an aggregate scan, like *selection*.
    state:
        For ``aggregates=`` scans, the ranges' states folded in range order
        (``{output: ScalarAggState}`` or a ``GroupedAggState``).
    """

    selection: SelectionVector
    stats: ScanStats
    columns: Dict[str, Column] = field(default_factory=dict)
    #: What actually executed: ``"serial"`` or ``"process[n]"`` — including
    #: any fallback note (e.g. a parallel scan over a table that is not
    #: backed by one packed file runs serially and says why).
    backend: str = "serial"
    state: Optional[Any] = None


_NO_POSITIONS = np.empty(0, dtype=np.int64)
_NO_POSITIONS.setflags(write=False)


@dataclass
class _RangeOutcome:
    """Per-chunk-range result, merged in range order by the scheduler; the
    one payload shape a pool worker sends back — which may have spooled the
    arrays (:mod:`repro.engine.parallel`): *positions* and *pieces* are then
    ``(dtype, size, offset)`` descriptors into *spool*, the claimed file."""

    positions: np.ndarray
    stats: ScanStats
    pieces: Dict[str, np.ndarray]
    state: Optional[Any] = None
    spool: Optional[Any] = None


def _evaluate_derived(derive: Sequence[Tuple[str, Any]],
                      pieces: Dict[str, np.ndarray], gather, rows: int) -> None:
    """Evaluate the *derive* specs, in order, into *pieces* (which holds the
    materialised columns); ``gather(name)`` supplies a stored column that is
    not among them, once."""
    gathered = dict(pieces)
    for out_name, derived in derive:
        for name in derived.columns:
            if name not in gathered:
                gathered[name] = gather(name)
        pieces[out_name] = evaluate_over(derived, gathered, rows)


def empty_outputs(table: Table, materialize: Sequence[str],
                  derive: Sequence[Tuple[str, Any]]) -> Dict[str, np.ndarray]:
    """Zero-row arrays of the dtypes a scan's outputs carry: stored dtypes
    for *materialize*, and for *derive* whatever the expressions evaluate to
    over empty inputs.  Every place that needs an output's dtype without
    scanning reads it here."""
    def empty(name: str) -> np.ndarray:
        return np.empty(0, dtype=table.column(name).dtype)

    pieces = {name: empty(name) for name in materialize}
    _evaluate_derived(derive, pieces, empty, 0)
    return pieces


def _empty_outcome(table: Table, spec: ScanSpec, stats: ScanStats) -> _RangeOutcome:
    """The outcome, around its *stats*, of a range no row of which is read
    (skipped under ``on_corruption="quarantine"``, or ruled out by its zone
    maps) — what the general path makes of an empty selection: zero rows,
    output arrays of the dtypes a real outcome would carry
    (:func:`empty_outputs`), an aggregate state built over them, so that its
    dtypes and identities match every other range's."""
    pieces = empty_outputs(table, spec.materialize, spec.derive)
    state = None
    if spec.aggregates is not None:
        # No row survives, so no chunk is offered, read or served.
        state = aggregate_state(table, _NO_POSITIONS, spec.aggregates, served=None,
                                chunks_of=lambda name: (), chunk_values=None,
                                outputs=pieces)
        pieces = {}
    return _RangeOutcome(positions=_NO_POSITIONS, stats=stats, pieces=pieces,
                         state=state)


def _rules_out_range(rows: int, span: int) -> bool:
    """Whether a zone-map verdict against *rows* rows of a *span*-row range
    leaves the range nothing to read: it then costs its counters only."""
    return rows == span


# --------------------------------------------------------------------------- #
# Chunk bucketing
# --------------------------------------------------------------------------- #

def _pushable_bounds(predicate: Predicate) -> Optional[RangeBounds]:
    """The inclusive range a predicate pushes down as, if any.

    ``Between`` carries its bounds; an integer ``Equals`` is the degenerate
    range ``[value, value]``.  Anything else stays on the decompress-and-
    compare path.
    """
    if isinstance(predicate, Between):
        return predicate.bounds
    if isinstance(predicate, Equals):
        value = predicate.value
        if isinstance(value, (int, np.integer)) \
                and not isinstance(value, (bool, np.bool_)):
            return RangeBounds(int(value), int(value))
    return None


def _overlapping_chunks(stored: StoredColumn, lo: int, hi: int):
    """Chunks of *stored* intersecting the global row range ``[lo, hi)``."""
    first = int(np.searchsorted(stored.zone_maps().starts, lo, side="right")) - 1
    for index in range(max(first, 0), stored.num_chunks):
        chunk = stored.chunks[index]
        if chunk.row_offset >= hi:
            break
        yield chunk


# --------------------------------------------------------------------------- #
# The scheduler
# --------------------------------------------------------------------------- #

def _zone_verdicts(bounds: RangeBounds, minima: np.ndarray, maxima: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """``(rejected, accepted)`` of *bounds* for every chunk at once:
    :func:`zone_verdict` over the zone-map arrays, the bounds first cut to
    the arrays' integer dtype so both sides compare exactly."""
    info = np.iinfo(minima.dtype)
    if bounds.low > info.max or bounds.high < info.min:  # no value of the dtype is in range
        return np.ones(minima.size, dtype=bool), np.zeros(minima.size, dtype=bool)
    return zone_verdict(minima.dtype.type(max(bounds.low, info.min)),
                        minima.dtype.type(min(bounds.high, info.max)), minima, maxima)


def _on_grid(zone: ZoneMaps, grid: ZoneMaps) -> bool:
    """Whether a column's chunks are the scheduling grid's ranges."""
    return np.array_equal(zone.starts, grid.starts) and np.array_equal(zone.counts, grid.counts)


def _footer_operands(table: Table, spec: ScanSpec, grid: ZoneMaps
                     ) -> Optional[Dict[str, ZoneMaps]]:
    """The zone maps of the columns a scalar count/sum/min/max scan reduces,
    if it has no row filter or output and every operand is a stored integer
    column on the grid (a range it selects whole is then answered from them)."""
    plan = spec.aggregates
    if plan is None or plan["key"] is not None or spec.row_filters or spec.materialize \
            or spec.derive:
        return None
    refs = [ref for __, op, ref in plan["aggregates"] if op != "count"]  # a count reads nothing
    if not all(isinstance(ref, str) for ref in refs):
        return None
    zones = {ref: table.column(ref).zone_maps() for ref in refs}
    aligned = all(zone.minima is not None and _on_grid(zone, grid) for zone in zones.values())
    return zones if aligned else None


def _live_ranges(table: Table, spec: ScanSpec
                 ) -> Tuple[List[Tuple[int, int]], List[_RangeOutcome]]:
    """The ranges of the scheduling grid a scan has to execute, and the
    outcomes of the others, settled here from their zone maps.

    The grid is the chunk ranges of the first conjunct's column.  (Tables
    built through :meth:`Table.from_columns` share one chunk size; the range
    executor still handles misaligned columns by slicing overlaps.)  When
    every predicate's column has that grid, the leading conjuncts with
    pushable bounds over integer columns are decided for all ranges in one
    pass: a range is ruled out by the first conjunct that does not accept it
    whole if that conjunct rejects it whole, and is charged what
    :func:`_scan_range` charges such a range — a slot per conjunct: accepted
    before, skipped at, short-circuited after.  A range every conjunct
    accepts whole (any range, without conjuncts) is answered when
    :func:`_footer_operands` allows, and is charged what :func:`_scan_range`
    and :func:`aggregate_state` charge it.
    """
    predicates, row_filters = spec.predicates, spec.row_filters
    if predicates:
        grid_name = predicates[0].column_name
    else:
        grid_name = next((name for rf in row_filters for name in rf.columns),
                         None)
        if grid_name is None:  # only column-free (constant) row filters
            grid_name = table.column_names[0]
    grid = table.column(grid_name).zone_maps()
    starts, counts = grid.starts, grid.counts
    ranges = list(zip(starts.tolist(), (starts + counts).tolist()))
    zones = [table.column(predicate.column_name).zone_maps() for predicate in predicates]
    if not spec.context.use_zone_maps or not all(_on_grid(zone, grid) for zone in zones):
        return ranges, []
    ruled_out_at = np.full(starts.size, -1)  # the conjunct that rejected the range
    whole = np.ones(starts.size, dtype=bool)  # every conjunct so far accepted it whole
    for index, (predicate, zone) in enumerate(zip(predicates, zones)):
        bounds = _pushable_bounds(predicate)
        if bounds is None or zone.minima is None or not whole.any():
            whole[:] = False  # the range executor decides the rest
            break
        rejected, accepted = _zone_verdicts(bounds, zone.minima, zone.maxima)
        ruled_out_at[whole & rejected] = index
        whole &= accepted
    settled = []
    dead = ruled_out_at >= 0
    if dead.any():
        at, slots = ruled_out_at[dead], len(predicates) + len(row_filters)
        settled.append(_empty_outcome(table, spec, ScanStats(
            chunks_total=at.size * slots, chunks_skipped=at.size,
            chunks_fully_accepted=int(at.sum()),
            chunks_short_circuited=int((slots - 1 - at).sum()),
            rows_scanned=int((counts[dead] * (at + 1)).sum()))))
    operands = _footer_operands(table, spec, grid) if whole.any() else None
    if operands is None:
        whole[:] = False
    else:  # every conjunct's slot accepted; each aggregate's chunk served
        chunks, rows, slots = int(whole.sum()), int(counts[whole].sum()), len(predicates)
        served = sum(op != "count" for __, op, __ in spec.aggregates["aggregates"])
        saved = rows * sum(zone.minima.itemsize for zone in operands.values())
        stats = ScanStats(chunks_total=chunks * slots, chunks_fully_accepted=chunks * slots,
                          rows_scanned=rows * slots, rows_selected=rows,
                          rows_computed_compressed=rows * served, bytes_decompressed_saved=saved)
        settled.append(_RangeOutcome(_NO_POSITIONS, stats, {}, whole_chunk_state(
            spec.aggregates, operands, whole, rows)))
    return [span for span, gone in zip(ranges, (dead | whole).tolist()) if not gone], settled


def columns_read_decoded(materialize: Sequence[str], row_filters: Sequence) -> set:
    """Columns whose values a range reads besides filtering on them.  Where
    a conjunct's kernel would unpack the whole chunk anyway, it compares
    the decoded (then cached) values: equal cost, and the gather reuses them."""
    return set(materialize).union(*(row_filter.columns for row_filter in row_filters))


def _scan_range(table: Table, spec: ScanSpec, lo: int, hi: int) -> _RangeOutcome:
    """Evaluate the whole conjunction over ``[lo, hi)``, then gather the
    requested columns or build the aggregate state at the surviving rows
    (the body of :func:`execute_range`, which adds the fault handling)."""
    context = spec.context
    use_pushdown = context.use_pushdown
    use_zone_maps = context.use_zone_maps
    use_compressed_exec = context.use_compressed_exec
    stats = ScanStats()
    span = hi - lo
    mask: Optional[np.ndarray] = None  # None == every row still alive
    alive = True
    pruned = False  # zone maps ruled the whole range out: no mask, no gather
    #: (column name, chunk row offset) -> decompressed chunk values; shared
    #: between conjuncts and with the materialisation step below, so each
    #: chunk is decompressed at most once per scan pass.
    values_cache: Dict[Tuple[str, int], Column] = {}
    #: (column name, chunk row offset) -> uncompressed bytes, for chunks some
    #: step served in the compressed domain; chunks still unmaterialised when
    #: the range finishes count as decompression output actually avoided.
    compressed_saved: Dict[Tuple[str, int], int] = {}
    read_decoded = columns_read_decoded(spec.materialize, spec.row_filters)

    def served(name: str, chunk, rows: int) -> None:
        """*rows* of *chunk* were computed without decompressing it."""
        stats.rows_computed_compressed += rows
        compressed_saved.setdefault((name, chunk.row_offset),
                                    chunk.row_count * table.column(name).dtype.itemsize)

    def chunks_of(name: str):
        """The chunks of column *name* intersecting ``[lo, hi)``."""
        return _overlapping_chunks(table.column(name), lo, hi)

    def chunk_values(name: str, chunk) -> Column:
        key = (name, chunk.row_offset)
        values = values_cache.get(key)
        if values is None:
            stats.chunks_decompressed += 1
            values = values_cache[key] = chunk.decompress()
        return values

    def span_values(name: str) -> np.ndarray:
        """The column's values over ``[lo, hi)`` (no copy when one chunk covers it)."""
        out: Optional[np.ndarray] = None
        for chunk in chunks_of(name):
            o_lo = max(lo, chunk.row_offset)
            o_hi = min(hi, chunk.row_offset + chunk.row_count)
            piece = chunk_values(name, chunk).values[
                o_lo - chunk.row_offset:o_hi - chunk.row_offset]
            if out is None and o_lo == lo and o_hi == hi:
                return piece
            if out is None:
                out = np.empty(span, dtype=table.column(name).dtype)
            out[o_lo - lo:o_hi - lo] = piece
        assert out is not None, f"column {name!r} does not cover rows [{lo}, {hi})"
        return out

    for predicate in spec.predicates:
        name = predicate.column_name
        for chunk in chunks_of(name):
            stats.chunks_total += 1
            if not alive:
                stats.chunks_short_circuited += 1
                continue
            o_lo = max(lo, chunk.row_offset)
            o_hi = min(hi, chunk.row_offset + chunk.row_count)
            stats.rows_scanned += o_hi - o_lo

            decision = (predicate.chunk_decision(chunk.statistics)
                        if use_zone_maps else None)
            if decision is True:
                stats.chunks_fully_accepted += 1
                continue
            if decision is False:
                stats.chunks_skipped += 1
                if _rules_out_range(o_hi - o_lo, span):
                    pruned, alive = True, False
                    continue
                if mask is None:
                    mask = np.ones(span, dtype=bool)
                mask[o_lo - lo:o_hi - lo] = False
                continue

            chunk_mask: Optional[np.ndarray] = None
            if use_pushdown:
                bounds = _pushable_bounds(predicate)
                if bounds is not None and not (
                        name in read_decoded
                        and kernels.filter_range_decodes(chunk.scheme, chunk.form)):
                    pushed = kernels.filter_range(chunk.scheme, chunk.form,
                                                  bounds)
                    if pushed is not None:
                        chunk_mask, push_stats = pushed
                        stats.chunks_pushed_down += 1
                        served(name, chunk, o_hi - o_lo)
                        stats.merge_pushdown(push_stats)
            if chunk_mask is None:
                chunk_mask = predicate.evaluate(chunk_values(name, chunk)).values

            segment = chunk_mask[o_lo - chunk.row_offset:o_hi - chunk.row_offset]
            if mask is None:
                mask = np.ones(span, dtype=bool)
            region = mask[o_lo - lo:o_hi - lo]
            np.logical_and(region, segment, out=region)
        if alive and mask is not None and not mask.any():
            alive = False

    # Row filters: multi-column conjuncts, evaluated against the chunk
    # range's shared decompressed buffers after the per-column cascade.
    span_cache: Dict[str, np.ndarray] = {}
    for row_filter in spec.row_filters:
        stats.chunks_total += 1
        if not alive:
            stats.chunks_short_circuited += 1
            continue
        stats.rows_scanned += span
        decision = None
        if use_zone_maps:
            stats_env: Optional[Dict[str, object]] = {}
            for name in row_filter.columns:
                overlapping = list(chunks_of(name))
                if len(overlapping) != 1:
                    stats_env = None  # misaligned chunks: no single zone map
                    break
                stats_env[name] = overlapping[0].statistics
            if stats_env is not None:
                decision = row_filter.chunk_decision(stats_env)
        if decision is True:
            stats.chunks_fully_accepted += 1
            continue
        if decision is False:
            stats.chunks_skipped += 1
            alive = False
            if _rules_out_range(span, span):
                pruned = True
            else:
                mask = np.zeros(span, dtype=bool)
            continue
        for name in row_filter.columns:
            if name not in span_cache:
                span_cache[name] = span_values(name)
        filter_mask = np.asarray(
            row_filter.evaluate({name: span_cache[name]
                                 for name in row_filter.columns}), dtype=bool)
        if filter_mask.ndim == 0:  # constant filter: broadcast over the range
            filter_mask = np.full(span, bool(filter_mask))
        if mask is None:
            mask = filter_mask.copy()
        else:
            np.logical_and(mask, filter_mask, out=mask)
        if not mask.any():
            alive = False

    def saved_accounted(outcome: _RangeOutcome) -> _RangeOutcome:
        for key, saved_bytes in compressed_saved.items():
            if key not in values_cache:
                stats.bytes_decompressed_saved += saved_bytes
        return outcome

    if pruned:
        return saved_accounted(_empty_outcome(table, spec, stats))
    if mask is None:
        positions = np.arange(lo, hi, dtype=np.int64)
    else:
        positions = np.flatnonzero(mask).astype(np.int64, copy=False)
        positions += lo
    stats.rows_selected += positions.size

    def gather(name: str) -> np.ndarray:
        if mask is None:  # every row alive: slice, no positional gather
            return span_values(name)
        stored = table.column(name)
        out = np.empty(positions.size, dtype=stored.dtype)
        if positions.size:
            for chunk in chunks_of(name):
                c_lo, c_hi = chunk.row_offset, chunk.row_offset + chunk.row_count
                start, stop = np.searchsorted(positions, [c_lo, c_hi])
                if start == stop:
                    continue
                # Rebuilt per column, not kept per chunk grid: kept, they add
                # 8 bytes per selected row to the range's peak for no gain.
                local = positions[start:stop] - c_lo
                key = (name, chunk.row_offset)
                hits = stop - start
                # Sparse hits on a not-yet-decompressed chunk whose form can
                # gather positionally: stay in the compressed domain instead
                # of scheduling a decompression (bit-identical either way).
                if (use_compressed_exec and key not in values_cache
                        and sparse_hits(hits, chunk)):
                    gathered = kernels.gather(chunk.scheme, chunk.form, local)
                    if gathered is not None:
                        out[start:stop] = gathered
                        served(name, chunk, hits)
                        continue
                values = chunk_values(name, chunk).values
                if values.dtype != out.dtype:  # a footer at odds with its chunks
                    values = values.astype(out.dtype)
                # Straight into the span; in range by construction ("clip").
                np.take(values, local, out=out[start:stop], mode="clip")
        return out

    pieces = {name: gather(name) for name in spec.materialize}
    _evaluate_derived(spec.derive, pieces, gather, positions.size)
    state = None
    if spec.aggregates is not None:
        # The rows are folded into the state here, where their chunks are;
        # positions and pieces go no further.
        state = aggregate_state(table, positions, spec.aggregates, served,
                                chunks_of, chunk_values, outputs=pieces,
                                use_kernels=use_compressed_exec,
                                use_zone_maps=use_zone_maps)
        positions, pieces = _NO_POSITIONS, {}
    return saved_accounted(_RangeOutcome(positions=positions, stats=stats,
                                         pieces=pieces, state=state))


def execute_range(table: Table, spec: ScanSpec, lo: int, hi: int) -> _RangeOutcome:
    """Execute *spec* over the chunk range ``[lo, hi)`` of *table*.

    The one unit of execution: the serial loop of :func:`scan_table` and
    the pool workers of :mod:`repro.engine.parallel` both call this, so a
    range behaves the same wherever it runs.  The conjunction is evaluated,
    columns are gathered or derived and, for an aggregate plan, the range's
    mergeable state is built, all with the spec's read-path fault plan
    installed; a :class:`~repro.errors.CorruptionError` from any of it
    becomes the quarantined outcome under ``on_corruption="quarantine"``.
    The outcome's ``plan_cache_*`` stats are this process's compile-cache
    delta for the range: they add up across independently warming workers.
    """
    context = spec.context
    before = cache_info()
    try:
        with resilience.active(context.fault_plan):
            outcome = _scan_range(table, spec, lo, hi)
    except CorruptionError:
        if context.fault_policy.on_corruption != "quarantine":
            raise
        # The skip is result-affecting: chunks_quarantined stays in
        # ScanStats.comparable().
        outcome = _empty_outcome(table, spec, ScanStats(chunks_quarantined=1,
                                                        fault_events=1))
    after = cache_info()
    stats = outcome.stats
    stats.plan_cache_hits = (after["scheme_hits"] - before["scheme_hits"]
                             + after["plan_hits"] - before["plan_hits"])
    stats.plan_cache_misses = after["plan_misses"] - before["plan_misses"]
    return outcome


def describe_backend(table: Table, predicates: Sequence[Predicate],
                     row_filters: Sequence, context: ExecutionContext,
                     **outputs: Any) -> str:
    """The backend label a scan of this conjunction and *outputs* (its
    ``materialize``, ``derive``, ``aggregates``) over *table* will carry
    (``ScanResult.backend``, fault degradation aside): what ``explain()`` prints."""
    ranges = _live_ranges(table, ScanSpec(predicates=tuple(predicates),
                                          row_filters=tuple(row_filters), context=context,
                                          **outputs))[0]
    return choose_backend(table, context.workers, len(ranges))[1]


def _fold(outcomes: Sequence[_RangeOutcome], names: Sequence[str]
          ) -> Tuple[Column, Dict[str, Column]]:
    """The positions and the *names* outputs of *outcomes*, in range order:
    each allocated once, every range's slice assigned — or, spooled, read
    from its file straight into place.  Closes the spool files."""
    def folded(pick, name: Optional[str] = None) -> Column:
        pieces = [pick(outcome) for outcome in outcomes]
        out = np.empty(sum(piece.size for piece in pieces),
                       dtype=np.result_type(*(piece.dtype for piece in pieces)))
        stop = 0
        for outcome, piece in zip(outcomes, pieces):
            start, stop = stop, stop + piece.size
            if outcome.spool is None:
                out[start:stop] = piece
            else:
                outcome.spool.read_into(piece, out[start:stop])
        return Column.adopt(out, name=name)

    try:
        return folded(lambda o: o.positions), {
            name: folded(lambda o: o.pieces[name], name) for name in names}
    finally:
        for outcome in outcomes:
            if outcome.spool is not None:
                outcome.spool.close()


def scan_table(table: Table, predicates: Sequence[Predicate], *,
               materialize: Sequence[str] = (),
               row_filters: Sequence = (),
               derive: Sequence[Tuple[str, object]] = (),
               aggregates: Optional[Dict[str, Any]] = None,
               context: ExecutionContext = ExecutionContext()) -> ScanResult:
    """Run the chunk-at-a-time scan pipeline over *table*.

    Evaluates the conjunction of *predicates* plus *row_filters* (all of
    them, short-circuiting per chunk) and, when *materialize* names columns,
    gathers those columns at the qualifying positions inside the same pass.
    *derive* is an ordered sequence of ``(output name, spec)`` pairs whose
    expressions are evaluated per chunk range against the gathered values
    (see the module docstring for the spec protocol).  *aggregates* is an
    aggregate plan (see :class:`ScanSpec`) whose operands and key are stored
    columns or expressions over the *materialize*/*derive* outputs: every
    range then folds its rows into a mergeable state, ``ScanResult.state``
    is the ranges' states merged, and no selection or column comes back.  A
    scan without conjuncts selects every row through the same range loop.

    *context* holds every execution option (:class:`ExecutionContext`):
    the worker count (:func:`choose_backend` turns it into serial or the
    process pool; either way every range runs :func:`execute_range` and
    :func:`_fold` merges outcomes in chunk order, bit-identically), the
    fault policy and fault-injection plan (:mod:`repro.engine.resilience`),
    and the switches of compressed-domain execution, consulted before any
    decompression is scheduled: with ``use_pushdown`` range/point conjuncts
    dispatch through the kernel table
    (:func:`repro.engine.kernels.filter_range`), with
    ``use_compressed_exec`` sparse gathers run positionally on capable
    compressed forms (``ScanStats.rows_computed_compressed`` and
    ``bytes_decompressed_saved`` account for both), ``use_zone_maps``.
    """
    spec = ScanSpec(predicates=tuple(predicates),
                    row_filters=tuple(row_filters), derive=tuple(derive),
                    materialize=tuple(materialize), aggregates=aggregates,
                    context=context.resolved())
    for name in spec.input_columns():
        if name not in table:
            raise QueryError(f"unknown scan column {name!r}")
    output_names = list(spec.materialize) + [name for name, __ in spec.derive]
    if len(set(output_names)) != len(output_names):
        raise QueryError(f"duplicate scan output names in {output_names!r}")
    for operand in spec.aggregate_operands():
        if not isinstance(operand, str) \
                and not set(operand.columns) <= set(output_names):
            raise QueryError(f"aggregate operand {operand!r} reads a column "
                             f"that is not a scan output ({output_names!r})")

    policy = spec.context.fault_policy
    ranges, settled = _live_ranges(table, spec)
    workers, backend = choose_backend(table, spec.context.workers, len(ranges))
    deadline = time.monotonic() + (policy.deadline_s or float("inf"))

    outcomes: Optional[List[_RangeOutcome]] = None
    pool_report = None
    if workers > 1:
        from . import parallel

        try:
            outcomes, pool_report = parallel.run_process_scan(
                table, ranges, workers, spec)
        except parallel.ProcessBackendUnavailable as unavailable:
            backend = f"serial ({unavailable})"
        except parallel.ParallelExecutionError as failure:
            # ScanTimeoutError is deliberately not caught: the deadline is
            # spent, degrading would only blow the budget further.
            if policy.on_fault != "degrade":
                raise
            reason = (str(failure).strip() or type(failure).__name__).splitlines()[0]
            backend = f"serial (degraded: {backend} failed: {reason})"
    if outcomes is None:
        outcomes = []
        for lo, hi in ranges:
            if time.monotonic() > deadline:
                raise ScanTimeoutError(
                    f"scan exceeded its {policy.deadline_s:g}s fault-policy "
                    f"deadline before finishing chunk range [{lo}, {hi})")
            outcomes.append(execute_range(table, spec, lo, hi))
    outcomes += settled  # no positions or pieces, so their place is free

    stats = ScanStats(predicates_total=len(spec.predicates) + len(spec.row_filters))
    for outcome in outcomes:
        stats.merge(outcome.stats)
    if pool_report is not None:
        pool_report.apply(stats)

    # A stored column always has at least one chunk — executed or settled —
    # so outcomes is non-empty.
    # An aggregate scan's ranges kept their pieces: only states came back.
    positions, columns = _fold(outcomes, output_names if aggregates is None else [])
    state = None if aggregates is None else merge_states([o.state for o in outcomes])
    return ScanResult(selection=SelectionVector(positions), stats=stats,
                      columns=columns, backend=backend, state=state)
