"""Selection-aware, chunk-parallel scan scheduling.

Every column of a table is cut on one chunk grid (:attr:`Table.grid`), so a
chunk range is exactly one chunk of each column — the unit of work, one
vector per column per step.  A chunk-at-a-time scheduler evaluates the
*whole conjunction* per chunk range:

* each conjunct goes through the usual cascade — zone-map decision,
  compressed-form pushdown, decompress-and-compare — into one range-local
  boolean mask, AND-ed in place; the range **short-circuits** as soon as
  the mask goes empty: later conjuncts are never evaluated there;
* values decompressed for one conjunct are cached for the duration of the
  range, so several conjuncts over the same column cost one decompression
  pass, and the columns requested via *materialize* are gathered inside
  the same step, reusing that cache;
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

Conjuncts and derived columns are :mod:`repro.api` expressions
(:class:`~repro.api.expr.Expr`), taken as they are: the scan calls their
``columns``, ``evaluate``, ``decide`` and ``column_range`` methods and
imports nothing of the API.  It partitions the conjuncts itself
(:attr:`ScanSpec.partition`) and runs them in that order:

* a conjunct over **one column** first: the chunk's zone-map verdict is
  ``decide({column: (min, max, dtype)})``, the bounds trusted only where
  the column's zone maps carry them (integer dtypes); a conjunct that is
  exactly a range (:func:`conjunct_range`) then runs the compressed-domain
  kernel; any other decompresses and evaluates;
* every **other** conjunct (``a < b`` across columns) afterwards, against
  the same decompression cache and short-circuiting, its verdict decided
  from every column's zone map;
* **derived columns** are ``(name, expr)`` pairs, evaluated per chunk range
  against values gathered at the surviving positions, so a projection like
  ``price * qty`` never materialises its inputs table-wide; an aggregate
  operand that is not a stored column is such an expression too.

Pruning is decided in two places.  Before any range runs,
:func:`_live_ranges` holds every range of the grid against the leading
conjuncts that are exactly a range, in one NumPy pass over the columns'
zone-map arrays (:meth:`StoredColumn.zone_maps`): a range any of them
rejects whole is never executed, on either backend — not queued, no form
built, no descriptor read — nor is one every conjunct accepts whole in a
scalar count/sum/min/max scan of stored integer columns, answered from its
zone maps' bounds and totals.  Each kind contributes one outcome, counter
for counter what the range executor would have reported.  Every other
zone-map decision (a conjunct that is not exactly a range, one over several
columns) is the range executor's, range by range, and it reads every
conjunct's verdict before it evaluates any: a zone map that rejects a
conjunct rules its whole range out, and no kernel runs there.

The scheduler does not care where chunk constituents live: over a packed
table opened through :mod:`repro.io` each chunk's compressed form is
mmap-lazy behind the :class:`~repro.schemes.base.CompressedForm` constituent
mapping, so zone-map decisions (footer arrays) happen **before any file
I/O**, a pruned chunk's bytes are never mapped (a range its zone maps rule
out costs its counters only: no mask, no gather), and pushdown maps only
the constituents it reads.

:func:`repro.storage.column_store.gather_rows` (re-exported here) is the
materialisation half on its own: it buckets a position list by chunk with
one ``searchsorted`` and decompresses only the chunks actually hit.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..columnar.column import Column
from ..columnar.compile import cache_info
from ..errors import CorruptionError, QueryError, ScanTimeoutError
from ..storage.column_store import gather_rows
from ..storage.statistics import ZoneMaps, zone_verdict
from ..storage.table import Table
from . import kernels, resilience
from .context import ExecutionContext
from .kernels import RangeBounds
from .operators import SelectionVector, aggregate_state, evaluate_over, \
    merge_states, sparse_hits, whole_chunk_state
from .stats import ScanStats

__all__ = ["ScanResult", "ScanSpec", "scan_table", "execute_range",
           "gather_rows", "choose_backend", "describe_backend", "columns_read_decoded",
           "conjunct_range", "kernel_bounds", "BACKENDS"]

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
    *conjuncts* and the expressions of *derive* are :mod:`repro.api`
    expressions.  *aggregates*, when set, is
    the aggregate plan ``{"key": operand | None, "aggregates": [(output,
    op, operand | None)]}`` with ops count/sum/min/max (see
    :func:`repro.engine.operators.aggregate_state`).  An operand is the
    name of a stored column — read through the kernels where they serve —
    or an expression over this spec's *materialize* and *derive* outputs,
    evaluated per range at the surviving positions; ``None`` is
    ``count(*)``.  Each range then folds its rows into a mergeable state
    and returns that instead of positions and pieces.  *context* is the
    query's (resolved) :class:`ExecutionContext`, carried whole: the range
    executor reads the scan switches, the fault plan and the corruption
    policy off it, the coordinator the retry/deadline policy.
    """

    conjuncts: Tuple[Any, ...]
    derive: Tuple[Tuple[str, Any], ...] = ()
    materialize: Tuple[str, ...] = ()
    aggregates: Optional[Dict[str, Any]] = None
    context: ExecutionContext = ExecutionContext()

    @cached_property
    def partition(self) -> Tuple[Tuple[Any, ...], Tuple[Any, ...]]:
        """The conjuncts over one column (the per-chunk cascade) and the
        others (the span path), each in the given order."""
        cascade = tuple(c for c in self.conjuncts if len(c.columns()) == 1)
        return cascade, tuple(c for c in self.conjuncts if len(c.columns()) != 1)

    def input_columns(self) -> List[str]:
        """Every column a range reads, each once, in first-use order."""
        names = [name for conjunct in self.conjuncts for name in conjunct.columns()]
        names += self.materialize
        names += [name for __, expr in self.derive for name in expr.columns()]
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
    ``(dtype, size, offset)`` descriptors into *spool*'s arena — the
    worker's pid on the pipe, the coordinator's mapping once received."""

    positions: np.ndarray
    stats: ScanStats
    pieces: Dict[str, np.ndarray]
    state: Optional[Any] = None
    spool: Optional[Any] = None


def _evaluate_derived(derive: Sequence[Tuple[str, Any]],
                      pieces: Dict[str, np.ndarray], gather, rows: int) -> None:
    """Evaluate the *derive* expressions, in order, into *pieces* (which
    holds the materialised columns); ``gather(name)`` supplies a stored
    column that is not among them, once."""
    gathered = dict(pieces)
    for out_name, derived in derive:
        for name in derived.columns():
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
    """The outcome, around its *stats*, of a range no row of which survives
    (skipped under ``on_corruption="quarantine"``, ruled out by its zone
    maps, or its conjuncts evaluated to no row): zero rows, output arrays of
    the dtypes a real outcome would carry (:func:`empty_outputs`), an
    aggregate state built over them, so that its dtypes and identities match
    every other range's."""
    pieces = empty_outputs(table, spec.materialize, spec.derive)
    state = None
    if spec.aggregates is not None:
        # No row survives, so no chunk is read or served.
        state = aggregate_state(table, None, _NO_POSITIONS, spec.aggregates, served=None,
                                chunk_values=None, outputs=pieces)
        pieces = {}
    return _RangeOutcome(positions=_NO_POSITIONS, stats=stats, pieces=pieces,
                         state=state)


# --------------------------------------------------------------------------- #
# Column ranges
# --------------------------------------------------------------------------- #

def conjunct_range(conjunct, table: Table) -> Optional[Tuple[int, int, bool]]:
    """``(low, high, exact)`` of *conjunct*'s
    :meth:`~repro.api.expr.Expr.column_range` over *table*, its open ends
    closed at the column's zone-map ``[min, max]``; ``None`` when it has
    none, the column's zone maps carry no bounds (floats) or the range is
    provably empty.  Such a conjunct is what ``explain()`` labels
    ``native``; an *exact* one is what zone-map range pruning and the
    kernels take (:func:`kernel_bounds`)."""
    found = conjunct.column_range()
    if found is None:
        return None
    column, low, high, __, exact = found
    zone = table.column(column).zone_maps()
    if zone.minima is None:
        return None
    low = int(zone.minima.min()) if low is None else low
    high = int(zone.maxima.max()) if high is None else high
    return (low, high, exact) if low <= high else None


def kernel_bounds(conjunct, table: Table) -> Optional[RangeBounds]:
    """The bounds *conjunct* pushes down as, when it is exactly a range."""
    found = conjunct_range(conjunct, table)
    return RangeBounds(found[0], found[1]) if found is not None and found[2] else None


def _zone_bounds(table: Table, name: str, chunk) -> Optional[Tuple[int, int, np.dtype]]:
    """A chunk's ``(min, max, dtype)`` as :meth:`~repro.api.expr.Expr.decide`
    reads it: trusted only where the column's zone maps carry bounds."""
    column = table.column(name)
    if column.zone_maps().minima is None:  # rounded bounds decide nothing
        return None
    statistics = chunk.statistics
    return None if statistics.minimum is None \
        else (int(statistics.minimum), int(statistics.maximum), column.dtype)


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


def _footer_operands(table: Table, spec: ScanSpec) -> Optional[Dict[str, ZoneMaps]]:
    """The zone maps of the columns a scalar count/sum/min/max scan reduces,
    if it has no multi-column conjunct or output and every operand is a
    stored integer column (a range it selects whole is then answered from
    them)."""
    plan = spec.aggregates
    if plan is None or plan["key"] is not None or spec.partition[1] or spec.materialize \
            or spec.derive:
        return None
    refs = [ref for __, op, ref in plan["aggregates"] if op != "count"]  # a count reads nothing
    if not all(isinstance(ref, str) for ref in refs):
        return None
    zones = {ref: table.column(ref).zone_maps() for ref in refs}
    return zones if all(zone.minima is not None for zone in zones.values()) else None


def _live_ranges(table: Table, spec: ScanSpec
                 ) -> Tuple[List[Tuple[int, int]], List[_RangeOutcome]]:
    """The chunk ranges of the table's grid (:attr:`Table.grid`, one for
    every column) a scan has to execute, and the outcomes of the others,
    settled here from their zone maps.

    The leading conjuncts that are exactly a range (:func:`kernel_bounds`)
    are decided for all ranges in one pass: a range any of them rejects
    whole is ruled out, and is charged what :func:`_scan_range` charges such
    a range — a slot per conjunct: read before the first rejecting one (and
    accepted where it accepts the range whole), skipped at it,
    short-circuited after.
    A range every conjunct accepts whole (any range, without conjuncts) is
    answered when :func:`_footer_operands` allows, and is charged what
    :func:`_scan_range` and :func:`aggregate_state` charge it.
    """
    cascade = spec.partition[0]
    starts, counts = table.grid
    ranges = list(zip(starts.tolist(), (starts + counts).tolist()))
    if not spec.context.use_zone_maps:
        return ranges, []
    ruled_out_at = np.full(starts.size, -1)  # the first conjunct that rejected the range
    accepted = np.zeros(starts.size, dtype=np.int64)  # conjuncts before it accepting it whole
    whole = np.ones(starts.size, dtype=bool)  # every conjunct so far accepted it whole
    for index, conjunct in enumerate(cascade):
        bounds = kernel_bounds(conjunct, table)
        if bounds is None:
            whole[:] = False  # the range executor decides the rest
            break
        zone = table.column(conjunct.columns()[0]).zone_maps()
        rejects, accepts = _zone_verdicts(bounds, zone.minima, zone.maxima)
        live = ruled_out_at < 0
        accepted += accepts & live
        ruled_out_at[rejects & live] = index
        whole &= accepts
    settled = []
    dead = ruled_out_at >= 0
    if dead.any():
        at, slots = ruled_out_at[dead], len(spec.conjuncts)
        settled.append(_empty_outcome(table, spec, ScanStats(
            chunks_total=at.size * slots, chunks_skipped=at.size,
            chunks_fully_accepted=int(accepted[dead].sum()),
            chunks_short_circuited=int((slots - 1 - at).sum()),
            rows_scanned=int((counts[dead] * (at + 1)).sum()))))
    operands = _footer_operands(table, spec) if whole.any() else None
    if operands is None:
        whole[:] = False
    else:  # every conjunct's slot accepted; each aggregate's chunk served
        chunks, rows, slots = int(whole.sum()), int(counts[whole].sum()), len(cascade)
        served = sum(op != "count" for __, op, __ in spec.aggregates["aggregates"])
        saved = rows * sum(zone.minima.itemsize for zone in operands.values())
        stats = ScanStats(chunks_total=chunks * slots, chunks_fully_accepted=chunks * slots,
                          rows_scanned=rows * slots, rows_selected=rows,
                          rows_computed_compressed=rows * served, bytes_decompressed_saved=saved)
        settled.append(_RangeOutcome(_NO_POSITIONS, stats, {}, whole_chunk_state(
            spec.aggregates, operands, whole, rows)))
    return [span for span, gone in zip(ranges, (dead | whole).tolist()) if not gone], settled


def columns_read_decoded(materialize: Sequence[str], conjuncts: Sequence) -> set:
    """Columns whose values a range reads besides filtering on them: the
    outputs and the columns of conjuncts over several columns.  Where a
    conjunct's kernel would unpack the whole chunk anyway, it compares the
    decoded (then cached) values: equal cost, and the gather reuses them."""
    return set(materialize).union(*(conjunct.columns() for conjunct in conjuncts
                                    if len(conjunct.columns()) != 1))


def _chunk_index(table: Table, lo: int, hi: int) -> int:
    """The index of the chunk range ``[lo, hi)`` on the table's grid; a span
    that is not one chunk of it is refused."""
    starts, counts = table.grid
    index = int(np.searchsorted(starts, lo))
    if index == starts.size or starts[index] != lo or counts[index] != hi - lo:
        raise QueryError(f"rows [{lo}, {hi}) are not a chunk range of the table")
    return index


def _scan_range(table: Table, spec: ScanSpec, lo: int, hi: int) -> _RangeOutcome:
    """Evaluate the whole conjunction over the chunk range ``[lo, hi)``, then
    gather the requested columns or build the aggregate state at the
    surviving rows (the body of :func:`execute_range`, which adds the fault
    handling).  The range is one chunk of every column."""
    context = spec.context
    index = _chunk_index(table, lo, hi)
    stats = ScanStats()
    span = hi - lo
    mask: Optional[np.ndarray] = None  # None == every row still alive
    alive = True  # False: no row left, so no gather and no fold
    #: column name -> the range's chunk of it, decompressed; shared between
    #: conjuncts and with the materialisation step below, so each chunk is
    #: decompressed at most once per scan pass.
    values_cache: Dict[str, np.ndarray] = {}
    #: column name -> uncompressed bytes, for chunks some step served in the
    #: compressed domain; chunks still unmaterialised when the range finishes
    #: count as decompression output actually avoided.
    compressed_saved: Dict[str, int] = {}
    cascade, spans = spec.partition
    read_decoded = columns_read_decoded(spec.materialize, spans)

    def chunk_of(name: str):
        return table.column(name).chunks[index]

    def served(name: str, rows: int) -> None:
        """*rows* of the chunk of *name* were computed without decompressing it."""
        stats.rows_computed_compressed += rows
        compressed_saved.setdefault(name, span * table.column(name).dtype.itemsize)

    def chunk_values(name: str) -> np.ndarray:
        values = values_cache.get(name)
        if values is None:
            stats.chunks_decompressed += 1
            values = values_cache[name] = chunk_of(name).decompress().values
        return values

    # The one-column conjuncts in order, then the others (several columns, or
    # none); only a one-column conjunct is pushed down to its chunk's form.
    # Every zone verdict is read first: in a range one of them rejects, the
    # slots before it are read but nothing is evaluated.
    conjuncts = cascade + spans
    decisions = [conjunct.decide({name: _zone_bounds(table, name, chunk_of(name))
                                  for name in conjunct.columns()})
                 if context.use_zone_maps else None for conjunct in conjuncts]
    ruled_out = False in decisions
    for conjunct, decision in zip(conjuncts, decisions):
        names = conjunct.columns()
        stats.chunks_total += 1
        if not alive:
            stats.chunks_short_circuited += 1
            continue
        stats.rows_scanned += span
        if decision is True:
            stats.chunks_fully_accepted += 1
            continue
        if decision is False:
            stats.chunks_skipped += 1
            alive = False
            continue
        if ruled_out:  # a later slot's zone verdict rejects the range
            continue
        verdict: Optional[np.ndarray] = None
        bounds = kernel_bounds(conjunct, table) if context.use_pushdown else None
        if bounds is not None:
            name, chunk = names[0], chunk_of(names[0])
            if not (name in read_decoded and kernels.filter_range_decodes(chunk.scheme,
                                                                          chunk.form)):
                pushed = kernels.filter_range(chunk.scheme, chunk.form, bounds)
                if pushed is not None:
                    verdict, push_stats = pushed
                    stats.chunks_pushed_down += 1
                    served(name, span)
                    stats.merge_pushdown(push_stats)
        if verdict is None:
            verdict = np.asarray(evaluate_over(
                conjunct, {name: chunk_values(name) for name in names}, span), dtype=bool)
        if mask is None:
            mask = verdict.copy()
        else:
            np.logical_and(mask, verdict, out=mask)
        alive = bool(mask.any())

    def saved_accounted(outcome: _RangeOutcome) -> _RangeOutcome:
        for name, saved_bytes in compressed_saved.items():
            if name not in values_cache:
                stats.bytes_decompressed_saved += saved_bytes
        return outcome

    if not alive:  # what gathering and folding no row makes, without a mask
        return saved_accounted(_empty_outcome(table, spec, stats))
    local = np.arange(span, dtype=np.int64) if mask is None \
        else np.flatnonzero(mask).astype(np.int64, copy=False)
    stats.rows_selected += local.size

    def gather(name: str) -> np.ndarray:
        if mask is None:  # every row alive: the chunk's values, no positional gather
            return chunk_values(name)
        chunk, dtype = chunk_of(name), table.column(name).dtype
        # Sparse hits on a not-yet-decompressed chunk whose form can gather
        # positionally: stay in the compressed domain instead of scheduling
        # a decompression (bit-identical either way).
        if context.use_compressed_exec and name not in values_cache \
                and sparse_hits(local.size, chunk):
            gathered = kernels.gather(chunk.scheme, chunk.form, local)
            if gathered is not None:
                served(name, local.size)
                return np.asarray(gathered, dtype=dtype)
        # In range by construction ("clip"); cast if a footer is at odds with its chunks.
        return np.take(chunk_values(name), local, mode="clip").astype(dtype, copy=False)

    pieces = {name: gather(name) for name in spec.materialize}
    _evaluate_derived(spec.derive, pieces, gather, local.size)
    if spec.aggregates is not None:
        # The rows are folded into the state here, where their chunks are;
        # positions and pieces go no further.
        state = aggregate_state(table, index, local, spec.aggregates, served, chunk_values,
                                outputs=pieces, use_kernels=context.use_compressed_exec,
                                use_zone_maps=context.use_zone_maps)
        return saved_accounted(_RangeOutcome(_NO_POSITIONS, stats, {}, state))
    return saved_accounted(_RangeOutcome(positions=local + lo, stats=stats, pieces=pieces))


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


def describe_backend(table: Table, conjuncts: Sequence, context: ExecutionContext,
                     **outputs: Any) -> str:
    """The backend label a scan of *conjuncts* and *outputs* (its
    ``materialize``, ``derive``, ``aggregates``) over *table* will carry
    (``ScanResult.backend``, fault degradation aside): what ``explain()`` prints."""
    ranges = _live_ranges(table, ScanSpec(conjuncts=tuple(conjuncts), context=context,
                                          **outputs))[0]
    return choose_backend(table, context.workers, len(ranges))[1]


def _fold(outcomes: Sequence[_RangeOutcome], names: Sequence[str]
          ) -> Tuple[Column, Dict[str, Column]]:
    """The positions and the *names* outputs of *outcomes*, in range order:
    each allocated once, every range's slice assigned — or, spooled, copied
    from its worker's arena straight into place."""
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
                outcome.spool.copy_into(piece, out[start:stop])
        return Column.adopt(out, name=name)

    return folded(lambda o: o.positions), {
        name: folded(lambda o: o.pieces[name], name) for name in names}


def scan_table(table: Table, conjuncts: Sequence, *,
               materialize: Sequence[str] = (),
               derive: Sequence[Tuple[str, Any]] = (),
               aggregates: Optional[Dict[str, Any]] = None,
               context: ExecutionContext = ExecutionContext()) -> ScanResult:
    """Run the chunk-at-a-time scan pipeline over *table*.

    Evaluates the conjunction of *conjuncts* — :mod:`repro.api` expressions,
    partitioned as the module docstring says, short-circuiting per chunk —
    and, when *materialize* names columns, gathers those columns at the
    qualifying positions inside the same pass.  *derive* is an ordered
    sequence of ``(output name, expression)`` pairs evaluated per chunk
    range against the gathered values.  *aggregates* is an
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
    decompression is scheduled: with ``use_pushdown`` conjuncts that are
    exactly a range (:func:`conjunct_range`) dispatch through the kernel table
    (:func:`repro.engine.kernels.filter_range`), with
    ``use_compressed_exec`` sparse gathers run positionally on capable
    compressed forms (``ScanStats.rows_computed_compressed`` and
    ``bytes_decompressed_saved`` account for both), ``use_zone_maps``.
    """
    spec = ScanSpec(conjuncts=tuple(conjuncts), derive=tuple(derive),
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
                and not set(operand.columns()) <= set(output_names):
            raise QueryError(f"aggregate operand {operand!r} reads a column "
                             f"that is not a scan output ({output_names!r})")

    policy = spec.context.fault_policy
    ranges, settled = _live_ranges(table, spec)
    workers, backend = choose_backend(table, spec.context.workers, len(ranges))
    deadline = time.monotonic() + (policy.deadline_s or float("inf"))

    outcomes: Optional[List[_RangeOutcome]] = None
    pool_report = folded = None
    if workers > 1:
        from . import parallel

        try:
            outcomes, pool_report, folded = parallel.run_process_scan(
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

    stats = ScanStats(predicates_total=len(spec.conjuncts))
    for outcome in outcomes:
        stats.merge(outcome.stats)
    if pool_report is not None:
        pool_report.apply(stats)

    # A stored column always has at least one chunk — executed or settled —
    # so outcomes is non-empty; the pool folded its own (settled ones hold
    # no rows).  An aggregate scan's ranges kept their pieces: only states
    # came back.
    positions, columns = folded or _fold(
        outcomes, output_names if aggregates is None else [])
    state = None if aggregates is None else merge_states([o.state for o in outcomes])
    return ScanResult(selection=SelectionVector(positions), stats=stats,
                      columns=columns, backend=backend, state=state)
