"""Multiprocess scan execution over the packed format.

The short NumPy kernels a compressed scan runs per chunk hold the GIL, so
fanning chunks out over threads never beat a serial scan (the thread
backend measured 0.79–1.02× and was removed).  This module is the parallel
backend: a pool of long-lived worker **processes** that each ``mmap`` the
same packed table file.

Design
------

* **Zero data over the pipe.**  Workers open the packed file by path
  (:func:`repro.io.reader.open_packed_table`), so the OS page cache shares
  the bytes; only chunk-range descriptors and one pickled
  :class:`ScanSpec` per query cross a queue.  Tables that are not backed by
  a single packed file (in-memory ``Table.from_pydict`` tables) cannot be
  shared this way — the caller falls back to the serial path and says so in
  ``ScanResult.backend``.
* **Work stealing.**  All workers pull ``(query_id, range_index, lo, hi)``
  tasks from one shared queue, so a straggler chunk never idles the rest of
  the pool; the coordinator reassembles results by ``range_index`` in
  deterministic chunk order, which keeps results (and merged
  :class:`~repro.engine.stats.ScanStats`, see
  :meth:`~repro.engine.stats.ScanStats.comparable`) bit-identical to a
  serial scan.
* **Caches warm once per worker, not once per query.**  Each worker process
  keeps its opened :class:`~repro.io.reader.PackedTableFile` (keyed by path
  and invalidated on a size/mtime fingerprint change), its compiled-plan
  caches (:mod:`repro.columnar.compile` is process-global), and one
  byte-budgeted hot-chunk decompression LRU (:class:`ChunkCache`, enabled by
  ``cache_bytes > 0``) across queries.
* **Partial aggregates.**  For partial-mergeable aggregate plans the
  workers ship :class:`~repro.engine.operators.ScalarAggState` /
  :class:`~repro.engine.operators.GroupedAggState` per range instead of
  positions, and the coordinator folds them with
  :func:`~repro.engine.operators.merge_states`.
* **Failure is survivable.**  The coordinator self-heals under a
  :class:`~repro.engine.resilience.FaultPolicy`: a worker *dying* mid-scan
  is detected by a liveness check on the result-queue poll, the dead
  process is respawned in place, and every unfinished chunk range is
  re-enqueued — safe unconditionally, because scans are read-only and
  range execution is idempotent (first result per range wins, duplicates
  are dropped).  A worker-side exception is retried on a fresh attempt
  with exponential backoff, up to ``policy.retries`` times, before it
  surfaces as :class:`ParallelExecutionError`; a failed segment digest is
  *not* retried (corruption is persistent) — it either re-raises as the
  typed :class:`~repro.errors.CorruptionError` or, under
  ``on_corruption="quarantine"``, the range contributes no rows and is
  accounted in ``ScanStats.chunks_quarantined``.  ``policy.deadline_s``
  bounds the whole query: on expiry in-flight work is cancelled (the pool
  is abandoned, which kills stragglers) and
  :class:`~repro.errors.ScanTimeoutError` is raised.  An unpicklable plan
  raises :class:`PlanNotPicklableError`, which the scan scheduler turns
  into a serial fallback with a note.  The spec's
  :class:`~repro.engine.context.ExecutionContext` carries a deterministic
  :class:`~repro.engine.resilience.FaultPlan` into the workers — the chaos
  harness that proves all of the above.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing as mp
import os
import pickle
import queue
import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.forksafe import check_fork_safety
from ..errors import CorruptionError, QueryError, ScanTimeoutError
from ..storage.table import Table
from .context import ExecutionContext
from .operators import (
    GroupedAggState,
    ScalarAggState,
    gather_stored,
    group_codes_stored,
    grouped_reduce,
    aggregate_stored_partial,
    merge_states,
)
from .resilience import FaultPolicy
from .stats import ScanStats

__all__ = [
    "ChunkCache",
    "ParallelExecutionError",
    "PlanNotPicklableError",
    "PoolReport",
    "ProcessBackendUnavailable",
    "ScanSpec",
    "get_pool",
    "packed_source_path",
    "run_process_aggregate",
    "run_process_scan",
    "shutdown_pools",
]


class ProcessBackendUnavailable(Exception):
    """The process backend cannot run this scan; fall back to serial.

    Internal control flow: :func:`repro.engine.scan.scan_table` catches this
    and records the reason in ``ScanResult.backend`` — it never reaches the
    user as an error.
    """


class PlanNotPicklableError(ProcessBackendUnavailable):
    """The predicate/plan spec cannot cross a process boundary."""


class ParallelExecutionError(QueryError):
    """A worker process failed (or died) while executing a scan."""


# --------------------------------------------------------------------------- #
# Packed-source detection
# --------------------------------------------------------------------------- #

def packed_source_path(table: Table) -> Optional[str]:
    """The packed file every chunk of *table* is backed by, or ``None``.

    The process backend requires all chunks' constituents to be mmap-lazy
    (:class:`~repro.io.reader.LazyConstituents`) over one shared
    :class:`~repro.io.reader.SegmentSource` — exactly what
    :meth:`PackedTableFile.table` builds — so workers can reopen the same
    bytes by path instead of pickling column data.
    """
    from ..io.reader import LazyConstituents

    source = None
    for name in table.column_names:
        for chunk in table.column(name).chunks:
            constituents = chunk.form.columns
            if not isinstance(constituents, LazyConstituents):
                return None
            if source is None:
                source = constituents._source
            elif constituents._source is not source:
                return None
    return None if source is None else str(source.path)


def _fingerprint(path: str) -> Tuple[int, int, int]:
    """Identity of the packed file's current bytes, keying the per-worker
    table cache.

    Size and mtime alone miss an in-place rewrite that preserves both
    (``st_mtime_ns`` granularity is filesystem-dependent, and a rewrite of
    the same table reproduces the same size) — a worker would then serve
    results from a stale mmap.  The footer CRC32 closes that hole: a v3
    footer embeds a fresh ``write_uuid`` on every write, so its digest
    cannot collide across rewrites.  Only the coordinator pays the footer
    read; workers just compare the tuple shipped with the spec.
    """
    from ..io.reader import footer_fingerprint

    stat = os.stat(path)
    return (stat.st_size, stat.st_mtime_ns, footer_fingerprint(path))


# --------------------------------------------------------------------------- #
# The serialized query spec
# --------------------------------------------------------------------------- #

@dataclass
class ScanSpec:
    """Everything a worker needs to evaluate one query's chunk ranges.

    This (pickled once per query, broadcast to every worker) plus the table
    path is the *entire* coordinator→worker payload — no column data, no
    chunk bytes.  *aggregates*, when set, is the compressed-aggregate spec
    ``{"key": name | None, "aggregates": [(output, op, column | None)]}``
    from :func:`repro.api.lower.compressed_aggregate_plan`; workers then
    return partial aggregate states instead of positions.  *context* is the
    query's (resolved) :class:`ExecutionContext`, shipped whole: workers
    read the scan switches, the hot-chunk cache budget, the fault plan
    (read-path faults are installed around range execution, worker faults
    consulted per ``(range index, attempt)``) and the corruption policy off
    it, and the coordinator reads the retry/deadline policy.
    """

    predicates: Tuple[Any, ...]
    row_filters: Tuple[Any, ...] = ()
    derive: Tuple[Tuple[str, Any], ...] = ()
    materialize: Tuple[str, ...] = ()
    aggregates: Optional[Dict[str, Any]] = None
    context: ExecutionContext = ExecutionContext()


# --------------------------------------------------------------------------- #
# Hot-chunk decompression cache (per worker)
# --------------------------------------------------------------------------- #

class ChunkCache:
    """A byte-budgeted LRU of decompressed chunk columns.

    One instance lives in each worker process and spans queries (that is the
    point: repeated queries over the same hot chunks skip re-decoding).
    Keys are ``(scope, column name, chunk row offset)`` where *scope* is the
    packed file path — see :class:`_ScopedCache`.  ``insert`` returns how
    many entries were evicted to make room, which the scan scheduler
    surfaces as ``ScanStats.hot_cache_evictions``.
    """

    def __init__(self, budget_bytes: int):
        self.budget_bytes = int(budget_bytes)
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes_cached(self) -> int:
        return self._bytes

    def lookup(self, key: Tuple) -> Optional[Any]:
        column = self._entries.get(key)
        if column is not None:
            self._entries.move_to_end(key)
        return column

    def insert(self, key: Tuple, column: Any) -> int:
        """Cache *column* under *key*; returns the number of evictions."""
        nbytes = int(column.values.nbytes)
        if nbytes > self.budget_bytes or key in self._entries:
            return 0
        self._entries[key] = column
        self._bytes += nbytes
        return self._evict_to_budget()

    def resize(self, budget_bytes: int) -> int:
        self.budget_bytes = int(budget_bytes)
        return self._evict_to_budget()

    def _evict_to_budget(self) -> int:
        evictions = 0
        while self._bytes > self.budget_bytes and self._entries:
            __, column = self._entries.popitem(last=False)
            self._bytes -= int(column.values.nbytes)
            evictions += 1
        return evictions


class _ScopedCache:
    """A :class:`ChunkCache` view whose keys are prefixed with one scope
    (the packed file path), so one worker-wide cache serves many tables
    without key collisions."""

    __slots__ = ("_cache", "_scope")

    def __init__(self, cache: ChunkCache, scope: str):
        self._cache = cache
        self._scope = scope

    def lookup(self, key: Tuple) -> Optional[Any]:
        return self._cache.lookup((self._scope,) + key)

    def insert(self, key: Tuple, column: Any) -> int:
        return self._cache.insert((self._scope,) + key, column)


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #

@dataclass
class _Prepared:
    """One query's per-worker execution state (built from a spec message)."""

    table: Table
    spec: ScanSpec
    starts: Dict[str, np.ndarray]
    cache: Optional[_ScopedCache]


#: Worker-process globals: opened packed tables (path -> (fingerprint,
#: PackedTableFile, Table)) and the worker-wide hot-chunk cache.  These are
#: what "caches warm once per worker" means — they outlive queries.
_WORKER_TABLES: Dict[str, Tuple[Tuple[int, int, int], Any, Table]] = {}
_WORKER_CACHE: Optional[ChunkCache] = None


def _prepare(path: str, fingerprint: Tuple[int, int, int], blob: bytes) -> _Prepared:
    global _WORKER_CACHE
    from ..io.reader import open_packed_table
    from .scan import _scan_starts

    spec: ScanSpec = pickle.loads(blob)
    cached = _WORKER_TABLES.get(path)
    if cached is None or cached[0] != fingerprint:
        packed = open_packed_table(path)
        cached = (fingerprint, packed, packed.table)
        _WORKER_TABLES[path] = cached
    table = cached[2]
    starts = _scan_starts(table, spec.predicates, spec.row_filters,
                          spec.materialize, spec.derive)
    cache: Optional[_ScopedCache] = None
    cache_bytes = spec.context.cache_bytes
    if cache_bytes > 0:
        if _WORKER_CACHE is None:
            _WORKER_CACHE = ChunkCache(cache_bytes)
        elif _WORKER_CACHE.budget_bytes != cache_bytes:
            _WORKER_CACHE.resize(cache_bytes)
        cache = _ScopedCache(_WORKER_CACHE, path)
    return _Prepared(table=table, spec=spec, starts=starts, cache=cache)


def _partial_states(table: Table, positions: np.ndarray,
                    agg_spec: Dict[str, Any], stats: ScanStats) -> Any:
    """Mergeable aggregate states for one range's selection.

    Mirrors :func:`repro.api.lower._exec_aggregate_compressed` branch for
    branch — including the share-one-gather path for several aggregates over
    one column — so the merged stats stay bit-identical to the serial
    compressed-aggregate execution.
    """
    from ..columnar.column import Column

    gathered_cache: Dict[str, Column] = {}

    def gathered(column: str) -> Column:
        values = gathered_cache.get(column)
        if values is None:
            raw, gather_stats = gather_stored(table.column(column), positions)
            stats.merge(gather_stats)
            values = gathered_cache[column] = Column(raw)
        return values

    rows = int(positions.size)
    if agg_spec["key"] is None:
        states: Dict[str, ScalarAggState] = {}
        column_uses = [column for __, op, column in agg_spec["aggregates"]
                       if op != "count"]
        for output_name, op, column in agg_spec["aggregates"]:
            if op == "count":
                states[output_name] = ScalarAggState(op="count", rows=rows)
            elif column_uses.count(column) > 1:
                values = gathered(column).values
                if values.size == 0:
                    states[output_name] = ScalarAggState(op=op, rows=rows)
                elif op == "sum":
                    accumulator = np.uint64 if np.issubdtype(
                        values.dtype, np.unsignedinteger) else np.int64
                    states[output_name] = ScalarAggState(
                        op=op, rows=rows,
                        partial=values.sum(dtype=accumulator))
                else:
                    partial = values.min() if op == "min" else values.max()
                    states[output_name] = ScalarAggState(op=op, rows=rows,
                                                         partial=partial)
            else:
                partial, agg_stats = aggregate_stored_partial(
                    table.column(column), positions, op)
                stats.merge(agg_stats)
                states[output_name] = ScalarAggState(op=op, rows=rows,
                                                     partial=partial)
        return states

    grouped = group_codes_stored(table.column(agg_spec["key"]), positions)
    if grouped is None:  # the plan checked capability; a chunk lied
        raise QueryError(
            f"column {agg_spec['key']!r} lost the group-codes capability "
            "mid-scan; cannot build partial grouped state")
    unique_keys, codes, group_stats = grouped
    stats.merge(group_stats)
    num_groups = int(unique_keys.size)
    aggregates: Dict[str, Tuple[str, np.ndarray]] = {}
    for output_name, op, column in agg_spec["aggregates"]:
        values = None if op == "count" else gathered(column)
        aggregates[output_name] = (
            op, grouped_reduce(codes, num_groups, values, op).values)
    return GroupedAggState(keys=unique_keys, rows=rows, aggregates=aggregates)


def _execute_range(prepared: _Prepared, lo: int, hi: int) -> Tuple:
    from ..columnar.compile import cache_info
    from .scan import _scan_range

    spec = prepared.spec
    before = cache_info()
    outcome = _scan_range(prepared.table, spec.predicates, prepared.starts,
                          lo, hi, spec.materialize, spec.row_filters,
                          spec.derive, spec.context,
                          chunk_cache=prepared.cache)
    stats = outcome.stats
    state = None
    if spec.aggregates is not None:
        state = _partial_states(prepared.table, outcome.positions,
                                spec.aggregates, stats)
    # This worker's own compile-cache delta for the range: per-worker caches
    # warm once per worker, and the coordinator (whose caches never ran the
    # plan) sums these instead of measuring its own, always-zero, delta.
    after = cache_info()
    stats.plan_cache_hits = (after["scheme_hits"] - before["scheme_hits"]
                            + after["plan_hits"] - before["plan_hits"])
    stats.plan_cache_misses = after["plan_misses"] - before["plan_misses"]
    if spec.aggregates is not None:
        return (stats, state, int(outcome.positions.size))
    return (outcome.positions, stats, outcome.pieces)


def _quarantined_payload(prepared: _Prepared) -> Tuple:
    """The payload of a quarantined range: no rows, fully mergeable.

    Mirrors the shapes :func:`_execute_range` returns so the coordinator's
    in-order merge needs no special case — for aggregates the states are
    built through :func:`_partial_states` over an empty selection, so their
    dtypes and identities match every non-quarantined partial exactly.
    """
    from .scan import _quarantined_outcome

    spec = prepared.spec
    if spec.aggregates is not None:
        stats = ScanStats()
        stats.chunks_quarantined = 1
        stats.fault_events = 1
        state = _partial_states(prepared.table, np.empty(0, dtype=np.int64),
                                spec.aggregates, stats)
        return (stats, state, 0)
    outcome = _quarantined_outcome(prepared.table, spec.materialize,
                                   spec.derive)
    return (outcome.positions, outcome.stats, outcome.pieces)


def _worker_main(spec_queue, task_queue, result_queue) -> None:
    """The worker-process loop: pull tasks, execute, stream results back.

    Specs are broadcast on a per-worker queue *before* their tasks are
    enqueued, so a worker seeing an unknown ``query_id`` drains its spec
    queue until the matching spec arrives.  Any per-task failure is caught
    and shipped as a structured error record — the worker itself stays
    alive; it marks :class:`~repro.errors.CorruptionError` non-retryable
    (a digest mismatch is persistent, retrying cannot help).

    When the spec carries a :class:`~repro.engine.resilience.FaultPlan`,
    its worker fault (if any) for this ``(range index, attempt)`` fires
    first — a kill never reports back (that is the point), a hang sleeps
    and then executes normally (straggler), a corrupted result ships
    garbage the coordinator must detect by shape.
    """
    from . import resilience

    prepared_by_query: Dict[int, _Prepared] = {}
    while True:
        task = task_queue.get()
        if task is None:
            return
        query_id, index, lo, hi, attempt = task
        try:
            prepared = prepared_by_query.get(query_id)
            while prepared is None:
                qid, path, fingerprint, blob = spec_queue.get()
                prepared_by_query[qid] = _prepare(path, fingerprint, blob)
                prepared = prepared_by_query.get(query_id)
            # Queries run one at a time, in id order: older specs are dead.
            for stale in [qid for qid in prepared_by_query if qid < query_id]:
                del prepared_by_query[stale]
            context = prepared.spec.context
            plan = context.fault_plan
            if plan is not None:
                action = plan.worker_action(index, attempt)
                if action == "corrupt-result":
                    result_queue.put(("ok", query_id, index, attempt,
                                      b"<injected garbage payload>"))
                    continue
                if action is not None:
                    plan.perform(action, index)  # kill / hang / exception
            try:
                with resilience.active(plan):
                    payload = _execute_range(prepared, lo, hi)
            except CorruptionError:
                if context.fault_policy.on_corruption != "quarantine":
                    raise
                payload = _quarantined_payload(prepared)
            result_queue.put(("ok", query_id, index, attempt, payload))
        except BaseException as error:
            result_queue.put(("error", query_id, index, attempt, {
                "type": type(error).__name__,
                "message": str(error),
                "traceback": traceback.format_exc(),
                "retryable": not isinstance(error, CorruptionError),
            }))


# --------------------------------------------------------------------------- #
# Coordinator side
# --------------------------------------------------------------------------- #

@dataclass
class PoolReport:
    """What the self-healing coordinator did to finish one query."""

    ranges_retried: int = 0
    workers_respawned: int = 0
    fault_events: int = 0

    def apply(self, stats: ScanStats) -> None:
        stats.ranges_retried += self.ranges_retried
        stats.workers_respawned += self.workers_respawned
        stats.fault_events += self.fault_events


def _payload_shape_ok(payload: Any, aggregates: bool) -> bool:
    """Structural validity of a worker result.

    A corrupted result payload (injected by a fault plan, or any real bug
    shipping garbage over the pipe) must become a retry, not a crash while
    merging.
    """
    if not isinstance(payload, tuple) or len(payload) != 3:
        return False
    if aggregates:
        stats, __, rows = payload
        return isinstance(stats, ScanStats) and isinstance(rows, int)
    positions, stats, pieces = payload
    return (isinstance(positions, np.ndarray)
            and isinstance(stats, ScanStats) and isinstance(pieces, dict))


def _mp_context():
    # fork shares the imported interpreter state (cheap startup and
    # pickling-by-reference for classes defined anywhere); fall back to
    # spawn where fork does not exist.
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class ProcessPool:
    """A pool of long-lived scan workers plus the coordination queues.

    One pool per worker count, created lazily and kept for the life of the
    process (:func:`get_pool`), so repeated queries pay process startup
    once.  ``run`` holds a lock — the shared result queue serves one query
    at a time; concurrent callers queue up behind it.
    """

    def __init__(self, workers: int):
        context = _mp_context()
        self.workers = workers
        self._task_queue = context.Queue()
        self._result_queue = context.Queue()
        self._spec_queues = [context.Queue() for __ in range(workers)]
        self._lock = threading.Lock()
        self._query_ids = itertools.count()
        self._closed = False
        self._processes = [
            context.Process(
                target=_worker_main,
                args=(spec_queue, self._task_queue, self._result_queue),
                daemon=True, name=f"repro-scan-worker-{index}")
            for index, spec_queue in enumerate(self._spec_queues)
        ]
        for process in self._processes:
            process.start()

    def healthy(self) -> bool:
        return not self._closed and all(p.is_alive() for p in self._processes)

    def run(self, path: str, fingerprint: Tuple[int, int, int],
            spec_blob: bytes, ranges: Sequence[Tuple[int, int]],
            policy: FaultPolicy,
            aggregates: bool = False) -> Tuple[List[Tuple], PoolReport]:
        """Execute one query's ranges, healing the pool as needed.

        Returns ``(payloads in range order, PoolReport)``.  Dead workers
        are respawned and every unfinished range re-enqueued (duplicates
        resolve first-result-wins); worker errors retry up to
        ``policy.retries`` times with exponential backoff; a range that
        keeps failing raises :class:`ParallelExecutionError` — except a
        non-retryable :class:`~repro.errors.CorruptionError`, which is
        re-raised typed, immediately, with the pool left healthy.
        ``policy.deadline_s`` bounds the whole call; on expiry the pool is
        abandoned (stragglers are killed) and
        :class:`~repro.errors.ScanTimeoutError` raised.
        """
        with self._lock:
            if self._closed:
                raise ParallelExecutionError("process pool is shut down")
            query_id = next(self._query_ids)
            deadline = (time.monotonic() + policy.deadline_s
                        if policy.deadline_s is not None else None)
            for spec_queue in self._spec_queues:
                spec_queue.put((query_id, path, fingerprint, spec_blob))
            for index, (lo, hi) in enumerate(ranges):
                self._task_queue.put((query_id, index, lo, hi, 0))
            payloads: List[Optional[Tuple]] = [None] * len(ranges)
            attempts = [0] * len(ranges)
            report = PoolReport()
            pending = len(ranges)

            def retry(index: int, cause: str) -> None:
                report.fault_events += 1
                if attempts[index] >= policy.retries:
                    self._abandon()
                    raise ParallelExecutionError(
                        f"chunk range {index} failed "
                        f"{attempts[index] + 1} time(s) "
                        f"(retries={policy.retries} exhausted); last cause:\n"
                        f"{cause}")
                attempts[index] += 1
                report.ranges_retried += 1
                backoff = policy.backoff_s * 2.0 ** (attempts[index] - 1)
                if backoff > 0:
                    time.sleep(min(backoff, 1.0))
                lo, hi = ranges[index]
                self._task_queue.put((query_id, index, lo, hi,
                                      attempts[index]))

            while pending:
                timeout = 1.0
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._abandon()
                        raise ScanTimeoutError(
                            f"scan exceeded its {policy.deadline_s:g}s "
                            f"fault-policy deadline with {pending} of "
                            f"{len(ranges)} chunk range(s) unfinished; "
                            "in-flight work was cancelled and the process "
                            "pool shut down")
                    timeout = min(timeout, max(remaining, 0.01))
                try:
                    message = self._result_queue.get(timeout=timeout)
                except queue.Empty:
                    self._heal(query_id, path, fingerprint, spec_blob,
                               ranges, payloads, attempts, report, policy)
                    continue
                kind, qid, index, __attempt, payload = message
                if qid != query_id or payloads[index] is not None:
                    continue  # stale query, or a duplicate of a healed range
                if kind == "error":
                    if not payload.get("retryable", True):
                        _raise_typed(payload)
                    retry(index, payload.get("traceback", repr(payload)))
                    continue
                if not _payload_shape_ok(payload, aggregates):
                    retry(index, "worker returned a corrupt result payload "
                                 f"({type(payload).__name__})")
                    continue
                payloads[index] = payload
                pending -= 1
            return payloads, report  # type: ignore[return-value]

    def _heal(self, query_id: int, path: str,
              fingerprint: Tuple[int, int, int], spec_blob: bytes,
              ranges: Sequence[Tuple[int, int]],
              payloads: List[Optional[Tuple]], attempts: List[int],
              report: PoolReport, policy: FaultPolicy) -> None:
        """Respawn dead workers and re-enqueue every unfinished range.

        Called when the result queue goes quiet.  The coordinator cannot
        know which range a dead worker held, so all unfinished ranges are
        re-enqueued at a bumped attempt (idempotent re-execution;
        duplicate results are dropped first-result-wins; the bump keeps
        non-sticky injected faults from re-firing).  A range whose retry
        budget is exhausted by repeated deaths fails the query.
        """
        dead = [slot for slot, process in enumerate(self._processes)
                if not process.is_alive()]
        if not dead:
            return
        context = _mp_context()
        for slot in dead:
            process = self._processes[slot]
            process.join(timeout=1)
            process.close()  # release the Process object's pipe/fd now
            replacement = context.Process(
                target=_worker_main,
                args=(self._spec_queues[slot], self._task_queue,
                      self._result_queue),
                daemon=True, name=f"repro-scan-worker-{slot}")
            replacement.start()
            self._processes[slot] = replacement
            # The replacement never saw this query's spec broadcast.
            self._spec_queues[slot].put((query_id, path, fingerprint,
                                         spec_blob))
            report.workers_respawned += 1
            report.fault_events += 1
        for index, payload in enumerate(payloads):
            if payload is not None:
                continue
            if attempts[index] >= policy.retries:
                self._abandon()
                raise ParallelExecutionError(
                    f"chunk range {index} was lost to dying workers "
                    f"{attempts[index] + 1} time(s) "
                    f"(retries={policy.retries} exhausted); the process "
                    "pool has been shut down")
            attempts[index] += 1
            report.ranges_retried += 1
            lo, hi = ranges[index]
            self._task_queue.put((query_id, index, lo, hi, attempts[index]))

    def _abandon(self) -> None:
        """Tear down after an unrecoverable failure or deadline expiry: the
        queues may hold undelivered state (and a straggler may be mid-
        hang), so the whole pool is discarded — workers killed, joined and
        closed, queue feeder pipes released."""
        self._closed = True
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=5)
        self._close_processes()
        self._release_queues()
        with _POOLS_LOCK:
            if _POOLS.get(self.workers) is self:
                del _POOLS[self.workers]

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for __ in self._processes:
            try:
                self._task_queue.put_nowait(None)
            except Exception:
                break
        for process in self._processes:
            process.join(timeout=2)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2)
        self._close_processes()
        self._release_queues()

    def _close_processes(self) -> None:
        """Release every worker's ``Process`` handle (sentinel pipe fd).

        Without this an abandoned pool leaks one pipe fd and one zombie
        entry per worker until garbage collection happens to run —
        ``close()`` reaps them deterministically.  A worker that survived
        ``terminate`` + ``join`` (wedged in uninterruptible I/O) cannot be
        closed; it stays a child until process exit, which the ``Exception``
        guard tolerates.
        """
        for process in self._processes:
            try:
                process.close()
            except Exception:
                pass

    def _release_queues(self) -> None:
        for q in [self._task_queue, self._result_queue, *self._spec_queues]:
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:
                pass


def _raise_typed(payload: Dict[str, Any]) -> None:
    """Re-raise a worker's non-retryable error with its original type.

    A :class:`~repro.errors.CorruptionError` crossing the pipe as a record
    must surface to the caller as a :class:`CorruptionError` (the typed
    contract: every fault either heals or raises an error naming it), not
    as a generic pool failure.  Unknown types fall back to
    :class:`ParallelExecutionError` with the full worker traceback.
    """
    from .. import errors as _errors

    cls = getattr(_errors, str(payload.get("type", "")), None)
    if isinstance(cls, type) and issubclass(cls, _errors.ReproError):
        raise cls(payload.get("message", "worker-side failure"))
    raise ParallelExecutionError(
        f"scan worker failed:\n{payload.get('traceback', repr(payload))}")


_POOLS: Dict[int, ProcessPool] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(workers: int) -> ProcessPool:
    """The shared pool for *workers*, creating (or replacing a dead) one."""
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None or not pool.healthy():
            pool = ProcessPool(workers)
            _POOLS[workers] = pool
        return pool


def shutdown_pools() -> None:
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_pools)


# --------------------------------------------------------------------------- #
# Entry points used by the scheduler and the lowering layer
# --------------------------------------------------------------------------- #

def _dispatch(table: Table, ranges: Sequence[Tuple[int, int]], workers: int,
              spec: ScanSpec) -> Tuple[List[Tuple], PoolReport]:
    path = packed_source_path(table)
    if path is None:
        raise ProcessBackendUnavailable(
            "process backend requested; table is not backed by a single "
            "packed file")
    problem = check_fork_safety(spec, root="ScanSpec")
    if problem is not None:
        raise PlanNotPicklableError(
            f"plan cannot cross a process boundary ({problem})")
    spec_blob = pickle.dumps(spec)
    return get_pool(workers).run(path, _fingerprint(path), spec_blob, ranges,
                                 spec.context.fault_policy,
                                 aggregates=spec.aggregates is not None)


def run_process_scan(table: Table, ranges: Sequence[Tuple[int, int]],
                     workers: int, spec: ScanSpec
                     ) -> Tuple[List[Any], PoolReport]:
    """Run a filter/materialize scan on the process pool.

    Returns ``(outcomes, report)``: per-range outcomes in chunk order,
    shaped exactly like the serial scheduler's ``_RangeOutcome`` list so
    :func:`~repro.engine.scan.scan_table` merges them identically, plus
    the coordinator's healing :class:`PoolReport`.
    """
    from .scan import _RangeOutcome

    payloads, report = _dispatch(table, ranges, workers, spec)
    outcomes = [_RangeOutcome(positions=positions, stats=stats, pieces=pieces)
                for positions, stats, pieces in payloads]
    return outcomes, report


def run_process_aggregate(table: Table, ranges: Sequence[Tuple[int, int]],
                          workers: int, spec: ScanSpec
                          ) -> Tuple[Any, ScanStats, int]:
    """Run a partial-mergeable aggregate on the process pool.

    *spec.aggregates* must be set; *ranges* and *workers* are the scan grid
    and :func:`~repro.engine.scan.choose_backend`'s verdict for it, as for
    :func:`run_process_scan`.  Returns ``(merged state, merged stats,
    qualifying row count)``; states merge associatively in chunk order via
    :func:`~repro.engine.operators.merge_states`, and the coordinator's
    healing work lands in the stats' resilience counters.
    """
    payloads, report = _dispatch(table, ranges, workers, spec)
    stats = ScanStats(
        predicates_total=len(spec.predicates) + len(spec.row_filters))
    for partial_stats, __, __ in payloads:
        stats.merge(partial_stats)
    report.apply(stats)
    state = merge_states([state for __, state, __ in payloads])
    rows = sum(rows for __, __, rows in payloads)
    return state, stats, rows
