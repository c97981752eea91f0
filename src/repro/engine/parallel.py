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
  :class:`~repro.engine.scan.ScanSpec` per query cross a queue.  Tables
  that are not backed by a single packed file (in-memory
  ``Table.from_pydict`` tables) cannot be shared this way — the caller
  falls back to the serial path and says so in ``ScanResult.backend``.
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
* **One range executor.**  A worker runs
  :func:`repro.engine.scan.execute_range` — the function the serial loop
  runs — on each range it pulls, and sends back what that returned: one
  ``_RangeOutcome`` per range is the only payload shape on the pipe.  For an
  aggregate plan the outcome carries the range's mergeable state
  (:class:`~repro.engine.operators.ScalarAggState` /
  :class:`~repro.engine.operators.GroupedAggState`) and neither positions
  nor pieces — operands and keys are evaluated inside the range;
  :func:`~repro.engine.scan.scan_table` folds outcomes in range order
  whichever backend produced them.
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
from .resilience import FaultPolicy
from .scan import ScanSpec, _RangeOutcome, _scan_starts, execute_range
from .stats import ScanStats

__all__ = [
    "ChunkCache",
    "ParallelExecutionError",
    "PlanNotPicklableError",
    "PoolReport",
    "ProcessBackendUnavailable",
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

    The process backend requires every chunk to read from one shared
    :class:`~repro.io.reader.SegmentSource` — exactly what
    :meth:`PackedTableFile.table` builds — so workers can reopen the same
    bytes by path instead of pickling column data.
    """
    from ..io.reader import source_of

    sources = {source_of(chunk) for name in table.column_names
               for chunk in table.column(name).chunks}
    source = sources.pop() if len(sources) == 1 else None
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

    spec: ScanSpec = pickle.loads(blob)
    cached = _WORKER_TABLES.get(path)
    if cached is None or cached[0] != fingerprint:
        packed = open_packed_table(path)
        cached = (fingerprint, packed, packed.table)
        _WORKER_TABLES[path] = cached
    table = cached[2]
    starts = _scan_starts(table, spec)
    cache: Optional[_ScopedCache] = None
    cache_bytes = spec.context.cache_bytes
    if cache_bytes > 0:
        if _WORKER_CACHE is None:
            _WORKER_CACHE = ChunkCache(cache_bytes)
        elif _WORKER_CACHE.budget_bytes != cache_bytes:
            _WORKER_CACHE.resize(cache_bytes)
        cache = _ScopedCache(_WORKER_CACHE, path)
    return _Prepared(table=table, spec=spec, starts=starts, cache=cache)


def _worker_main(spec_queue, task_queue, result_queue) -> None:
    """The worker-process loop: pull tasks, execute, stream results back.

    Specs are broadcast on a per-worker queue *before* their tasks are
    enqueued, so a worker seeing an unknown ``query_id`` drains its spec
    queue until the matching spec arrives.  Each task is one call of
    :func:`~repro.engine.scan.execute_range`, whose outcome is the result
    payload.  Any per-task failure is caught and shipped as a structured
    error record — the worker itself stays alive; it marks
    :class:`~repro.errors.CorruptionError` (one the range executor did not
    quarantine) non-retryable: a digest mismatch is persistent, retrying
    cannot help.

    When the spec carries a :class:`~repro.engine.resilience.FaultPlan`,
    its worker fault (if any) for this ``(range index, attempt)`` fires
    first — a kill never reports back (that is the point), a hang sleeps
    and then executes normally (straggler), a corrupted result ships
    garbage the coordinator must detect by shape.
    """
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
            plan = prepared.spec.context.fault_plan
            if plan is not None:
                action = plan.worker_action(index, attempt)
                if action == "corrupt-result":
                    result_queue.put(("ok", query_id, index, attempt,
                                      b"<injected garbage payload>"))
                    continue
                if action is not None:
                    plan.perform(action, index)  # kill / hang / exception
            outcome = execute_range(prepared.table, prepared.spec,
                                    prepared.starts, lo, hi, prepared.cache)
            result_queue.put(("ok", query_id, index, attempt, outcome))
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
            policy: FaultPolicy
            ) -> Tuple[List[_RangeOutcome], PoolReport]:
        """Execute one query's ranges, healing the pool as needed.

        Returns ``(outcomes in range order, PoolReport)``.  Dead workers
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
            payloads: List[Optional[_RangeOutcome]] = [None] * len(ranges)
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
                if not isinstance(payload, _RangeOutcome):
                    # A corrupted result (injected by a fault plan, or any
                    # real bug shipping garbage over the pipe) must become
                    # a retry, not a crash while merging.
                    retry(index, "worker returned a corrupt result payload "
                                 f"({type(payload).__name__})")
                    continue
                payloads[index] = payload
                pending -= 1
            return payloads, report  # type: ignore[return-value]

    def _heal(self, query_id: int, path: str,
              fingerprint: Tuple[int, int, int], spec_blob: bytes,
              ranges: Sequence[Tuple[int, int]],
              payloads: List[Optional[_RangeOutcome]], attempts: List[int],
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
# The entry point used by the scheduler
# --------------------------------------------------------------------------- #

def run_process_scan(table: Table, ranges: Sequence[Tuple[int, int]],
                     workers: int, spec: ScanSpec
                     ) -> Tuple[List[_RangeOutcome], PoolReport]:
    """Run *spec* over *ranges* on the process pool.

    *ranges* and *workers* are the scan grid and
    :func:`~repro.engine.scan.choose_backend`'s verdict for it.  Returns
    ``(outcomes, report)``: what :func:`~repro.engine.scan.execute_range`
    returned for each range, in chunk order — so
    :func:`~repro.engine.scan.scan_table` folds them exactly as it folds
    its own serial loop's — plus the coordinator's healing
    :class:`PoolReport`.
    """
    path = packed_source_path(table)
    if path is None:
        raise ProcessBackendUnavailable(
            "process backend requested; table is not backed by a single "
            "packed file")
    problem = check_fork_safety(spec, root="ScanSpec")
    if problem is not None:
        raise PlanNotPicklableError(
            f"plan cannot cross a process boundary ({problem})")
    return get_pool(workers).run(path, _fingerprint(path), pickle.dumps(spec),
                                 ranges, spec.context.fault_policy)


#: Aggregate scans run through run_process_scan like every other scan.  The
#: frozen perf/trace.py still wraps this second name on every traced run, so
#: it stays bound until the next `benchmark` PR can drop it from the tracer.
run_process_aggregate = run_process_scan
