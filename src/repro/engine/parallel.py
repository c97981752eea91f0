"""Multiprocess scan execution over the packed format.

The short NumPy kernels a compressed scan runs per chunk hold the GIL, so
fanning chunks out over threads never beat a serial scan (the thread
backend measured 0.79–1.02× and was removed).  This module is the parallel
backend: a pool of long-lived worker **processes** that each ``mmap`` the
same packed table file.

Design
------

* **What crosses the pipe.**  Coordinator → worker: ``(query, range index,
  lo, hi, attempt)`` tasks only.  Workers open the packed file by path
  (:func:`repro.io.reader.open_packed_table`; the OS page cache shares the
  bytes) and read the query's pickled :class:`~repro.engine.scan.ScanSpec`
  from ``<query>.spec`` in the pool's spool directory.  A table that is not
  one packed file (``Table.from_pydict``) cannot be shared this way: the
  caller runs serially and says so in ``ScanResult.backend``.  Worker →
  coordinator, on one pipe each worker's own thread writes under a lock (no
  feeder thread to die mid-write, lock in hand): per range, what
  :func:`repro.engine.scan.execute_range` — the function the serial loop
  runs — returned: stats, for an aggregate plan the mergeable state
  (operands and keys are evaluated inside the range), else positions and
  pieces — in band up to :data:`SPOOL_THRESHOLD` bytes, otherwise
  *spooled*: copied back to back, from a page boundary, into the worker's
  **arena**, ``(dtype, size, offset)`` descriptors and the worker's pid
  sent in their place.  :func:`~repro.engine.scan._fold` assembles outcomes
  in range order whichever backend produced them, copying a spooled array
  from the coordinator's mapping of the arena straight into its slice of
  the result: a selected value is copied twice (worker → arena → result)
  and never pickled, and the arena's pages are allocated once per worker,
  not once per range.
* **Who owns an arena.**  The file ``arena.<pid>`` in the spool directory
  is its worker's: created when the worker starts (a new file, should its
  pid be a dead worker's), grown with
  ``posix_fallocate`` (a full tmpfs is an ``OSError`` in the worker, a
  retry, never a ``SIGBUS`` on a sparse page) and mapped read-write for the
  worker's life.  Within a query the worker only appends — a retry, a
  duplicate or a straggler writes past everything it has reported — and it
  goes back to offset 0 on its first task of the next query.  The
  coordinator opens an arena under the name it builds from the pid
  integer, never a path out of a payload, maps it read-only (again when it
  grew), and after copying a piece drops those pages from its own address
  space (``MADV_DONTNEED``): the worker keeps them.
* **The fold runs under the pool's lock.**  A region is safe to read only
  until its worker starts the next query, and that query's tasks are queued
  only once ``run`` has returned — so ``run`` folds before it releases the
  lock, and returns the result's arrays.
* **Who owns the spool directory.**  The pool creates it (in ``/dev/shm``
  when that exists) and removes it in ``shutdown``.  A query is live while
  its ``<query>.spec`` exists: ``run`` writes it before the first task and
  unlinks it on the way out; a worker skips a task whose spec is gone.
  ``run`` sweeps the directory at both ends: everything but the live
  workers' arenas goes, a dead worker's arena after the fold (its regions
  already accepted stay readable through the coordinator's mapping) — so
  between queries the directory holds exactly one ``arena.<pid>`` per live
  worker.  Only a coordinator killed by ``SIGKILL`` leaves anything behind:
  the directory, a spec, the arenas.
* **Work stealing.**  All workers pull tasks from one shared queue, so a
  straggler chunk never idles the rest of the pool; the coordinator
  reassembles results by range index, which keeps results (and merged
  :meth:`ScanStats.comparable() <repro.engine.stats.ScanStats.comparable>`)
  bit-identical to a serial scan.
* **Caches warm once per worker, not once per query.**  Each worker keeps
  its opened :class:`~repro.io.reader.PackedTableFile` (keyed by path,
  invalidated by :func:`_fingerprint`) and its compiled-plan caches
  (:mod:`repro.columnar.compile` is process-global).
* **Failure is survivable.**  The coordinator self-heals under a
  :class:`~repro.engine.resilience.FaultPolicy`: a worker *dying* mid-scan
  is detected by a liveness check when the result pipe goes quiet, the
  dead process is respawned in place and every unfinished chunk range
  re-enqueued — safe unconditionally: scans are read-only and range
  execution is idempotent (first result per range wins, duplicates are
  dropped).  A worker-side exception, or a result failing the receipt check
  (:func:`_receipt_cause`), is retried with exponential backoff up to
  ``policy.retries`` times before it surfaces as
  :class:`ParallelExecutionError`; a failed segment digest or a form
  check's refusal is *not* retried (both are persistent): it re-raises as
  the typed :class:`~repro.errors.CorruptionError` or
  :class:`~repro.errors.OperatorError` or, for a digest under
  ``on_corruption="quarantine"``, the range contributes no rows and counts
  in ``ScanStats.chunks_quarantined``.  ``policy.deadline_s`` bounds the
  whole query: on expiry the pool is abandoned (which kills stragglers) and
  :class:`~repro.errors.ScanTimeoutError` raised.  A spec ``pickle``
  refuses raises :class:`PlanNotPicklableError`, which the scan scheduler
  turns into a serial fallback with pickle's reason.  The spec's context
  carries a deterministic :class:`~repro.engine.resilience.FaultPlan` into
  the workers — the chaos harness that proves all of the above.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import itertools
import mmap
import multiprocessing as mp
import os
import pickle
import shutil
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, replace
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..columnar.column import Column
from ..errors import CorruptionError, OperatorError, QueryError, ScanTimeoutError
from ..storage.table import Table
from .resilience import FaultPolicy
from .scan import ScanSpec, _fold, _RangeOutcome, empty_outputs, execute_range
from .stats import ScanStats

__all__ = ["ParallelExecutionError", "PlanNotPicklableError", "PoolReport",
           "ProcessBackendUnavailable", "get_pool", "packed_source_path",
           "run_process_aggregate", "run_process_scan", "shutdown_pools"]


class ProcessBackendUnavailable(Exception):
    """The process backend cannot run this scan; fall back to serial.
    Internal control flow: :func:`repro.engine.scan.scan_table` catches it
    and records the reason in ``ScanResult.backend``."""


class PlanNotPicklableError(ProcessBackendUnavailable):
    """The predicate/plan spec cannot cross a process boundary."""


class ParallelExecutionError(QueryError):
    """A worker process failed (or died) while executing a scan."""


# --------------------------------------------------------------------------- #
# Packed-source detection
# --------------------------------------------------------------------------- #

def packed_source_path(table: Table) -> Optional[str]:
    """The packed file every chunk of *table* is backed by, or ``None``:
    workers reopen the same bytes by path, so every chunk must read from
    one shared :class:`~repro.io.reader.SegmentSource` — exactly what
    :meth:`PackedTableFile.table` builds."""
    from ..io.reader import source_of

    sources = {source_of(chunk) for name in table.column_names
               for chunk in table.column(name).chunks}
    source = sources.pop() if len(sources) == 1 else None
    return None if source is None else str(source.path)


def _fingerprint(path: str) -> Tuple[int, int, int]:
    """Identity of the packed file's current bytes, keying the per-worker
    table cache.  Size and mtime alone miss an in-place rewrite that keeps
    both (``st_mtime_ns`` granularity depends on the filesystem; the same
    table rewrites to the same size) and a worker would serve a stale mmap;
    the footer embeds a fresh ``write_uuid`` per write, so its CRC32 cannot
    collide across rewrites.  Only the coordinator pays the footer read:
    workers compare the tuple shipped with the spec."""
    from ..io.reader import footer_fingerprint

    stat = os.stat(path)
    return (stat.st_size, stat.st_mtime_ns, footer_fingerprint(path))


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #

#: Worker-process global: opened packed tables (path -> (fingerprint,
#: PackedTableFile, Table)), kept across queries.
_WORKER_TABLES: Dict[str, Tuple[Tuple[int, int, int], Any, Table]] = {}


def _prepare(path: str, fingerprint: Tuple[int, int, int], spec: ScanSpec):
    """One query's per-worker state, from its spec file: the fault plan and
    :func:`~repro.engine.scan.execute_range` bound to all but ``(lo, hi)``."""
    from ..io.reader import open_packed_table

    cached = _WORKER_TABLES.get(path)
    if cached is None or cached[0] != fingerprint:
        packed = open_packed_table(path)
        cached = (fingerprint, packed, packed.table)
        _WORKER_TABLES[path] = cached
    return spec.context.fault_plan, functools.partial(execute_range, cached[2], spec)


#: In-band limit on a range's positions and pieces, in bytes: one pipe buffer
#: (64 KiB on Linux), what a worker can send without waiting for the reader.
#: In band, a byte is pickled, copied into the pipe and out, and unpickled.
SPOOL_THRESHOLD = 1 << 16


#: Where a range's spooled arrays start in an arena: the coordinator drops
#: the pages it copied, whole.
_PAGE = mmap.PAGESIZE


class _Spooled(NamedTuple):
    """Where a spooled array sits in its worker's arena."""

    dtype: np.dtype
    size: int
    offset: int


def _arena_name(pid: int) -> str:
    """A worker's arena file: a function of its pid only."""
    return "arena.%d" % pid


class _Arena:
    """Worker side: this process's arena, mapped read-write for its life."""

    def __init__(self, directory: str):
        path = os.path.join(directory, _arena_name(os.getpid()))
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)  # a dead worker's, whose pid this one reuses
        self.fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
        self.map: Optional[mmap.mmap] = None
        self.cursor = 0

    def append(self, arrays: Sequence[np.ndarray]) -> int:
        """Copy *arrays* back to back from the first page boundary at or past
        the cursor, growing the arena as needed; returns where they start."""
        start = -(-self.cursor // _PAGE) * _PAGE
        end = start + sum(array.nbytes for array in arrays)
        size = 0 if self.map is None else len(self.map)
        if end > size:
            size = -(-max(end, 2 * size) // _PAGE) * _PAGE
            os.posix_fallocate(self.fd, 0, size)  # reserves the blocks: ENOSPC here
            if self.map is None:
                self.map = mmap.mmap(self.fd, size)
            else:
                self.map.resize(size)  # mremap: the pages touched stay mapped
        for array, at in zip(arrays, itertools.accumulate(
                (array.nbytes for array in arrays), initial=start)):
            np.ndarray(array.shape, array.dtype, buffer=self.map, offset=at)[...] = array
        self.cursor = end
        return start


def _spool_outcome(outcome: _RangeOutcome, arena: _Arena) -> _RangeOutcome:
    """Worker side: *outcome* itself when its arrays fit the pipe, else a copy
    saying where in *arena* (by this process's pid) each one, appended there
    back to back, sits."""
    arrays = [outcome.positions, *outcome.pieces.values()]
    if sum(array.nbytes for array in arrays) <= SPOOL_THRESHOLD:
        return outcome
    offsets = itertools.accumulate((array.nbytes for array in arrays),
                                   initial=arena.append(arrays))
    described = [_Spooled(a.dtype, a.size, at) for a, at in zip(arrays, offsets)]
    return replace(outcome, positions=described[0], spool=os.getpid(),
                   pieces=dict(zip(outcome.pieces, described[1:])))


class _Mapping:
    """Coordinator side: a worker's arena, mapped read-only as large as the
    file was then."""

    def __init__(self, path: str):
        with open(path, "rb") as handle:
            stat = os.fstat(handle.fileno())
            self.inode, self.size = stat.st_ino, stat.st_size
            self.map = mmap.mmap(handle.fileno(), self.size, prot=mmap.PROT_READ)
        self.bytes = np.frombuffer(self.map, np.uint8)

    def copy_into(self, piece: _Spooled, out: np.ndarray) -> None:
        """Fill *out*, a contiguous slice of the result, with *piece*, then
        drop the pages it spans from this process (the file keeps them)."""
        view = out.view(np.uint8)
        source = self.bytes[piece.offset:piece.offset + view.size]
        if source.size < view.size:
            raise ParallelExecutionError(
                f"spooled result ends {view.size - source.size} bytes short")
        view[...] = source
        if view.size:
            start = piece.offset - piece.offset % _PAGE
            self.map.madvise(mmap.MADV_DONTNEED, start, piece.offset + view.size - start)


class _Arenas(Dict[int, _Mapping]):
    """Coordinator side: the arenas of a spool *directory*'s workers, by pid."""

    def __init__(self, directory: str):
        super().__init__()
        self.directory = directory

    def of(self, pid: Any) -> Optional[_Mapping]:
        """Worker *pid*'s arena, mapped (again, once the file has grown), or
        ``None`` when it has none: the name is built from the integer."""
        if type(pid) is not int:
            return None
        path = os.path.join(self.directory, _arena_name(pid))
        try:
            now, mapped = os.stat(path), self.get(pid)
            if now.st_size == 0:
                return None
            if mapped is None or mapped.inode != now.st_ino or mapped.size < now.st_size:
                mapped = self[pid] = _Mapping(path)
            return mapped
        except FileNotFoundError:
            return None


def _receipt_cause(outcome: Any, expected: Dict[str, np.dtype],
                   arena: Optional[_Mapping]) -> Optional[str]:
    """Why a received *outcome* cannot be folded — its retry's cause — or
    ``None``: it carries the *expected* outputs ``{name: dtype}``
    (:func:`~repro.engine.scan.empty_outputs`), each as long as its int64
    ``positions``, all in band without a spooling pid and all
    :class:`_Spooled` with one, back to back from a page boundary inside
    *arena*, that pid's mapped arena."""
    if not isinstance(outcome, _RangeOutcome):
        return f"worker returned a corrupt result payload ({type(outcome).__name__})"
    arrays = [outcome.positions, *outcome.pieces.values()]
    kind = np.ndarray if outcome.spool is None else _Spooled
    if list(outcome.pieces) != list(expected) or {type(a) for a in arrays} != {kind}:
        return (f"result outputs {list(outcome.pieces)} are not {list(expected)}, "
                f"each one {kind.__name__} (spooled by: {outcome.spool!r})")
    shapes = [(a.dtype, a.size, getattr(a, "ndim", 1)) for a in arrays]
    if shapes != [(dtype, arrays[0].size, 1)
                  for dtype in (np.dtype(np.int64), *expected.values())]:
        return f"result arrays {shapes} are not int64 positions, then {expected}"
    if outcome.spool is not None:
        if arena is None:
            return f"worker {outcome.spool!r} has no arena"
        ends = list(itertools.accumulate((a.size * a.dtype.itemsize for a in arrays),
                                         initial=arrays[0].offset))
        if [a.offset for a in arrays] != ends[:-1] or ends[0] < 0 \
                or ends[0] % _PAGE or ends[-1] > arena.size:
            return f"arena of {arena.size} bytes does not hold the layout {arrays}"
    return None


def _worker_main(spool_dir: str, task_queue, results, results_lock) -> None:
    """The worker-process loop: pull tasks, execute, stream results back.

    A task whose ``<query>.spec`` is gone is skipped: that query is over.
    Any other is one :func:`~repro.engine.scan.execute_range`, its outcome
    (through :func:`_spool_outcome`, into this worker's arena, rewound on
    the query's first task) the result payload.  A failure is caught and
    shipped as an error record — the worker stays alive — with an
    unquarantined :class:`~repro.errors.CorruptionError` or an
    :class:`~repro.errors.OperatorError` marked non-retryable: a digest
    mismatch and a malformed form are persistent.  The spec's
    :class:`~repro.engine.resilience.FaultPlan` fault for this ``(range
    index, attempt)``, if any, fires first: a kill never reports back, a
    hang sleeps and then executes (a straggler), a corrupted result is a
    layout no arena holds or, in band, garbage for a payload.
    """
    arena = _Arena(spool_dir)
    current = plan = execute = None  # queries run one at a time, in id order
    while True:
        task = task_queue.get()
        if task is None:
            return
        query_id, index, lo, hi, attempt = task
        spec_path = os.path.join(spool_dir, f"{query_id}.spec")
        if not os.path.exists(spec_path):
            continue
        try:
            if query_id != current:
                with open(spec_path, "rb") as handle:
                    plan, execute = _prepare(*pickle.load(handle))
                current, arena.cursor = query_id, 0
            action = None if plan is None else plan.worker_action(index, attempt)
            if action not in (None, "corrupt-result"):
                plan.perform(action, index)  # kill / hang / exception
            outcome: Any = _spool_outcome(execute(lo, hi), arena)
            if action == "corrupt-result" and outcome.spool is not None:
                # Whatever the arena has grown to by receipt; the arena stays whole.
                outcome.positions = outcome.positions._replace(offset=-_PAGE)
            elif action == "corrupt-result":
                outcome = b"<injected garbage payload>"
            kind = "ok"
        except BaseException as error:
            kind, outcome = "error", {
                "type": type(error).__name__, "message": str(error),
                "traceback": traceback.format_exc(),
                "retryable": not isinstance(error, (CorruptionError, OperatorError))}
        # Sent from this thread: a queue's feeder thread could be mid-write,
        # holding the pipe's lock, when this one dies (is killed).
        with results_lock:
            results.send((kind, query_id, index, attempt, outcome))


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
    # fork shares the imported interpreter state (cheap startup, classes
    # defined anywhere pickle by reference); spawn where fork does not exist.
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")


class ProcessPool:
    """Long-lived scan workers, the coordination queues, the spool directory.
    One pool per worker count, created lazily and kept for the life of the
    process (:func:`get_pool`): repeated queries pay process startup once.
    ``run`` holds a lock — the shared result pipe serves one query at a
    time; concurrent callers queue up behind it."""

    def __init__(self, workers: int):
        context = _mp_context()
        self.workers = workers
        self._task_queue = context.Queue()
        self._results, self._results_writer = context.Pipe(duplex=False)
        self._results_lock = context.Lock()
        self._spool = tempfile.mkdtemp(
            prefix="repro-pool-", dir="/dev/shm" if os.path.isdir("/dev/shm") else None)
        self._arenas = _Arenas(self._spool)
        self._lock = threading.Lock()
        self._query_ids = itertools.count()
        self._closed = False
        self._processes = [self._spawn(slot) for slot in range(workers)]

    def _spawn(self, slot: int):
        process = _mp_context().Process(
            target=_worker_main, daemon=True, name=f"repro-scan-worker-{slot}",
            args=(self._spool, self._task_queue, self._results_writer, self._results_lock))
        process.start()
        return process

    def healthy(self) -> bool:
        return not self._closed and all(p.is_alive() for p in self._processes)

    def run(self, pickled: bytes, policy: FaultPolicy, ranges: Sequence[Tuple[int, int]],
            expected: Dict[str, np.dtype]
            ) -> Tuple[List[_RangeOutcome], PoolReport, Tuple[Column, Dict[str, Column]]]:
        """Execute one query's ranges under its spec's fault *policy*, healing
        the pool as needed (see "Failure is survivable" above).  *pickled* is
        the query's ``(path, fingerprint, spec)``, written to
        ``<query>.spec`` as is.  Returns ``(outcomes in range order,
        PoolReport, their positions and *expected* outputs folded)``, every
        outcome held to *expected* by :func:`_receipt_cause` and folded
        before the lock is released (the arenas are reused by the next
        query).  A range out of retries raises
        :class:`ParallelExecutionError` with the pool abandoned; a
        non-retryable :class:`~repro.errors.CorruptionError` or
        :class:`~repro.errors.OperatorError` is re-raised typed, at once,
        with the pool left healthy; the deadline's expiry
        abandons the pool and raises :class:`~repro.errors.ScanTimeoutError`."""
        with self._lock:
            if self._closed:
                raise ParallelExecutionError("process pool is shut down")
            query_id = next(self._query_ids)
            deadline = time.monotonic() + (policy.deadline_s or float("inf"))
            self._sweep()
            spec_path = os.path.join(self._spool, f"{query_id}.spec")
            with open(spec_path, "wb") as handle:
                handle.write(pickled)
            for index, (lo, hi) in enumerate(ranges):
                self._task_queue.put((query_id, index, lo, hi, 0))
            outcomes: List[Optional[_RangeOutcome]] = [None] * len(ranges)
            attempts = [0] * len(ranges)
            report = PoolReport()
            pending = len(ranges)

            def again(index: int, how: str, then: str, backoff_s: float = 0.0) -> None:
                """Re-enqueue range *index* at a bumped attempt (which keeps
                non-sticky injected faults from re-firing), budget allowing."""
                if attempts[index] >= policy.retries:
                    self._abandon()
                    raise ParallelExecutionError(
                        f"chunk range {index} {how} {attempts[index] + 1} time(s) "
                        f"(retries={policy.retries} exhausted); {then}")
                attempts[index] += 1
                report.ranges_retried += 1
                if backoff_s > 0:
                    time.sleep(min(backoff_s * 2.0 ** (attempts[index] - 1), 1.0))
                self._task_queue.put((query_id, index, *ranges[index], attempts[index]))

            def retry(index: int, cause: str) -> None:
                report.fault_events += 1
                again(index, "failed", f"last cause:\n{cause}", policy.backoff_s)

            try:
                while pending:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._abandon()
                        raise ScanTimeoutError(
                            f"scan exceeded its {policy.deadline_s:g}s fault-policy "
                            f"deadline with {pending} of {len(ranges)} chunk range(s) "
                            "unfinished; the process pool was shut down")
                    if not self._results.poll(min(1.0, max(remaining, 0.01))):
                        # Quiet.  Which range a dead worker held is unknowable,
                        # so every unfinished one goes again.
                        if self._respawn_dead(report):
                            for index in range(len(ranges)):
                                if outcomes[index] is None:
                                    again(index, "was lost to dying workers",
                                          "the process pool has been shut down")
                        continue
                    kind, qid, index, attempt, payload = self._results.recv()
                    if qid != query_id or outcomes[index] is not None:
                        continue  # stale query, or a duplicate of a healed range
                    if kind == "error":
                        if not payload.get("retryable", True):
                            _raise_typed(payload)
                        retry(index, payload.get("traceback", repr(payload)))
                        continue
                    # Garbage (an injected fault, or a real bug) must become
                    # a retry, not a crash or misaligned columns in the fold.
                    arena = self._arenas.of(getattr(payload, "spool", None))
                    cause = _receipt_cause(payload, expected, arena)
                    if cause is None:
                        payload.spool = arena
                        outcomes[index] = payload
                        pending -= 1
                    else:
                        retry(index, cause)
                folded = _fold(outcomes, list(expected))  # type: ignore[arg-type]
            finally:
                with contextlib.suppress(FileNotFoundError):  # gone after ``_abandon``
                    os.unlink(spec_path)
                self._sweep()
            return outcomes, report, folded  # type: ignore[return-value]

    def _sweep(self) -> None:
        """Empty the spool directory but for the live workers' arenas, and
        forget the mappings of the others; a shut-down pool has neither."""
        if self._closed:
            return
        live = {process.pid for process in self._processes if process.is_alive()}
        for pid in set(self._arenas) - live:
            del self._arenas[pid]
        for name in set(os.listdir(self._spool)) - {_arena_name(pid) for pid in live}:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(self._spool, name))

    def _respawn_dead(self, report: PoolReport) -> int:
        """Replace every dead worker in place; returns how many there were."""
        dead = [slot for slot, process in enumerate(self._processes)
                if not process.is_alive()]
        for slot in dead:
            self._processes[slot].join(timeout=1)
            self._processes[slot].close()  # release the Process object's pipe/fd now
            self._processes[slot] = self._spawn(slot)
            report.workers_respawned += 1
            report.fault_events += 1
        return len(dead)

    def _abandon(self) -> None:
        """After an unrecoverable failure or deadline expiry the queues may
        hold undelivered state and a straggler hang: discard the whole pool."""
        self.shutdown(graceful=False)
        with _POOLS_LOCK:
            if _POOLS.get(self.workers) is self:
                del _POOLS[self.workers]

    def shutdown(self, graceful: bool = True) -> None:
        """Stop the workers (asked first when *graceful*, then killed), join
        and close them, release the result pipe and the task queue, remove the spool.
        ``close()`` reaps a ``Process`` handle (sentinel pipe fd, zombie
        entry) now, not when garbage collection runs; a worker wedged past
        ``terminate`` + ``join`` cannot be closed and stays a child."""
        if self._closed:
            return
        self._closed = True
        if graceful:
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
        for process in self._processes:
            with contextlib.suppress(Exception):
                process.join(timeout=5)
                process.close()
        with contextlib.suppress(Exception):
            self._results.close()
            self._results_writer.close()
            self._task_queue.cancel_join_thread()
            self._task_queue.close()
        shutil.rmtree(self._spool, ignore_errors=True)
        self._arenas.clear()


def _raise_typed(payload: Dict[str, Any]) -> None:
    """Re-raise a worker's non-retryable error with its original type — a
    :class:`~repro.errors.CorruptionError` or a form check's
    :class:`~repro.errors.OperatorError` must reach the caller as one —
    or, of unknown type, as :class:`ParallelExecutionError` with the full
    worker traceback."""
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
                     ) -> Tuple[List[_RangeOutcome], PoolReport,
                                Tuple[Column, Dict[str, Column]]]:
    """Run *spec* over *ranges* (the scan grid) on the pool of *workers*
    (:func:`~repro.engine.scan.choose_backend`'s verdict).  Returns what
    :func:`~repro.engine.scan.execute_range` returned for each range, in
    chunk order, the coordinator's :class:`PoolReport`, and the outcomes'
    positions and outputs as :func:`~repro.engine.scan._fold` folds the
    serial loop's."""
    path = packed_source_path(table)
    if path is None:
        raise ProcessBackendUnavailable(
            "process backend requested; table is not backed by a single packed file")
    fingerprint = _fingerprint(path)
    try:
        pickled = pickle.dumps((path, fingerprint, spec))
    except Exception as error:  # PicklingError, AttributeError, TypeError, ...
        raise PlanNotPicklableError(
            f"plan cannot cross a process boundary ({error})") from error
    expected = {} if spec.aggregates is not None else {
        name: piece.dtype for name, piece in
        empty_outputs(table, spec.materialize, spec.derive).items()}
    return get_pool(workers).run(pickled, spec.context.fault_policy, ranges, expected)


#: Aggregate scans run through run_process_scan too; the frozen perf/trace.py
#: wraps this second name, so it stays bound until a `benchmark` PR drops it.
run_process_aggregate = run_process_scan
