"""Unit tests for the multiprocess scan backend (:mod:`repro.engine.parallel`).

Covers backend dispatch and fallback notes, bit-identity of the process
backend against serial (filters, materialisation; aggregates are checked
against the oracle in ``test_range_executor.py``), specs ``pickle`` refuses
(serial fallback with pickle's reason), partial-aggregate-state merging
(associativity / order-insensitivity over permuted partials), worker-side
exceptions, and worker death mid-scan.
"""

import contextlib
import itertools
import os
import pickle
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import col, dataset
from repro.engine import ExecutionContext, parallel
from repro.engine.operators import (
    GroupedAggState,
    ScalarAggState,
    merge_states,
)
from repro.engine.parallel import (
    ParallelExecutionError,
    PlanNotPicklableError,
    ProcessBackendUnavailable,
    packed_source_path,
)
from repro.engine.predicates import Between, Predicate
from repro.engine.scan import (
    MIN_PARALLEL_ROWS,
    ScanSpec,
    describe_backend,
    scan_table,
)
from repro.engine.stats import ScanStats
from repro.errors import QueryError
from repro.io.reader import open_packed_table
from repro.io.writer import write_packed_table
from repro.schemes import (
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage import Table

NUM_ROWS = 20_000
CHUNK_SIZE = 1_024


def _build_table():
    rng = np.random.default_rng(7)
    data = {
        "date": np.sort(rng.integers(0, 500, NUM_ROWS)).astype(np.int64),
        "price": (np.cumsum(rng.integers(-3, 4, NUM_ROWS)) + 5_000).astype(np.int64),
        "qty": rng.integers(0, 1 << 9, NUM_ROWS).astype(np.int64),
        "cat": rng.integers(0, 12, NUM_ROWS).astype(np.int64),
    }
    return data, Table.from_pydict(
        data,
        schemes={
            "date": RunLengthEncoding(),
            "price": FrameOfReference(segment_length=128),
            "qty": NullSuppression(),
            "cat": DictionaryEncoding(),
        },
        chunk_size=CHUNK_SIZE,
    )


@pytest.fixture(scope="module")
def packed(tmp_path_factory):
    data, table = _build_table()
    path = tmp_path_factory.mktemp("parallel") / "table.rpk"
    write_packed_table(table, path)
    yield data, open_packed_table(path).table
    parallel.shutdown_pools()


PREDICATES = [Between("date", 50, 300), Between("qty", 16, 400)]


class TestBackendDispatch:
    def test_process_scan_is_bit_identical_to_serial(self, packed):
        __, table = packed
        serial = scan_table(table, PREDICATES, materialize=["price"])
        proc = scan_table(table, PREDICATES, materialize=["price"],
                          context=ExecutionContext(workers=4))
        assert proc.backend == "process[4]"
        assert np.array_equal(serial.selection.positions.values,
                              proc.selection.positions.values)
        assert np.array_equal(serial.columns["price"].values,
                              proc.columns["price"].values)
        assert serial.stats.comparable() == proc.stats.comparable()

    def test_empty_selection(self, packed):
        __, table = packed
        impossible = [Between("date", 10_000, 20_000)]
        proc = scan_table(table, impossible,
                          context=ExecutionContext(workers=2,
                                                   use_zone_maps=False))
        assert proc.selection.positions.values.size == 0
        assert proc.backend == "process[2]"

    def test_in_memory_table_falls_back_to_serial_with_note(self):
        __, table = _build_table()
        assert packed_source_path(table) is None
        result = scan_table(table, PREDICATES, context=ExecutionContext(workers=4))
        assert result.backend.startswith("serial (")
        assert "packed" in result.backend

    def test_single_worker_request_degrades_to_serial(self, packed):
        __, table = packed
        result = scan_table(table, PREDICATES, context=ExecutionContext(workers=1))
        assert result.backend == "serial"

    def test_packed_source_path_detects_the_file(self, packed):
        __, table = packed
        path = packed_source_path(table)
        assert path is not None and path.endswith("table.rpk")


def _rule_table(rows):
    rng = np.random.default_rng(rows)
    return Table.from_pydict(
        {"k": np.sort(rng.integers(0, 1_000, rows)).astype(np.int64),
         "v": rng.integers(0, 1 << 10, rows).astype(np.int64)},
        schemes={"k": RunLengthEncoding(), "v": NullSuppression()},
        chunk_size=8_192)


@pytest.fixture(scope="module")
def rule_tables(tmp_path_factory):
    """{(storage, size): table} for the backend-rule matrix."""
    root = tmp_path_factory.mktemp("backend-rule")
    tables = {}
    for size, rows in (("small", MIN_PARALLEL_ROWS - 1),
                       ("large", MIN_PARALLEL_ROWS)):
        memory = _rule_table(rows)
        path = root / f"{size}.rpk"
        write_packed_table(memory, path)
        tables["memory", size] = memory
        tables["packed", size] = open_packed_table(path).table
    yield tables
    parallel.shutdown_pools()


class TestBackendRule:
    """The one rule (:func:`repro.engine.scan.choose_backend`): what
    ``explain()`` is told is what the scan then reports having run."""

    @pytest.mark.parametrize("predicates", [0, 1])
    @pytest.mark.parametrize("workers", [1, 2, "auto"])
    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("storage", ["memory", "packed"])
    def test_explain_names_the_backend_that_runs(self, rule_tables, storage,
                                                 size, workers, predicates):
        table = rule_tables[storage, size]
        conjuncts = [Between("v", 100, 900)][:predicates]
        context = ExecutionContext(workers=workers)
        described = describe_backend(table, conjuncts, [], context)
        ds = dataset(table)
        if predicates:
            ds = ds.filter(col("v").between(100, 900))
        ds = ds.with_backend("serial") if workers == 1 \
            else ds.with_backend("process", workers=workers)
        assert f"[backend={described}, workers={workers}," in ds.explain()

        result = scan_table(table, conjuncts, materialize=["k"],
                            context=context)
        assert result.backend == described

        cpus = os.cpu_count() or 1
        if workers == 1:
            assert described == "serial"
        elif workers == "auto" and (size == "small" or cpus == 1):
            assert described == "serial (process[auto] resolved to 1 worker)"
        elif storage == "memory":
            assert described == (f"serial (process[{workers}] requested; "
                                 "table is not backed by a single packed file)")
        else:
            effective = min(cpus, table.column("k").num_chunks) \
                if workers == "auto" else workers
            assert described == f"process[{effective}]"

    def test_explicit_workers_are_capped_by_the_chunk_ranges(self, rule_tables):
        table = rule_tables["packed", "large"]
        chunks = table.column("k").num_chunks
        described = describe_backend(table, [], [],
                                     ExecutionContext(workers=chunks + 5))
        assert described == f"process[{chunks}]"


class _ExplodingPredicate(Predicate):
    """Raises on evaluate — must be picklable to reach the worker."""

    def evaluate(self, values):
        raise RuntimeError("exploded in worker")

    def chunk_decision(self, statistics):
        return None


class _DyingPredicate(Predicate):
    """Kills the worker process outright (no exception to ship back)."""

    def evaluate(self, values):
        os._exit(1)

    def chunk_decision(self, statistics):
        return None


class _Carrying(Between):
    """A picklable predicate class holding *payload*, which may not be."""

    def __init__(self, column_name, low, high, payload):
        super().__init__(column_name, low, high)
        self.payload = payload


class _CountedPickles(Between):
    """Counts how often an instance is pickled."""

    pickled = 0

    def __getstate__(self):
        type(self).pickled += 1
        return self.__dict__


def _local_predicate(resources):
    class LocalPredicate(Between):  # local class: cannot be pickled
        pass

    return {"predicates": [LocalPredicate("price", 0, 10_000)]}


def _carrying(payload):
    return {"predicates": [_Carrying("price", 0, 10_000, payload)]}


#: case -> (scan_table arguments, built given an ExitStack that owns what
#: they open; a word of pickle's reason).  None of them can reach a worker.
UNPICKLABLE = {
    "lambda in a derive spec": (lambda resources: {"derive": [(
        "up", SimpleNamespace(columns=("price",),
                              evaluate=lambda env: env["price"] + 1))]}, "lambda"),
    "local predicate class": (_local_predicate, "LocalPredicate"),
    "lock": (lambda resources: _carrying(threading.Lock()), "lock"),
    "open file": (lambda resources: _carrying(
        resources.enter_context(open(os.devnull))), "TextIOWrapper"),
    "module": (lambda resources: _carrying(np), "module"),
    "generator": (lambda resources: _carrying(i for i in range(3)), "generator"),
}


class TestFailureModes:
    def test_worker_exception_raises_with_traceback(self, packed):
        __, table = packed
        with pytest.raises(ParallelExecutionError, match="exploded in worker"):
            scan_table(table, [_ExplodingPredicate("price")],
                       context=ExecutionContext(workers=2,
                                                use_pushdown=False,
                                                use_zone_maps=False))
        # the pool survives a worker-side exception: next query works
        good = scan_table(table, PREDICATES, context=ExecutionContext(workers=2))
        assert good.backend == "process[2]"

    def test_worker_death_raises_instead_of_hanging(self, packed):
        __, table = packed
        with pytest.raises(ParallelExecutionError):
            scan_table(table, [_DyingPredicate("price")],
                       context=ExecutionContext(workers=2,
                                                use_pushdown=False,
                                                use_zone_maps=False))
        # the dead pool was abandoned; a fresh one serves the next query
        good = scan_table(table, PREDICATES, context=ExecutionContext(workers=2))
        assert good.backend == "process[2]"
        serial = scan_table(table, PREDICATES)
        assert np.array_equal(serial.selection.positions.values,
                              good.selection.positions.values)

    def test_unpicklable_spec_falls_back_to_serial(self, packed):
        __, table = packed

        class LocalPredicate(Between):  # local class: cannot be pickled
            pass

        result = scan_table(table, [LocalPredicate("price", 0, 10_000)],
                            context=ExecutionContext(workers=2))
        assert result.backend.startswith("serial (")
        assert "LocalPredicate" in result.backend

    def test_dispatch_rejects_in_memory_tables(self):
        __, table = _build_table()
        spec = ScanSpec(predicates=tuple(PREDICATES))
        with pytest.raises(ProcessBackendUnavailable):
            parallel.run_process_scan(table, ((0, table.row_count),), 2, spec)

    @pytest.mark.parametrize("case", UNPICKLABLE)
    def test_unpicklable_spec_is_refused(self, packed, case):
        """``run_process_scan`` refuses the spec with pickle's reason, and
        ``scan_table`` runs it serially and says why."""
        __, table = packed
        build, reason = UNPICKLABLE[case]
        with contextlib.ExitStack() as resources:
            arguments = {"predicates": [], "materialize": ["price"], **build(resources)}
            spec = ScanSpec(predicates=tuple(arguments["predicates"]),
                            materialize=("price",),
                            derive=tuple(arguments.get("derive", ())))
            with pytest.raises(PlanNotPicklableError, match=reason):
                parallel.run_process_scan(table, ((0, CHUNK_SIZE),), 2, spec)
            result = scan_table(table, context=ExecutionContext(workers=2), **arguments)
            serial = scan_table(table, **arguments)
        assert result.backend.startswith("serial (plan cannot cross")
        assert reason in result.backend
        assert np.array_equal(result.selection.positions.values,
                              serial.selection.positions.values)

    def test_a_pooled_query_pickles_its_spec_once(self, packed):
        __, table = packed
        _CountedPickles.pickled = 0
        result = scan_table(table, [_CountedPickles("price", 0, 10_000)],
                            context=ExecutionContext(workers=2))
        assert result.backend == "process[2]"
        assert _CountedPickles.pickled == 1


class TestStatePermutations:
    """Satellite: partial-state merging must be associative and
    order-insensitive — every permutation of the partials folds to the
    same answer."""

    def test_scan_stats_merge_is_order_insensitive(self):
        partials = [
            ScanStats(chunks_total=4, chunks_decompressed=2,
                      chunks_skipped=1, rows_scanned=4_096),
            ScanStats(chunks_total=4, chunks_short_circuited=2,
                      rows_scanned=2_048, plan_cache_hits=5),
            ScanStats(chunks_total=2, chunks_pushed_down=2,
                      rows_scanned=2_048, fault_events=2),
        ]
        merged_dicts = []
        for permutation in itertools.permutations(partials):
            total = ScanStats(predicates_total=2)
            for part in permutation:
                total.merge(part)
            merged_dicts.append(vars(total).copy())
        assert all(d == merged_dicts[0] for d in merged_dicts)
        assert merged_dicts[0]["chunks_total"] == 10
        assert merged_dicts[0]["rows_scanned"] == 8_192

    def test_scalar_state_merge_permutations(self):
        rng = np.random.default_rng(11)
        values = rng.integers(-(1 << 30), 1 << 30, 300).astype(np.int64)
        pieces = np.array_split(values, 5)
        for op, expected in (("sum", int(values.sum())),
                             ("min", int(values.min())),
                             ("max", int(values.max())),
                             ("count", values.size)):
            states = [
                {"x": ScalarAggState(op, rows=piece.size,
                                     partial=None if op == "count" else
                                     piece.sum() if op == "sum" else
                                     piece.min() if op == "min" else piece.max())}
                for piece in pieces
            ]
            for permutation in itertools.permutations(states):
                merged = merge_states(list(permutation))
                assert merged["x"].finalize() == expected

    def test_grouped_state_merge_permutations(self):
        keys_a = np.array([1, 3, 5], dtype=np.int64)
        keys_b = np.array([2, 3], dtype=np.int64)
        keys_c = np.array([5, 9], dtype=np.int64)
        states = [
            GroupedAggState(keys=keys_a, rows=6, aggregates={
                "n": ("count", np.array([1, 2, 3], dtype=np.int64))}),
            GroupedAggState(keys=keys_b, rows=3, aggregates={
                "n": ("count", np.array([2, 1], dtype=np.int64))}),
            GroupedAggState(keys=keys_c, rows=5, aggregates={
                "n": ("count", np.array([4, 1], dtype=np.int64))}),
        ]
        for permutation in itertools.permutations(states):
            merged = merge_states(list(permutation))
            assert np.array_equal(merged.keys,
                                  np.array([1, 2, 3, 5, 9], dtype=np.int64))
            op, counts = merged.aggregates["n"]
            assert op == "count"
            assert np.array_equal(counts,
                                  np.array([1, 2, 3, 7, 1], dtype=np.int64))
            assert merged.rows == 14

    def test_zero_row_scalar_state_raises_on_finalize(self):
        with pytest.raises(QueryError):
            ScalarAggState("min", rows=0, partial=None).finalize()
        assert ScalarAggState("count", rows=0).finalize() == 0


class TestApiSurface:
    def test_with_backend_validates(self, packed):
        __, table = packed
        ds = dataset(table)
        for unknown in ("gpu", "auto"):
            with pytest.raises(QueryError, match="unknown execution backend"):
                ds.with_backend(unknown)
        with pytest.raises(QueryError, match="workers"):
            ds.with_backend("process", workers=0)
        with pytest.raises(QueryError, match="workers"):
            ds.with_backend("serial", workers=2)

    def test_process_without_workers_means_auto(self, packed):
        __, table = packed
        ds = dataset(table).filter(col("qty").between(16, 400))
        assert ds.with_backend("process").explain() == \
            ds.with_backend("process", workers="auto").explain()
        assert "workers=auto" in ds.with_backend("process").explain()

    def test_bool_workers_are_rejected(self, packed):
        __, table = packed
        with pytest.raises(QueryError, match="workers"):
            dataset(table).with_backend("process", workers=True)

    def test_explain_shows_backend_decision(self, packed):
        __, table = packed
        plan = (dataset(table).filter(col("qty").between(16, 400))
                .with_backend("process", workers=4).explain())
        assert "backend=process[4]" in plan
        __, memory_table = _build_table()
        plan = (dataset(memory_table).filter(col("qty").between(16, 400))
                .with_backend("process", workers=4).explain())
        assert "backend=serial (" in plan

    def test_spec_roundtrips_through_pickle(self):
        spec = ScanSpec(predicates=tuple(PREDICATES),
                        context=ExecutionContext(use_zone_maps=False))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.context == spec.context
        assert [p.column_name for p in clone.predicates] == ["date", "qty"]


class TestStaleMmapInvalidation:
    """Satellite: the per-worker table-cache key must include the footer
    digest.  A same-size in-place rewrite landing within the filesystem's
    mtime granularity defeats an ``(st_size, st_mtime_ns)`` fingerprint —
    only the footer CRC (v3 footers embed a fresh ``write_uuid`` per write)
    tells the two files apart."""

    def test_fingerprint_sees_through_size_and_mtime(self, tmp_path):
        __, table = _build_table()
        path = tmp_path / "twin.rpk"
        write_packed_table(table, path)
        stat = os.stat(path)
        first = parallel._fingerprint(str(path))
        # Rewrite the identical table in place and force the old stat pair.
        write_packed_table(table, path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        second = parallel._fingerprint(str(path))
        assert os.stat(path).st_size == stat.st_size
        assert first[:2] == second[:2]  # size + mtime cannot tell them apart
        assert first != second          # the footer digest can

    def test_same_size_rewrite_is_served_fresh(self, tmp_path):
        rows, chunk = 8_192, 4_096
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1_000, rows).astype(np.int64)
        schemes = {"v": DictionaryEncoding()}
        path = tmp_path / "stale.rpk"
        write_packed_table(
            Table.from_pydict({"v": values}, schemes=schemes,
                              chunk_size=chunk), path)
        stat = os.stat(path)
        predicate = [Between("v", 0, 499)]
        # Warm the pool: workers now hold the original file's mmap + table.
        stale = scan_table(open_packed_table(path).table, predicate,
                           materialize=["v"], context=ExecutionContext(workers=2))
        assert stale.backend == "process[2]"
        # Same multiset per chunk → identical dictionaries, stats and file
        # size; only the segment bytes (and their digests) differ.  Footer
        # digest ints vary in decimal width, so probe seeds for an exact
        # size match — deterministic given the fixed input data.
        candidate = tmp_path / "candidate.rpk"
        for seed in range(200):
            shuffled = values.copy()
            shuffle_rng = np.random.default_rng(seed)
            for lo in range(0, rows, chunk):
                shuffle_rng.shuffle(shuffled[lo:lo + chunk])
            if np.array_equal(shuffled, values):
                continue
            write_packed_table(
                Table.from_pydict({"v": shuffled}, schemes=schemes,
                                  chunk_size=chunk), candidate)
            if os.stat(candidate).st_size == stat.st_size:
                break
        else:
            pytest.fail("no same-size shuffled rewrite found in 200 seeds")
        os.replace(candidate, path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.stat(path).st_size == stat.st_size
        assert os.stat(path).st_mtime_ns == stat.st_mtime_ns

        fresh_table = open_packed_table(path).table
        serial = scan_table(fresh_table, predicate, materialize=["v"])
        fresh = scan_table(fresh_table, predicate, materialize=["v"],
                           context=ExecutionContext(workers=2))
        assert fresh.backend == "process[2]"
        assert np.array_equal(serial.selection.positions.values,
                              fresh.selection.positions.values)
        assert np.array_equal(serial.columns["v"].values,
                              fresh.columns["v"].values)
        # And the answer genuinely changed: serving the stale mmap would
        # have reproduced the original file's positions.
        assert not np.array_equal(stale.selection.positions.values,
                                  fresh.selection.positions.values)
        parallel.shutdown_pools()
