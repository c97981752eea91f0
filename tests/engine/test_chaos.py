"""Chaos tests: deterministic fault injection against the resilient scan path.

The acceptance bar (ROADMAP robustness item): under injected worker kills,
hangs, exceptions, corrupted result payloads and storage corruption, every
query either returns results bit-identical to a fault-free serial scan or
raises a typed error naming the fault — no hangs, and the pool survives to
serve subsequent clean scans.  Every plan here is seeded, so a failure
reproduces exactly.
"""

import json
import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.api import col, dataset
from repro.engine import ExecutionContext, parallel
from repro.engine.parallel import ParallelExecutionError
from repro.engine.predicates import Between
from repro.engine.resilience import (
    ENV_VAR,
    DEFAULT_FAULT_POLICY,
    FaultPlan,
    FaultPolicy,
    plan_from_env,
)
from repro.engine.scan import scan_table
from repro.errors import CorruptionError, QueryError, ScanTimeoutError, StorageError
from repro.io.reader import open_packed_table
from repro.io.writer import write_packed_table
from repro.schemes import (
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage import Table

NUM_ROWS = 8_192
CHUNK_SIZE = 512  # 16 chunk ranges


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
    path = tmp_path_factory.mktemp("chaos") / "table.rpk"
    write_packed_table(table, path)
    yield data, open_packed_table(path).table
    parallel.shutdown_pools()


@pytest.fixture()
def fresh_packed(tmp_path):
    # Function-scoped: read-fault tests need segments that have never been
    # materialised (loads are cached, and the fault hook fires on loads).
    data, table = _build_table()
    path = tmp_path / "fresh.rpk"
    write_packed_table(table, path)
    return data, open_packed_table(path).table


PREDICATES = [Between("date", 50, 300), Between("qty", 16, 400)]


def _assert_identical(expected, actual):
    assert np.array_equal(expected.selection.positions.values,
                          actual.selection.positions.values)
    for name in expected.columns:
        assert np.array_equal(expected.columns[name].values,
                              actual.columns[name].values)
    assert expected.stats.comparable() == actual.stats.comparable()


def _scan_workers():
    return [process for process in mp.active_children()
            if process.name.startswith("repro-scan-worker")]


class TestSelfHealingPool:
    def test_worker_kill_is_healed_and_bit_identical(self, packed):
        __, table = packed
        serial = scan_table(table, PREDICATES, materialize=["price"])
        chaotic = scan_table(
            table, PREDICATES, materialize=["price"],
            context=ExecutionContext(
                workers=2, fault_plan=FaultPlan(seed=1, kill_ranges=(2,))))
        assert chaotic.backend == "process[2]"  # no degradation needed
        _assert_identical(serial, chaotic)
        assert chaotic.stats.workers_respawned >= 1
        assert chaotic.stats.ranges_retried >= 1
        assert chaotic.stats.fault_events >= 1
        # the healed pool serves the next, fault-free scan
        clean = scan_table(table, PREDICATES, materialize=["price"],
                           context=ExecutionContext(workers=2))
        _assert_identical(serial, clean)
        assert clean.stats.workers_respawned == 0

    def test_injected_exceptions_are_retried(self, packed):
        __, table = packed
        serial = scan_table(table, PREDICATES, materialize=["qty"])
        chaotic = scan_table(
            table, PREDICATES, materialize=["qty"],
            context=ExecutionContext(
                workers=2,
                fault_plan=FaultPlan(seed=2, exception_ranges=(0, 3))))
        _assert_identical(serial, chaotic)
        assert chaotic.stats.ranges_retried >= 2
        assert chaotic.stats.workers_respawned == 0  # nobody died

    def test_corrupted_result_payload_is_retried(self, packed):
        __, table = packed
        serial = scan_table(table, PREDICATES, materialize=["price"])
        chaotic = scan_table(
            table, PREDICATES, materialize=["price"],
            context=ExecutionContext(
                workers=2,
                fault_plan=FaultPlan(seed=3, corrupt_result_ranges=(1,))))
        _assert_identical(serial, chaotic)
        assert chaotic.stats.ranges_retried >= 1

    def test_sticky_kill_exhausts_retries_with_a_named_error(self, packed):
        __, table = packed
        with pytest.raises(ParallelExecutionError, match="dying workers"):
            scan_table(
                table, PREDICATES,
                context=ExecutionContext(
                    workers=2,
                    fault_plan=FaultPlan(
                        seed=4, kill_ranges=(2,), sticky=True),
                    fault_policy=FaultPolicy(retries=1, backoff_s=0.0)))
        # the abandoned pool is replaced transparently on the next scan
        good = scan_table(table, PREDICATES, context=ExecutionContext(workers=2))
        assert good.backend == "process[2]"

    def test_sticky_kill_degrades_to_serial(self, packed):
        __, table = packed
        serial = scan_table(table, PREDICATES, materialize=["price"])
        degraded = scan_table(
            table, PREDICATES, materialize=["price"],
            context=ExecutionContext(
                workers=2,
                fault_plan=FaultPlan(seed=5, kill_ranges=(2,), sticky=True),
                fault_policy=FaultPolicy(
                    on_fault="degrade", retries=1, backoff_s=0.0)))
        assert degraded.backend.startswith(
            "serial (degraded: process[2] failed: ")
        _assert_identical(serial, degraded)

    def test_sticky_hang_hits_the_deadline(self, packed):
        __, table = packed
        started = time.monotonic()
        with pytest.raises(ScanTimeoutError, match="deadline"):
            scan_table(
                table, PREDICATES,
                context=ExecutionContext(
                    workers=2,
                    fault_plan=FaultPlan(
                        seed=6, hang_ranges=(0,), hang_s=60.0, sticky=True),
                    fault_policy=FaultPolicy(deadline_s=1.0)))
        # the hung straggler was killed, not waited out
        assert time.monotonic() - started < 30.0
        good = scan_table(table, PREDICATES, context=ExecutionContext(workers=2))
        assert good.backend == "process[2]"

    def test_deadline_is_not_degraded_away(self, packed):
        # Degrading after the deadline would spend budget the policy already
        # declared exhausted; the timeout must surface even under "degrade".
        __, table = packed
        with pytest.raises(ScanTimeoutError):
            scan_table(
                table, PREDICATES,
                context=ExecutionContext(
                    workers=2,
                    fault_plan=FaultPlan(
                        seed=7, hang_ranges=(0,), hang_s=60.0, sticky=True),
                    fault_policy=FaultPolicy(
                        on_fault="degrade", deadline_s=1.0)))

    def test_no_leaked_workers_after_shutdown(self, packed):
        __, table = packed
        scan_table(table, PREDICATES, context=ExecutionContext(workers=2))
        parallel.shutdown_pools()
        deadline = time.monotonic() + 10.0
        while _scan_workers() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _scan_workers() == []


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """Eight ranges of 16 384 rows: the arrays of every live one (positions
    and a column, 8 B each per row) pass ``SPOOL_THRESHOLD``, so results
    come back through the pool's spool directory, not the pipe."""
    rng = np.random.default_rng(24)
    rows = 8 * 16_384
    table = Table.from_pydict(
        {"qty": rng.integers(0, 1 << 9, rows).astype(np.int64),
         "price": (np.cumsum(rng.integers(-3, 4, rows)) + 5_000).astype(np.int64)},
        schemes={"qty": NullSuppression(),
                 "price": FrameOfReference(segment_length=128)},
        chunk_size=16_384)
    path = tmp_path_factory.mktemp("chaos-wide") / "wide.rpk"
    write_packed_table(table, path)
    yield open_packed_table(path).table
    parallel.shutdown_pools()


def _settles_empty(directory, within=10.0):
    """A straggler removes what it wrote for a query that ended meanwhile,
    promptly but not atomically: poll, do not run another query."""
    deadline = time.monotonic() + within
    while os.listdir(directory) and time.monotonic() < deadline:
        time.sleep(0.02)
    return os.listdir(directory) == []


class TestSpoolHygiene:
    """Whatever happens to a query, nothing of it stays in the spool: the
    directory is empty between queries and gone with the pool."""

    WIDE = [Between("qty", 16, 400)]

    def _scan(self, table, **context):
        return scan_table(table, self.WIDE, materialize=["price"],
                          context=ExecutionContext(workers=2, **context))

    def test_results_are_spooled_and_nothing_stays(self, wide):
        serial = scan_table(wide, self.WIDE, materialize=["price"])
        per_range = np.bincount(serial.selection.positions.values // 16_384)
        assert per_range.size == 8  # ... each with 16 B a row, so each spools
        assert per_range.min() * 16 > parallel.SPOOL_THRESHOLD
        result = self._scan(wide)
        assert result.backend == "process[2]"
        _assert_identical(serial, result)
        spool = parallel.get_pool(2)._spool
        assert os.path.basename(spool).startswith("repro-pool-")
        assert os.listdir(spool) == []

    def test_nothing_stays_after_a_worker_kill(self, wide):
        serial = scan_table(wide, self.WIDE, materialize=["price"])
        healed = self._scan(wide, fault_plan=FaultPlan(seed=1, kill_ranges=(2,)))
        _assert_identical(serial, healed)
        assert healed.stats.workers_respawned >= 1
        assert _settles_empty(parallel.get_pool(2)._spool)

    def test_a_truncated_spool_file_is_retried_and_nothing_stays(self, wide):
        serial = scan_table(wide, self.WIDE, materialize=["price"])
        retried = self._scan(
            wide, fault_plan=FaultPlan(seed=3, corrupt_result_ranges=(1, 5)))
        _assert_identical(serial, retried)
        assert retried.stats.ranges_retried >= 2
        assert retried.stats.workers_respawned == 0
        assert os.listdir(parallel.get_pool(2)._spool) == []
        # ... and past its retry budget the cause names the file's size.
        with pytest.raises(ParallelExecutionError, match="spool file of"):
            self._scan(wide,
                       fault_plan=FaultPlan(seed=3, corrupt_result_ranges=(1,),
                                            sticky=True),
                       fault_policy=FaultPolicy(retries=1, backoff_s=0.0))

    def test_duplicates_after_a_heal_are_dropped_and_nothing_stays(self, wide):
        """Range 0 hangs past the heal that range 1's kill triggers, so every
        unfinished range runs twice: first result wins, the second copy's
        file is unlinked unopened — by the coordinator while the query lives,
        by the straggler itself after."""
        serial = scan_table(wide, self.WIDE, materialize=["price"])
        healed = self._scan(wide, fault_plan=FaultPlan(
            seed=9, hang_ranges=(0,), hang_s=1.6, kill_ranges=(1,)))
        _assert_identical(serial, healed)
        assert healed.stats.workers_respawned >= 1
        assert healed.stats.ranges_retried >= 2
        assert _settles_empty(parallel.get_pool(2)._spool)
        _assert_identical(serial, self._scan(wide))  # the pool is fine

    def test_the_directory_goes_with_the_pool(self, wide):
        self._scan(wide)
        spool = parallel.get_pool(2)._spool
        with pytest.raises(ScanTimeoutError):
            self._scan(wide,
                       fault_plan=FaultPlan(seed=6, hang_ranges=(0,),
                                            hang_s=60.0, sticky=True),
                       fault_policy=FaultPolicy(deadline_s=1.0))
        assert not os.path.exists(spool)  # _abandon
        self._scan(wide)
        replacement = parallel.get_pool(2)._spool
        assert replacement != spool and os.path.isdir(replacement)
        parallel.shutdown_pools()
        assert not os.path.exists(replacement)


class TestReadFaultInjection:
    def test_bitflip_is_caught_by_the_digest_check(self, fresh_packed):
        __, table = fresh_packed
        with pytest.raises(CorruptionError, match="integrity check"):
            scan_table(
                table, PREDICATES, materialize=["price"],
                context=ExecutionContext(
                    fault_plan=FaultPlan(seed=8, bitflip_p=1.0)))

    def test_truncated_read_raises_a_storage_error(self, fresh_packed):
        __, table = fresh_packed
        with pytest.raises(StorageError, match="injected truncated read"):
            scan_table(
                table, PREDICATES, materialize=["price"],
                context=ExecutionContext(
                    fault_plan=FaultPlan(seed=9, truncate_p=1.0)))

    def test_full_bitflip_quarantines_every_chunk(self, fresh_packed):
        __, table = fresh_packed
        # Zone maps would skip chunks without ever reading their (corrupt)
        # segments; disable them so every chunk range is actually touched.
        result = scan_table(
            table, PREDICATES, materialize=["price"],
            context=ExecutionContext(
                use_zone_maps=False,
                fault_plan=FaultPlan(seed=10, bitflip_p=1.0),
                fault_policy=FaultPolicy(on_corruption="quarantine")))
        assert result.selection.positions.values.size == 0
        assert result.columns["price"].values.size == 0
        assert result.columns["price"].values.dtype == np.int64
        assert result.stats.chunks_quarantined == NUM_ROWS // CHUNK_SIZE
        assert result.stats.fault_events >= NUM_ROWS // CHUNK_SIZE

    def test_read_faults_reach_pool_workers(self, fresh_packed):
        __, table = fresh_packed
        with pytest.raises(CorruptionError, match="integrity check"):
            scan_table(
                table, PREDICATES, materialize=["price"],
                context=ExecutionContext(
                    workers=2, fault_plan=FaultPlan(seed=11, bitflip_p=1.0)))


class TestPredicateLessScans:
    """A scan without conjuncts runs the same range loop as any other, so
    the fault layer reaches it: plan, quarantine policy and deadline."""

    def test_fault_plan_is_installed(self, fresh_packed):
        __, table = fresh_packed
        with pytest.raises(CorruptionError, match="integrity check"):
            scan_table(
                table, [], materialize=["price"],
                context=ExecutionContext(
                    fault_plan=FaultPlan(seed=8, bitflip_p=1.0)))

    def test_quarantine_skips_the_corrupt_ranges(self, fresh_packed):
        data, table = fresh_packed
        result = scan_table(
            table, [], materialize=["price"],
            context=ExecutionContext(
                fault_plan=FaultPlan(seed=3, bitflip_p=0.2),
                fault_policy=FaultPolicy(on_corruption="quarantine")))
        quarantined = result.stats.chunks_quarantined
        assert 0 < quarantined < NUM_ROWS // CHUNK_SIZE
        kept = result.selection.positions.values
        assert kept.size == NUM_ROWS - quarantined * CHUNK_SIZE
        assert np.array_equal(result.columns["price"].values,
                              data["price"][kept])

    def test_deadline_applies(self, fresh_packed):
        __, table = fresh_packed
        with pytest.raises(ScanTimeoutError, match="deadline"):
            scan_table(
                table, [], materialize=["price"],
                context=ExecutionContext(
                    fault_plan=FaultPlan(seed=14, slow_read_p=1.0,
                                         slow_read_s=0.05),
                    fault_policy=FaultPolicy(deadline_s=0.2)))

    def test_dataset_query_without_filter_quarantines(self, fresh_packed):
        data, table = fresh_packed
        result = (dataset(table).select("price")
                  .with_fault_injection(FaultPlan(seed=3, bitflip_p=0.2))
                  .with_fault_policy(on_corruption="quarantine")
                  .collect())
        quarantined = result.scan_stats.chunks_quarantined
        assert quarantined > 0
        assert result.row_count == NUM_ROWS - quarantined * CHUNK_SIZE


class TestOnDiskCorruption:
    ROWS = 4_096
    CHUNK = 512
    BAD_CHUNK = 3

    @pytest.fixture()
    def corrupted(self, tmp_path, packed_editor):
        values = (np.arange(self.ROWS, dtype=np.int64) * 7919) % 1_000
        table = Table.from_pydict({"v": values},
                                  schemes={"v": NullSuppression()},
                                  chunk_size=self.CHUNK)
        path = tmp_path / "damaged.rpk"
        write_packed_table(table, path)
        packed_editor.flip_segment_byte(path, "v", self.BAD_CHUNK)
        yield values, path
        parallel.shutdown_pools()

    # Full decompression so the damaged segment is guaranteed to be read.
    FLAGS = dict(use_pushdown=False, use_zone_maps=False,
                 use_compressed_exec=False)
    QUARANTINE = FaultPolicy(on_corruption="quarantine")

    def test_corruption_error_names_the_location(self, corrupted):
        __, path = corrupted
        table = open_packed_table(path).table
        with pytest.raises(CorruptionError) as excinfo:
            scan_table(table, [Between("v", 0, 999)], materialize=["v"],
                       context=ExecutionContext(**self.FLAGS))
        message = str(excinfo.value)
        assert "damaged.rpk" in message
        assert "column 'v'" in message
        assert f"chunk @ row {self.BAD_CHUNK * self.CHUNK}" in message
        assert "crc32" in message

    def test_quarantine_skips_exactly_the_corrupt_chunk(self, corrupted):
        values, path = corrupted
        table = open_packed_table(path).table
        result = scan_table(
            table, [Between("v", 0, 999)], materialize=["v"],
            context=ExecutionContext(fault_policy=self.QUARANTINE,
                                     **self.FLAGS))
        lost = range(self.BAD_CHUNK * self.CHUNK,
                     (self.BAD_CHUNK + 1) * self.CHUNK)
        expected = np.setdiff1d(np.arange(self.ROWS), np.asarray(lost))
        assert np.array_equal(result.selection.positions.values, expected)
        assert np.array_equal(result.columns["v"].values, values[expected])
        assert result.stats.chunks_quarantined == 1
        assert result.stats.fault_events >= 1

    def test_quarantine_through_the_process_pool(self, corrupted):
        values, path = corrupted
        table = open_packed_table(path).table
        result = scan_table(
            table, [Between("v", 0, 999)], materialize=["v"],
            context=ExecutionContext(workers=2, fault_policy=self.QUARANTINE,
                                     **self.FLAGS))
        lost = range(self.BAD_CHUNK * self.CHUNK,
                     (self.BAD_CHUNK + 1) * self.CHUNK)
        expected = np.setdiff1d(np.arange(self.ROWS), np.asarray(lost))
        assert np.array_equal(result.selection.positions.values, expected)
        assert np.array_equal(result.columns["v"].values, values[expected])
        assert result.stats.chunks_quarantined == 1

    def test_corruption_error_is_typed_across_the_process_boundary(
            self, corrupted):
        __, path = corrupted
        table = open_packed_table(path).table
        with pytest.raises(CorruptionError, match="integrity check"):
            scan_table(table, [Between("v", 0, 999)], materialize=["v"],
                       context=ExecutionContext(workers=2, **self.FLAGS))


class TestAggregateOperandFaults:
    """Compressed aggregates read their operand columns inside the range
    executor, so quarantine, the fault plan and the deadline cover those
    reads on the serial backend exactly as on the pool."""

    BAD_CHUNK = 5
    LOST = slice(BAD_CHUNK * CHUNK_SIZE, (BAD_CHUNK + 1) * CHUNK_SIZE)

    @pytest.fixture()
    def damaged(self, tmp_path, packed_editor):
        """``price`` — read by the aggregates only, never by the filter —
        has one corrupt segment in one chunk."""
        data, table = _build_table()
        path = tmp_path / "operand.rpk"
        write_packed_table(table, path)
        packed_editor.flip_segment_byte(path, "price", self.BAD_CHUNK)
        yield data, path
        parallel.shutdown_pools()

    @staticmethod
    def _query(path, workers):
        ds = dataset(open_packed_table(path).table) \
            .filter(col("qty").between(16, 400))
        return ds if workers == 1 \
            else ds.with_backend("process", workers=workers)

    SCALARS = (col("price").sum().alias("s"), col("price").min().alias("lo"),
               col("qty").count().alias("n"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quarantine_skips_the_corrupt_operand_chunk(self, damaged, workers):
        data, path = damaged
        survives = (data["qty"] >= 16) & (data["qty"] <= 400)
        survives[self.LOST] = False
        price, cat = data["price"][survives], data["cat"][survives]

        scalar = (self._query(path, workers)
                  .with_fault_policy(on_corruption="quarantine")
                  .agg(*self.SCALARS).collect())
        assert scalar.scalars == {"s": int(price.sum()), "lo": int(price.min()),
                                  "n": int(survives.sum())}
        assert scalar.row_count == int(survives.sum())
        assert scalar.scan_stats.chunks_quarantined == 1

        grouped = (self._query(path, workers)
                   .with_fault_policy(on_corruption="quarantine")
                   .group_by("cat")
                   .agg(col("price").sum().alias("s"),
                        col("qty").count().alias("n")).collect())
        keys = np.unique(cat)
        assert np.array_equal(grouped.columns["cat"].values, keys)
        assert np.array_equal(grouped.columns["s"].values,
                              [price[cat == key].sum() for key in keys])
        assert np.array_equal(grouped.columns["n"].values,
                              [(cat == key).sum() for key in keys])
        assert grouped.columns["s"].values.dtype == np.int64
        assert grouped.row_count == int(survives.sum())
        assert grouped.scan_stats.chunks_quarantined == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_policy_raises_the_located_error(self, damaged, workers):
        __, path = damaged
        with pytest.raises(CorruptionError) as excinfo:
            self._query(path, workers).agg(*self.SCALARS).collect()
        message = str(excinfo.value)
        assert "operand.rpk" in message and "column 'price'" in message
        assert f"chunk @ row {self.BAD_CHUNK * CHUNK_SIZE}" in message

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_unread_chunk_cannot_be_seen_as_corrupt(self, tmp_path, packed_editor, workers):
        """``qty`` has one corrupt segment, in a chunk the selection covers
        whole: its maximum is that chunk's zone map, which reads nothing of
        the chunk, so — like a pruned chunk — it is never found corrupt and
        nothing is quarantined; its sum reads the chunk and names it."""
        data, table = _build_table()
        path = tmp_path / "unread.rpk"
        write_packed_table(table, path)
        packed_editor.flip_segment_byte(path, "qty", self.BAD_CHUNK)
        low, high = (int(day) for day in data["date"][self.LOST][[0, -1]])
        mask = (data["date"] >= low) & (data["date"] <= high)
        ds = dataset(open_packed_table(path).table).filter(col("date").between(low, high))
        if workers > 1:
            ds = ds.with_backend("process", workers=workers)
        result = ds.with_fault_policy(on_corruption="quarantine") \
            .agg(col("qty").max().alias("m")).collect()
        assert result.scalars == {"m": int(data["qty"][mask].max())}
        assert result.row_count == int(mask.sum())
        assert result.scan_stats.chunks_quarantined == 0
        with pytest.raises(CorruptionError) as excinfo:
            ds.agg(col("qty").sum().alias("s")).collect()
        message = str(excinfo.value)
        assert "unread.rpk" in message and "column 'qty'" in message
        assert f"chunk @ row {self.BAD_CHUNK * CHUNK_SIZE}" in message

    def test_read_faults_fire_on_serial_operand_reads(self, fresh_packed):
        __, table = fresh_packed
        base = dataset(table).filter(col("qty").between(16, 400))
        # Load the filter column cleanly: the hook fires on segment loads,
        # so from here on only the operand column's reads can be faulted.
        base.agg(col("qty").count().alias("n")).collect()
        faulted = base.with_fault_injection(FaultPlan(seed=9, truncate_p=1.0))
        assert faulted.agg(col("qty").count().alias("n")).collect()
        with pytest.raises(StorageError, match="injected truncated read"):
            faulted.agg(col("price").sum().alias("s")).collect()

    def test_deadline_covers_serial_operand_reads(self, fresh_packed):
        __, table = fresh_packed
        base = dataset(table).filter(col("qty").between(16, 400))
        base.agg(col("qty").count().alias("n")).collect()
        with pytest.raises(ScanTimeoutError, match="deadline"):
            (base.with_fault_injection(
                FaultPlan(seed=14, slow_read_p=1.0, slow_read_s=0.05))
             .with_fault_policy(deadline_s=0.2)
             .agg(col("price").sum().alias("s")).collect())


class TestEnvironmentHook:
    def test_env_plan_injects_into_unconfigured_scans(self, packed,
                                                      monkeypatch):
        __, table = packed
        monkeypatch.delenv(ENV_VAR, raising=False)
        serial = scan_table(table, PREDICATES, materialize=["price"])
        monkeypatch.setenv(
            ENV_VAR, json.dumps({"seed": 12, "exception_ranges": [0]}))
        chaotic = scan_table(table, PREDICATES, materialize=["price"],
                             context=ExecutionContext(workers=2))
        _assert_identical(serial, chaotic)
        assert chaotic.stats.ranges_retried >= 1

    def test_env_plan_roundtrip(self, monkeypatch):
        plan = FaultPlan(seed=13, worker_kill_p=0.25, kill_ranges=(1, 4),
                         sticky=True)
        monkeypatch.setenv(ENV_VAR, json.dumps(plan.to_spec()))
        assert plan_from_env() == plan

    def test_env_plan_malformed_json_fails_loudly(self, packed, monkeypatch):
        __, table = packed
        monkeypatch.setenv(ENV_VAR, "{not json")
        with pytest.raises(QueryError, match="not valid JSON"):
            scan_table(table, PREDICATES)

    def test_env_plan_unknown_field_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, json.dumps({"kill_probability": 0.5}))
        with pytest.raises(QueryError, match="unknown FaultPlan field"):
            plan_from_env()

    def test_explicit_plan_shadows_the_env(self, packed, monkeypatch):
        __, table = packed
        monkeypatch.setenv(ENV_VAR, "{not json")  # would raise if consulted
        result = scan_table(
            table, PREDICATES,
            context=ExecutionContext(fault_plan=FaultPlan()))
        assert result.selection.positions.values.size > 0


class TestConfigurationValidation:
    def test_policy_rejects_unknown_modes(self):
        with pytest.raises(QueryError, match="on_corruption"):
            FaultPolicy(on_corruption="ignore")
        with pytest.raises(QueryError, match="on_fault"):
            FaultPolicy(on_fault="retry-forever")

    def test_policy_rejects_bad_numbers(self):
        with pytest.raises(QueryError, match="retries"):
            FaultPolicy(retries=-1)
        with pytest.raises(QueryError, match="backoff_s"):
            FaultPolicy(backoff_s=-0.5)
        with pytest.raises(QueryError, match="deadline_s"):
            FaultPolicy(deadline_s=0.0)

    def test_plan_rejects_bad_probabilities(self):
        with pytest.raises(QueryError, match="bitflip_p"):
            FaultPlan(bitflip_p=1.5)
        with pytest.raises(QueryError, match="worker_kill_p"):
            FaultPlan(worker_kill_p=-0.1)

    def test_plan_spec_roundtrip(self):
        plan = FaultPlan(seed=21, bitflip_p=0.125, kill_ranges=(3,),
                         hang_s=2.0)
        assert FaultPlan.from_spec(plan.to_spec()) == plan
        assert FaultPlan.from_spec({}) == FaultPlan()

    def test_without_worker_faults_keeps_read_faults(self):
        plan = FaultPlan(seed=22, bitflip_p=0.5, worker_kill_p=0.5,
                         kill_ranges=(1,), hang_ranges=(2,))
        stripped = plan.without_worker_faults()
        assert stripped.has_read_faults
        assert not stripped.has_worker_faults
        assert stripped.bitflip_p == 0.5

    def test_worker_faults_heal_on_retry_unless_sticky(self):
        plan = FaultPlan(seed=23, kill_ranges=(4,))
        assert plan.worker_action(4, attempt=0) == "kill"
        assert plan.worker_action(4, attempt=1) is None
        sticky = FaultPlan(seed=23, kill_ranges=(4,), sticky=True)
        assert sticky.worker_action(4, attempt=3) == "kill"

    def test_decisions_are_deterministic(self):
        one = FaultPlan(seed=24, worker_kill_p=0.5)
        two = FaultPlan(seed=24, worker_kill_p=0.5)
        assert [one.worker_action(i, 0) for i in range(64)] \
            == [two.worker_action(i, 0) for i in range(64)]
        assert any(one.worker_action(i, 0) == "kill" for i in range(64))
        assert any(one.worker_action(i, 0) is None for i in range(64))


class TestDatasetFaultApi:
    def test_with_fault_policy_is_immutable_and_explains(self, packed):
        __, table = packed
        base = dataset(table).filter(col("qty").between(16, 400))
        tuned = base.with_fault_policy(on_corruption="quarantine", retries=5)
        assert "fault-policy=[on_corruption=quarantine" in tuned.explain()
        assert "retries=5" in tuned.explain()
        assert "fault-policy" not in base.explain()

    def test_with_fault_injection_accepts_plan_or_dict(self, packed):
        __, table = packed
        base = dataset(table)
        assert "fault-injection=on" in \
            base.with_fault_injection(FaultPlan(seed=1)).explain()
        assert "fault-injection=on" in \
            base.with_fault_injection({"seed": 1, "kill_ranges": [0]}).explain()
        assert "fault-injection" not in base.explain()

    def test_aggregate_survives_a_worker_kill(self, packed):
        __, table = packed
        base = dataset(table).filter(col("qty").between(16, 400))
        aggregates = (col("price").sum().alias("s"),
                      col("qty").count().alias("n"))
        serial = base.agg(*aggregates).collect()
        chaotic = (base.with_backend("process", workers=2)
                   .with_fault_injection(FaultPlan(seed=31, kill_ranges=(1,)))
                   .agg(*aggregates).collect())
        assert chaotic.scalars["s"] == serial.scalars["s"]
        assert chaotic.scalars["n"] == serial.scalars["n"]
        assert chaotic.scan_stats.workers_respawned >= 1

    def test_aggregate_degrades_to_serial_under_sticky_kills(self, packed):
        __, table = packed
        base = dataset(table).filter(col("qty").between(16, 400))
        aggregates = (col("price").sum().alias("s"),
                      col("qty").count().alias("n"))
        serial = base.agg(*aggregates).collect()
        degraded = (base.with_backend("process", workers=2)
                    .with_fault_injection(
                        FaultPlan(seed=32, kill_ranges=(1,), sticky=True))
                    .with_fault_policy(on_fault="degrade", retries=1,
                                       backoff_s=0.0)
                    .agg(*aggregates).collect())
        assert degraded.scalars["s"] == serial.scalars["s"]
        assert degraded.scalars["n"] == serial.scalars["n"]

    def test_aggregate_raises_under_sticky_kills_by_default(self, packed):
        __, table = packed
        base = dataset(table).filter(col("qty").between(16, 400))
        with pytest.raises(ParallelExecutionError, match="dying workers"):
            (base.with_backend("process", workers=2)
             .with_fault_injection(
                 FaultPlan(seed=33, kill_ranges=(1,), sticky=True))
             .with_fault_policy(retries=1, backoff_s=0.0)
             .agg(col("price").sum().alias("s")).collect())

    def test_default_policy_is_shared_and_frozen(self):
        assert DEFAULT_FAULT_POLICY.on_corruption == "raise"
        assert DEFAULT_FAULT_POLICY.on_fault == "raise"
        with pytest.raises(Exception):
            DEFAULT_FAULT_POLICY.retries = 99  # frozen dataclass
