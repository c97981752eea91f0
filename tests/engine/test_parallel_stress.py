"""Concurrency stress for the multiprocess scan backend and its pools.

The mirror of :mod:`tests.engine.test_scan_stress` for process workers:
many coordinator threads racing on the shared worker pools, repeated
back-to-back process scans, pool reuse across different packed files, and
determinism under work stealing.  CI runs this module as a dedicated
``-p no:cacheprovider`` invocation, like the thread-stress job.
"""

import numpy as np
import pytest

from repro.api import col
from repro.engine import ExecutionContext, parallel
from repro.engine.parallel import get_pool
from repro.engine.scan import scan_table
from repro.io.reader import open_packed_table
from repro.io.writer import write_packed_table
from repro.schemes import (
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage import Table


@pytest.fixture(scope="module")
def packed_tables(tmp_path_factory):
    rng = np.random.default_rng(42)
    n = 32_768
    schemes = {
        "rle": RunLengthEncoding(),
        "for": FrameOfReference(segment_length=128),
        "dict": DictionaryEncoding(),
        "ns": NullSuppression(),
        "delta": Delta(),
    }
    data = {
        "rle": np.repeat(rng.integers(0, 300, n // 8), 8)[:n].astype(np.int64),
        "for": (np.cumsum(rng.integers(-2, 3, n)) + 10_000).astype(np.int64),
        "dict": rng.integers(0, 64, n).astype(np.int64),
        "ns": rng.integers(0, 1 << 12, n).astype(np.int64),
        "delta": np.sort(rng.integers(0, 1 << 20, n)).astype(np.int64),
    }
    root = tmp_path_factory.mktemp("parallel-stress")
    tables = {}
    for name, scheme in schemes.items():
        table = Table.from_pydict({name: data[name]}, schemes={name: scheme},
                                  chunk_size=2_048)
        path = root / f"{name}.rpk"
        write_packed_table(table, path)
        tables[name] = (data[name], open_packed_table(path).table)
    yield tables
    parallel.shutdown_pools()


@pytest.fixture(scope="module")
def wide_table(tmp_path_factory):
    """Sixteen ranges of 65 536 rows: a scan selecting most of them and
    materialising the column sends every range (≈ 1 MB of positions and
    values) through its worker's arena, not the pipe."""
    values = (np.cumsum(np.random.default_rng(7).integers(-2, 3, 1 << 20))
              + 10_000).astype(np.int64)
    table = Table.from_pydict({"wide": values},
                              schemes={"wide": FrameOfReference(segment_length=128)},
                              chunk_size=1 << 16)
    path = tmp_path_factory.mktemp("parallel-stress-wide") / "wide.rpk"
    write_packed_table(table, path)
    yield values, open_packed_table(path).table
    parallel.shutdown_pools()


def _expected(values, lo, hi):
    return np.flatnonzero((values >= lo) & (values <= hi))


def _wide_scan(values, table, lo, hi, workers=2):
    """A spooled process scan, checked value for value against NumPy."""
    result = scan_table(table, [col("wide").between(lo, hi)], materialize=["wide"],
                        context=ExecutionContext(workers=workers))
    assert result.backend == f"process[{workers}]"
    want = _expected(values, lo, hi)
    return (np.array_equal(result.selection.positions.values, want)
            and np.array_equal(result.columns["wide"].values, values[want]))


class TestProcessPoolStress:
    def test_concurrent_coordinators_share_the_pool(self, packed_tables, wide_table,
                                                    run_in_threads):
        """Several threads issuing process scans at once: the pool lock
        serialises queries, and every result matches its NumPy reference.
        The wide jobs come back through the workers' arenas, which the next
        query overwrites: their fold must finish before the lock is
        released."""
        jobs = []
        for name, (values, table) in packed_tables.items():
            lo = int(np.percentile(values, 20))
            hi = int(np.percentile(values, 80))
            jobs.append((name, values, table, lo, hi))
        values, table = wide_table
        jobs = (jobs * 3)[:12] + [("wide", values, table, int(np.percentile(values, q)),
                                   int(values.max())) for q in range(0, 12, 2)] * 2

        def scan(job):
            name, values, table, lo, hi = job
            if name == "wide":
                return _wide_scan(values, table, lo, hi)
            result = scan_table(table, [col(name).between(lo, hi)],
                                context=ExecutionContext(workers=2))
            assert result.backend == "process[2]"
            return np.array_equal(result.selection.positions.values,
                                  _expected(values, lo, hi))

        assert all(run_in_threads(scan, jobs))

    def test_small_large_small_results_on_one_pool(self, wide_table):
        """An arena grows (and the coordinator maps it again) under a large
        result, then serves smaller ones from its start: every result equals
        the serial scan's, bit for bit."""
        values, table = wide_table
        parallel.shutdown_pools()  # arenas start empty
        for lo, hi in [(10_300, 10_340), (int(values.min()), int(values.max())),
                       (10_300, 10_340), (10_000, 10_600), (10_300, 10_340)]:
            serial = scan_table(table, [col("wide").between(lo, hi)], materialize=["wide"])
            pooled = scan_table(table, [col("wide").between(lo, hi)], materialize=["wide"],
                                context=ExecutionContext(workers=2))
            assert pooled.backend == "process[2]"
            assert np.array_equal(serial.selection.positions.values,
                                  pooled.selection.positions.values)
            assert np.array_equal(serial.columns["wide"].values,
                                  pooled.columns["wide"].values)
            assert serial.stats.comparable() == pooled.stats.comparable()

    def test_one_pool_serves_many_packed_files(self, packed_tables):
        """The worker-side table cache is keyed by path: interleaving scans
        over five different packed files through one pool stays correct."""
        for __ in range(3):
            for name, (values, table) in packed_tables.items():
                lo, hi = int(values.min()) + 1, int(values.max()) - 1
                result = scan_table(table, [col(name).between(lo, hi)],
                                    context=ExecutionContext(workers=2))
                assert np.array_equal(result.selection.positions.values,
                                      _expected(values, lo, hi))

    def test_repeated_process_scans_are_deterministic(self, packed_tables):
        """Work stealing must not leak into results: whatever worker takes
        whatever range, reassembly is in chunk order every time."""
        values, table = packed_tables["for"]
        reference = scan_table(table, [col("for").between(9_500, 10_500)])
        for __ in range(5):
            again = scan_table(table, [col("for").between(9_500, 10_500)],
                               context=ExecutionContext(workers=4))
            assert np.array_equal(reference.selection.positions.values,
                                  again.selection.positions.values)
            assert reference.stats.comparable() == again.stats.comparable()

    def test_pool_registry_reuses_and_shuts_down(self, packed_tables):
        values, table = packed_tables["ns"]
        scan_table(table, [col("ns").between(0, 1 << 11)],
                   context=ExecutionContext(workers=2))
        first = get_pool(2)
        assert first.healthy()
        scan_table(table, [col("ns").between(0, 1 << 11)],
                   context=ExecutionContext(workers=2))
        assert get_pool(2) is first  # healthy pools are reused, not respawned
        parallel.shutdown_pools()
        replacement = get_pool(2)
        assert replacement is not first and replacement.healthy()
