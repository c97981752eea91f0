"""Concurrency stress for the multiprocess scan backend and its pools.

The mirror of :mod:`tests.engine.test_scan_stress` for process workers:
many coordinator threads racing on the shared worker pools, repeated
back-to-back process scans, pool reuse across different packed files, and
determinism under work stealing.  CI runs this module as a dedicated
``-p no:cacheprovider`` invocation, like the thread-stress job.
"""

import numpy as np
import pytest

from repro.engine import ExecutionContext, parallel
from repro.engine.parallel import get_pool
from repro.engine.predicates import Between
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


def _expected(values, lo, hi):
    return np.flatnonzero((values >= lo) & (values <= hi))


class TestProcessPoolStress:
    def test_concurrent_coordinators_share_the_pool(self, packed_tables,
                                                    run_in_threads):
        """Several threads issuing process scans at once: the pool lock
        serialises queries, and every result matches its NumPy reference."""
        jobs = []
        for name, (values, table) in packed_tables.items():
            lo = int(np.percentile(values, 20))
            hi = int(np.percentile(values, 80))
            jobs.append((name, values, table, lo, hi))
        jobs = (jobs * 3)[:12]

        def scan(job):
            name, values, table, lo, hi = job
            result = scan_table(table, [Between(name, lo, hi)],
                                context=ExecutionContext(workers=2))
            assert result.backend == "process[2]"
            return np.array_equal(result.selection.positions.values,
                                  _expected(values, lo, hi))

        assert all(run_in_threads(scan, jobs))

    def test_one_pool_serves_many_packed_files(self, packed_tables):
        """The worker-side table cache is keyed by path: interleaving scans
        over five different packed files through one pool stays correct."""
        for __ in range(3):
            for name, (values, table) in packed_tables.items():
                lo, hi = int(values.min()) + 1, int(values.max()) - 1
                result = scan_table(table, [Between(name, lo, hi)],
                                    context=ExecutionContext(workers=2))
                assert np.array_equal(result.selection.positions.values,
                                      _expected(values, lo, hi))

    def test_repeated_process_scans_are_deterministic(self, packed_tables):
        """Work stealing must not leak into results: whatever worker takes
        whatever range, reassembly is in chunk order every time."""
        values, table = packed_tables["for"]
        reference = scan_table(table, [Between("for", 9_500, 10_500)])
        for __ in range(5):
            again = scan_table(table, [Between("for", 9_500, 10_500)],
                               context=ExecutionContext(workers=4))
            assert np.array_equal(reference.selection.positions.values,
                                  again.selection.positions.values)
            assert reference.stats.comparable() == again.stats.comparable()

    def test_pool_registry_reuses_and_shuts_down(self, packed_tables):
        values, table = packed_tables["ns"]
        scan_table(table, [Between("ns", 0, 1 << 11)],
                   context=ExecutionContext(workers=2))
        first = get_pool(2)
        assert first.healthy()
        scan_table(table, [Between("ns", 0, 1 << 11)],
                   context=ExecutionContext(workers=2))
        assert get_pool(2) is first  # healthy pools are reused, not respawned
        parallel.shutdown_pools()
        replacement = get_pool(2)
        assert replacement is not first and replacement.healthy()
