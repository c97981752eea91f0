"""Concurrency stress for the scan pipeline and the compiled-plan caches.

These tests hammer the process-wide caches (plan/scheme compile cache in
:mod:`repro.columnar.compile.cache`, generated-column cache in the executor)
from many threads at once, starting from a *cold* cache so the compile race
itself is exercised, and assert the results stay bit-identical to serial
execution.  CI additionally runs this module as a dedicated
``-p no:cacheprovider`` invocation so the lock coverage runs even when the
rest of the suite is sharded or filtered.
"""

import threading

import numpy as np
import pytest

from repro.columnar.compile import cache_info, clear_caches
from repro.api import col, dataset
from repro.engine import ExecutionContext, scan_table
from repro.io import reader, save_table
from repro.schemes import (
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage import Table


@pytest.fixture()
def tables():
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
    return {
        name: (data[name],
               Table.from_pydict({name: data[name]}, schemes={name: scheme},
                                 chunk_size=2_048))
        for name, scheme in schemes.items()
    }


def _expected(values, lo, hi):
    return np.flatnonzero((values >= lo) & (values <= hi))


class TestConcurrentScans:
    def test_cold_cache_concurrent_scans_agree(self, tables, run_in_threads):
        """Many threads scanning distinct schemes through a cold compile
        cache: every scan must match its NumPy reference and the caches must
        stay consistent (no lost entries, no exceptions)."""
        clear_caches()
        barrier = threading.Barrier(8)

        jobs = []
        for name, (values, table) in tables.items():
            lo = int(np.percentile(values, 20))
            hi = int(np.percentile(values, 80))
            jobs.append((name, values, table, lo, hi))
        # duplicate jobs so several threads race on the *same* scheme key
        jobs = (jobs * 2)[:8]

        def scan(job, wait=True):
            name, values, table, lo, hi = job
            if wait:
                barrier.wait(timeout=30)
            result = scan_table(
                table, [col(name).between(lo, hi)],
                context=ExecutionContext(use_pushdown=False,
                                         use_zone_maps=False))
            return np.array_equal(result.selection.positions.values,
                                  _expected(values, lo, hi))

        # serial cold-cache baseline: how many compilations are *necessary*
        assert all(scan(job, wait=False) for job in jobs)
        serial_misses = cache_info()["plan_misses"]

        clear_caches()
        assert all(run_in_threads(scan, jobs))
        # the compile race must not duplicate work: racing threads on a cold
        # key compile exactly as often as a serial run would
        assert cache_info()["plan_misses"] == serial_misses

    def test_concurrent_queries_agree(self, tables, run_in_threads):
        """Whole queries (optimize, lower, scan, aggregate) issued from
        several caller threads at once, through a cold compile cache."""
        clear_caches()

        def run(job):
            name, (values, table) = job
            lo, hi = int(values.min()) + 1, int(values.max()) - 1
            result = (dataset(table).filter(col(name).between(lo, hi))
                      .agg(col(name).sum().alias("total")).collect())
            mask = (values >= lo) & (values <= hi)
            return result.scalars["total"] == int(values[mask].sum())

        assert all(run_in_threads(run, list(tables.items())))

    def test_threads_racing_to_touch_a_packed_chunk_see_one_form(
            self, tables, run_in_threads, tmp_path, monkeypatch):
        """A packed table builds a chunk's form tree and scheme on first
        touch.  Threads that all arrive before any has finished each build
        one, and all leave with the same pair — so the segment cache and the
        I/O account behind the form are shared, not duplicated."""
        values, memory = tables["for"]
        packed = reader.open_packed_table(save_table(memory, tmp_path / "racy.rpk"))
        chunk = packed.table.column("for").chunks[3]
        arrived = threading.Barrier(4)
        build_form, builds = reader._build_form, []

        def slow_build(descriptor, source, context=""):
            arrived.wait(timeout=30)  # nobody publishes before everyone builds
            builds.append(context)
            return build_form(descriptor, source, context)

        monkeypatch.setattr(reader, "_build_form", slow_build)
        touched = run_in_threads(lambda __: (chunk.form, chunk.scheme), range(4))
        assert len(builds) == 4
        assert len({id(form) for form, __ in touched}) == 1
        assert len({id(scheme) for __, scheme in touched}) == 1
        assert chunk.form is touched[0][0] and chunk.scheme is touched[0][1]
        monkeypatch.undo()

        lo, hi = int(np.percentile(values, 20)), int(np.percentile(values, 80))
        scans = run_in_threads(
            lambda __: scan_table(packed.table, [col("for").between(lo, hi)]), range(4))
        for scan in scans:
            assert np.array_equal(scan.selection.positions.values,
                                  _expected(values, lo, hi))
        # Every segment was charged to the account once, whoever mapped it.
        assert packed.bytes_mapped <= packed.file_size
