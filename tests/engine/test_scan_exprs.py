"""Engine-level tests for scan_table's expression conjuncts and derived columns."""

import numpy as np
import pytest

from repro.api.expr import col
from repro.engine import ExecutionContext, shutdown_pools
from repro.engine.scan import scan_table
from repro.errors import QueryError
from repro.io.reader import open_packed_table
from repro.io.writer import write_packed_table
from repro.schemes import FrameOfReference, RunLengthEncoding
from repro.storage import Table


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    n = 10_000
    return {
        "a": np.sort(rng.integers(0, 200, n)).astype(np.int64),
        "b": rng.integers(0, 200, n).astype(np.int64),
        "c": rng.integers(1, 50, n).astype(np.int64),
    }


@pytest.fixture(scope="module")
def table(data):
    return Table.from_pydict(
        data,
        schemes={"a": RunLengthEncoding(),
                 "b": FrameOfReference(segment_length=64)},
        chunk_size=1024,
    )


class TestRowFilters:
    def test_multi_column_filter_alone(self, table, data):
        scan = scan_table(table, [col("a") < col("b")])
        expected = np.flatnonzero(data["a"] < data["b"])
        assert np.array_equal(scan.selection.positions.values, expected)
        assert scan.stats is not None
        assert scan.stats.predicates_total == 1

    def test_combined_with_native_predicates(self, table, data):
        scan = scan_table(table, [col("a").between(50, 150), col("b") + col("c") > col("a")])
        mask = ((data["a"] >= 50) & (data["a"] <= 150)
                & (data["b"] + data["c"] > data["a"]))
        assert np.array_equal(scan.selection.positions.values,
                              np.flatnonzero(mask))

    def test_zone_map_decision_skips_chunks(self, table):
        # `a` is sorted, so a < -1 is decided False per chunk from zone maps.
        scan = scan_table(table, [col("a") + col("b") < -1])
        assert len(scan.selection) == 0
        assert scan.stats.chunks_skipped > 0

    def test_short_circuit_after_empty_native(self, table):
        scan = scan_table(table, [col("a").between(10_000, 20_000), col("b") > col("c")])
        assert len(scan.selection) == 0
        assert scan.stats.chunks_short_circuited > 0

    def test_process_backend_bit_identical(self, table, tmp_path):
        path = write_packed_table(table, tmp_path / "exprs.rpk")
        packed = open_packed_table(path).table
        conjuncts = [col("b").between(20, 180), (col("a") * 2) % 7 < col("c")]
        derive = [("total", col("b") + col("c"))]
        serial = scan_table(packed, conjuncts, materialize=["c"], derive=derive)
        try:
            pooled = scan_table(packed, conjuncts, materialize=["c"], derive=derive,
                                context=ExecutionContext(workers=4))
        finally:
            shutdown_pools()
        assert pooled.backend == "process[4]"
        assert np.array_equal(serial.selection.positions.values,
                              pooled.selection.positions.values)
        for name in ("c", "total"):
            assert np.array_equal(serial.columns[name].values,
                                  pooled.columns[name].values)
        assert serial.stats.comparable() == pooled.stats.comparable()


class TestDerive:
    def test_derived_column_with_predicates(self, table, data):
        scan = scan_table(table, [col("a").between(30, 90)],
                          materialize=["c"],
                          derive=[("total", col("b") + col("c"))])
        mask = (data["a"] >= 30) & (data["a"] <= 90)
        assert np.array_equal(scan.columns["total"].values,
                              (data["b"] + data["c"])[mask])
        assert np.array_equal(scan.columns["c"].values, data["c"][mask])

    def test_derived_column_full_scan(self, table, data):
        scan = scan_table(table, [], derive=[
            ("double_b", col("b") * 2)])
        assert np.array_equal(scan.columns["double_b"].values, data["b"] * 2)

    def test_derive_reuses_materialized_buffers(self, table):
        """Deriving from an already-materialised column costs no extra
        decompression."""
        bare = scan_table(table, [col("a").between(0, 100)], materialize=["b"])
        derived = scan_table(table, [col("a").between(0, 100)], materialize=["b"],
                             derive=[("b2", col("b") * 2)])
        assert derived.stats.chunks_decompressed == bare.stats.chunks_decompressed

    def test_unknown_names_rejected(self, table):
        with pytest.raises(QueryError, match="unknown scan column"):
            scan_table(table, [], derive=[("x", col("nope"))])
        with pytest.raises(QueryError, match="unknown scan column"):
            scan_table(table, [col("nope") > col("a")])

    def test_duplicate_output_names_rejected(self, table):
        with pytest.raises(QueryError, match="duplicate scan output"):
            scan_table(table, [], materialize=["b"],
                       derive=[("b", col("c"))])


@pytest.fixture(scope="module")
def limit_tables(tmp_path_factory):
    """int64 and uint64 columns with runs at both limits and in between,
    in memory and packed."""
    rng = np.random.default_rng(5)
    picks = {dtype: np.array([info.min, info.min + 1, -1 if info.min else 2**63 - 1, 0, 2,
                              2**53 + 1, info.max - 1, info.max], dtype=dtype)
             for dtype, info in ((np.int64, np.iinfo(np.int64)),
                                 (np.uint64, np.iinfo(np.uint64)))}
    data = {"i": np.repeat(rng.choice(picks[np.int64], 64), 8),
            "u": np.repeat(rng.choice(picks[np.uint64], 64), 8)}
    memory = Table.from_pydict(data, chunk_size=64)
    path = write_packed_table(memory, tmp_path_factory.mktemp("isin") / "limits.rpk")
    return data, {"memory": memory, "packed": open_packed_table(path).table}


ISIN_CANDIDATES = {
    "i": [-1, 2**63 + 5, 2**53 + 1, np.int64(2), np.uint64(2**63 - 1), -2**63, 2.5],
    "u": [-1, 2**64 - 3, 2**53 + 1, 2**63 - 1, 2, 0.5],
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("storage", ["memory", "packed"])
@pytest.mark.parametrize("name", ["i", "u"])
def test_isin_is_the_or_of_equals_on_every_path(limit_tables, name, storage, workers):
    """Candidates the dtype does not hold exactly (beyond it, or not
    integral) match nothing, so ``isin`` selects the rows the OR of ``==``
    over its candidates selects — in memory and packed, serial and pooled."""
    from repro.api import dataset

    data, tables = limit_tables
    candidates = ISIN_CANDIDATES[name]
    either = col(name) == candidates[0]
    for candidate in candidates[1:]:
        either = either | (col(name) == candidate)
    want = np.flatnonzero(np.logical_or.reduce([data[name] == c for c in candidates]))
    assert 0 < want.size < data[name].size
    pooled = storage == "packed" and workers > 1
    try:
        for conjunct in (col(name).isin(candidates), either):
            query = (dataset(tables[storage]).filter(conjunct).select(name)
                     .with_backend("process" if workers > 1 else "serial", workers=workers))
            assert ("backend=process[2]" in query.explain()) == pooled
            result = query.collect()
            assert np.array_equal(result.columns[name].values, data[name][want])
    finally:
        shutdown_pools()
