"""Engine-level tests for scan_table's row-filter and derive extensions."""

import numpy as np
import pytest

from repro.api.expr import col
from repro.api.lower import ExprDerive, ExprRowFilter
from repro.engine import ExecutionContext, shutdown_pools
from repro.engine.predicates import Between
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


def _row_filter(expr, table):
    trusted = {name: name in table
               and np.issubdtype(table.column(name).dtype, np.integer)
               for name in expr.columns()}
    return ExprRowFilter(expr, trusted)


class TestRowFilters:
    def test_multi_column_filter_alone(self, table, data):
        scan = scan_table(table, [], row_filters=[
            _row_filter(col("a") < col("b"), table)])
        expected = np.flatnonzero(data["a"] < data["b"])
        assert np.array_equal(scan.selection.positions.values, expected)
        assert scan.stats is not None
        assert scan.stats.predicates_total == 1

    def test_combined_with_native_predicates(self, table, data):
        scan = scan_table(table, [Between("a", 50, 150)], row_filters=[
            _row_filter(col("b") + col("c") > col("a"), table)])
        mask = ((data["a"] >= 50) & (data["a"] <= 150)
                & (data["b"] + data["c"] > data["a"]))
        assert np.array_equal(scan.selection.positions.values,
                              np.flatnonzero(mask))

    def test_zone_map_decision_skips_chunks(self, table):
        # `a` is sorted, so a < -1 is decided False per chunk from zone maps.
        scan = scan_table(table, [], row_filters=[
            _row_filter(col("a") + col("b") < -1, table)])
        assert len(scan.selection) == 0
        assert scan.stats.chunks_skipped > 0

    def test_short_circuit_after_empty_native(self, table):
        scan = scan_table(table, [Between("a", 10_000, 20_000)], row_filters=[
            _row_filter(col("b") > col("c"), table)])
        assert len(scan.selection) == 0
        assert scan.stats.chunks_short_circuited > 0

    def test_process_backend_bit_identical(self, table, tmp_path):
        path = write_packed_table(table, tmp_path / "exprs.rpk")
        packed = open_packed_table(path).table
        row_filter = _row_filter((col("a") * 2) % 7 < col("c"), packed)
        derive = [("total", ExprDerive(col("b") + col("c")))]
        serial = scan_table(packed, [Between("b", 20, 180)],
                            row_filters=[row_filter], materialize=["c"],
                            derive=derive)
        try:
            pooled = scan_table(
                packed, [Between("b", 20, 180)], row_filters=[row_filter],
                materialize=["c"], derive=derive,
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
        scan = scan_table(table, [Between("a", 30, 90)],
                          materialize=["c"],
                          derive=[("total", ExprDerive(col("b") + col("c")))])
        mask = (data["a"] >= 30) & (data["a"] <= 90)
        assert np.array_equal(scan.columns["total"].values,
                              (data["b"] + data["c"])[mask])
        assert np.array_equal(scan.columns["c"].values, data["c"][mask])

    def test_derived_column_full_scan(self, table, data):
        scan = scan_table(table, [], derive=[
            ("double_b", ExprDerive(col("b") * 2))])
        assert np.array_equal(scan.columns["double_b"].values, data["b"] * 2)

    def test_derive_reuses_materialized_buffers(self, table):
        """Deriving from an already-materialised column costs no extra
        decompression."""
        bare = scan_table(table, [Between("a", 0, 100)], materialize=["b"])
        derived = scan_table(table, [Between("a", 0, 100)], materialize=["b"],
                             derive=[("b2", ExprDerive(col("b") * 2))])
        assert derived.stats.chunks_decompressed == bare.stats.chunks_decompressed

    def test_unknown_names_rejected(self, table):
        with pytest.raises(QueryError, match="unknown scan column"):
            scan_table(table, [], derive=[("x", ExprDerive(col("nope")))])
        with pytest.raises(QueryError, match="unknown scan column"):
            scan_table(table, [], row_filters=[
                _row_filter(col("nope") > col("a"), table)])

    def test_duplicate_output_names_rejected(self, table):
        with pytest.raises(QueryError, match="duplicate scan output"):
            scan_table(table, [], materialize=["b"],
                       derive=[("b", ExprDerive(col("c")))])
