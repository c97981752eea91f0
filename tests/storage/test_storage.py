"""Tests for the storage substrate: statistics, chunks, stored columns, tables."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.errors import StorageError
from repro.schemes import Delta, NullSuppression, RunLengthEncoding
from repro.storage import (
    ColumnChunk,
    StoredColumn,
    Table,
    compute_statistics,
)


class TestStatistics:
    def test_basic(self, small_column):
        stats = compute_statistics(small_column)
        assert stats.count == 9
        assert stats.minimum == 5 and stats.maximum == 9
        assert stats.distinct_count == 3
        assert stats.run_count == 3
        assert not stats.is_sorted

    def test_sorted_detection(self):
        assert compute_statistics(Column([1, 2, 2, 3])).is_sorted

    def test_average_run_length(self, small_column):
        assert compute_statistics(small_column).average_run_length == pytest.approx(3.0)

    def test_distinct_fraction(self):
        stats = compute_statistics(Column([1, 1, 2, 2]))
        assert stats.distinct_fraction == pytest.approx(0.5)

    def test_bit_widths(self):
        stats = compute_statistics(Column([100, 107, 103]))
        assert stats.value_bits == 7
        assert stats.range_bits == 3
        assert stats.max_delta_bits >= 3

    @pytest.mark.parametrize("values", [
        np.array([-2**63, 2**63 - 1, -2**63, 0], dtype=np.int64),
        np.array([0, 2**64 - 1, 0], dtype=np.uint64),
    ])
    def test_delta_bits_do_not_wrap_at_dtype_limits(self, values):
        """A step across the whole domain needs 65 bits; wrapped int64
        arithmetic used to report 2, which let the advisor propose DELTA
        cascades for a column whose differences fit no stored width."""
        from repro.planner import default_candidates

        stats = compute_statistics(Column(values))
        assert stats.max_delta_bits == 65
        assert stats.max_delta_bits > stats.value_bits == 64
        assert not any(s.name.startswith("DELTA∘") for s in default_candidates(stats))

    def test_statistics_are_taken_once_per_column(self, small_column):
        assert compute_statistics(small_column) is compute_statistics(small_column)

    def test_distinct_count_of_unsorted_and_sorted_data(self, rng):
        values = rng.integers(-50, 50, 5_000)
        for column in (Column(values), Column(np.sort(values))):
            assert compute_statistics(column).distinct_count == np.unique(values).size

    def test_empty_column(self):
        stats = compute_statistics(Column.empty())
        assert stats.count == 0 and stats.minimum is None

    def test_zone_map_tests(self):
        stats = compute_statistics(Column([10, 20, 30]))
        assert stats.overlaps_range(15, 25)
        assert not stats.overlaps_range(31, 99)
        assert stats.contained_in_range(10, 30)
        assert not stats.contained_in_range(11, 30)

    def test_requires_column(self):
        with pytest.raises(StorageError):
            compute_statistics([1, 2, 3])


class TestColumnChunk:
    def test_from_column_default_identity(self, small_column):
        chunk = ColumnChunk.from_column(small_column)
        assert chunk.encoding == "ID"
        assert chunk.row_count == len(small_column)
        assert chunk.decompress().equals(small_column)

    def test_from_column_with_scheme(self, runs_data):
        chunk = ColumnChunk.from_column(runs_data, RunLengthEncoding())
        assert chunk.encoding == "RLE"
        assert chunk.compressed_size_bytes() < chunk.uncompressed_size_bytes()
        assert chunk.decompress().equals(runs_data)

    def test_row_range(self, small_column):
        chunk = ColumnChunk.from_column(small_column, row_offset=100)
        assert list(chunk.row_range()) == list(range(100, 109))

    def test_statistics_attached(self, small_column):
        chunk = ColumnChunk.from_column(small_column)
        assert chunk.statistics.minimum == 5

    def test_empty_rejected(self):
        with pytest.raises(StorageError):
            ColumnChunk.from_column(Column.empty())


class TestStoredColumn:
    def test_chunking(self, runs_data):
        stored = StoredColumn.from_column(runs_data, scheme=RunLengthEncoding(),
                                          chunk_size=1000)
        assert stored.num_chunks == (len(runs_data) + 999) // 1000
        assert stored.row_count == len(runs_data)
        assert stored.materialize().equals(runs_data)

    def test_per_chunk_scheme_chooser(self, runs_data):
        calls = []

        def chooser(piece):
            calls.append(len(piece))
            return NullSuppression()

        stored = StoredColumn.from_column(runs_data, scheme=chooser, chunk_size=2048)
        assert len(calls) == stored.num_chunks
        assert set(stored.encodings()) == {"NS"}
        assert stored.materialize().equals(runs_data)

    def test_compression_ratio(self, dates_data):
        stored = StoredColumn.from_column(dates_data, scheme=RunLengthEncoding(),
                                          chunk_size=4096)
        assert stored.compression_ratio() > 4

    def test_materialize_rows(self, runs_data):
        stored = StoredColumn.from_column(runs_data, scheme=Delta(), chunk_size=512)
        positions = Column(np.array([0, 5, 700, 1500, len(runs_data) - 1]))
        out = stored.materialize_rows(positions)
        expected = runs_data.values[positions.values]
        assert np.array_equal(out.values, expected)

    def test_materialize_rows_out_of_range(self, runs_data):
        stored = StoredColumn.from_column(runs_data, chunk_size=512)
        with pytest.raises(StorageError):
            stored.materialize_rows(Column([len(runs_data)]))

    def test_zone_maps_are_the_chunks_statistics_as_arrays(self, runs_data):
        stored = StoredColumn.from_column(runs_data, chunk_size=512)
        starts, counts, minima, maxima, totals = stored.zone_maps()
        assert stored.zone_maps() is stored.zone_maps()  # built once, kept
        assert starts.tolist() == [chunk.row_offset for chunk in stored.chunks]
        assert counts.sum() == len(runs_data) and minima.dtype == stored.dtype
        assert minima.tolist() == [chunk.statistics.minimum for chunk in stored.chunks]
        assert maxima.tolist() == [chunk.statistics.maximum for chunk in stored.chunks]
        assert totals.dtype == np.int64
        assert totals.tolist() == [chunk.statistics.total for chunk in stored.chunks]
        assert totals.sum() == runs_data.values.sum()
        floats = StoredColumn.from_column(Column(np.linspace(0.0, 1.0, 64)), chunk_size=16)
        assert floats.zone_maps()[2:] == (None, None, None)  # rounded bounds decide nothing
        assert {chunk.statistics.total for chunk in floats.chunks} == {0}

    def test_invalid_chunk_size(self, runs_data):
        with pytest.raises(StorageError):
            StoredColumn.from_column(runs_data, chunk_size=0)

    def test_empty_column_rejected(self):
        with pytest.raises(StorageError):
            StoredColumn.from_column(Column.empty())

    def test_dtype_preserved(self):
        col = Column(np.array([1, 2, 3, 4], dtype=np.uint16), name="u16")
        stored = StoredColumn.from_column(col, scheme=NullSuppression(), chunk_size=2)
        assert stored.materialize().dtype == np.uint16


class TestTable:
    @pytest.fixture
    def table(self, dates_data, runs_data):
        n = min(len(dates_data), len(runs_data))
        return Table.from_columns(
            {"ship_date": Column(dates_data.values[:n], name="ship_date"),
             "quantity": Column(runs_data.values[:n], name="quantity")},
            schemes={"ship_date": RunLengthEncoding(),
                     "quantity": NullSuppression()},
            chunk_size=2048,
        )

    def test_row_count_and_columns(self, table):
        assert table.row_count > 0
        assert set(table.column_names) == {"ship_date", "quantity"}
        assert "ship_date" in table and "missing" not in table

    def test_unknown_column(self, table):
        with pytest.raises(StorageError):
            table.column("missing")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(StorageError):
            Table.from_columns({"a": Column([1, 2]), "b": Column([1])})

    def test_empty_table_rejected(self):
        with pytest.raises(StorageError):
            Table({})

    def test_from_pydict(self):
        table = Table.from_pydict({"a": [1, 2, 3], "b": [4, 5, 6]})
        assert table.row_count == 3
        assert table.materialize()["b"].to_pylist() == [4, 5, 6]

    def test_compression_accounting(self, table):
        assert table.compressed_size_bytes() < table.uncompressed_size_bytes()
        assert table.compression_ratio() > 1

    def test_summary_mentions_columns_and_encodings(self, table):
        text = table.summary()
        assert "ship_date" in text and "RLE" in text

    def test_materialize_subset(self, table):
        out = table.materialize(["quantity"])
        assert set(out) == {"quantity"}
        assert len(out["quantity"]) == table.row_count

    def test_materialize_rows(self, table):
        positions = Column(np.array([0, 10, 100], dtype=np.int64))
        out = table.materialize_rows(positions)
        assert len(out["ship_date"]) == 3
        full = table.materialize()
        assert out["ship_date"][1] == full["ship_date"][10]
