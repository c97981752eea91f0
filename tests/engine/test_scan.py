"""Tests for the chunk-at-a-time scan scheduler (repro.engine.scan)."""

import numpy as np
import pytest

from repro.api import col, count, dataset
from repro.columnar import Column
from repro.engine import ExecutionContext, scan_table
from repro.engine.scan import gather_rows
from repro.errors import QueryError
from repro.schemes import (
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.schemes.registry import SCHEME_FACTORIES, make_scheme
from repro.storage import Table


@pytest.fixture(scope="module")
def plain_data():
    rng = np.random.default_rng(71)
    n = 16_384
    return {
        "date": np.sort(rng.integers(0, 400, n)).astype(np.int64),
        "price": (np.cumsum(rng.integers(-3, 4, n)) + 5_000).astype(np.int64),
        "qty": rng.integers(1, 50, n).astype(np.int64),
        "cat": rng.integers(0, 40, n).astype(np.int64),
    }


@pytest.fixture(scope="module")
def table(plain_data):
    return Table.from_pydict(
        plain_data,
        schemes={
            "date": RunLengthEncoding(),
            "price": FrameOfReference(segment_length=128),
            "qty": NullSuppression(),
            "cat": DictionaryEncoding(),
        },
        chunk_size=1024,
    )


def reference_positions(plain_data, predicates):
    mask = np.ones(len(next(iter(plain_data.values()))), dtype=bool)
    for name, lo, hi in predicates:
        mask &= (plain_data[name] >= lo) & (plain_data[name] <= hi)
    return np.flatnonzero(mask)


CONJUNCTION = [("date", 50, 320), ("price", 4_900, 5_250), ("qty", 5, 40)]


def build_predicates(spec):
    return [col(name).between(lo, hi) for name, lo, hi in spec]


NO_ZONE_MAPS = ExecutionContext(use_zone_maps=False)
DECOMPRESS_ONLY = ExecutionContext(use_pushdown=False, use_zone_maps=False)


class TestConjunctionScan:
    def test_matches_reference(self, table, plain_data):
        result = scan_table(table, build_predicates(CONJUNCTION))
        expected = reference_positions(plain_data, CONJUNCTION)
        assert np.array_equal(result.selection.positions.values, expected)
        assert result.stats.rows_selected == expected.size

    def test_matches_seed_semantics(self, table, plain_data):
        """The scheduler equals the seed path: one single-predicate pass per
        predicate, globally intersected."""
        combined = None
        for predicate in build_predicates(CONJUNCTION):
            positions = scan_table(table, [predicate]).selection.positions.values
            combined = positions if combined is None else np.intersect1d(
                combined, positions, assume_unique=True)
        result = scan_table(table, build_predicates(CONJUNCTION))
        assert np.array_equal(result.selection.positions.values, combined)

    def test_single_pass_materialisation(self, table, plain_data):
        result = scan_table(table, build_predicates(CONJUNCTION),
                            materialize=["cat", "price"])
        expected = reference_positions(plain_data, CONJUNCTION)
        assert np.array_equal(result.columns["cat"].values,
                              plain_data["cat"][expected])
        assert np.array_equal(result.columns["price"].values,
                              plain_data["price"][expected])

    def test_no_predicates_returns_all_rows(self, table, plain_data):
        result = scan_table(table, [], materialize=["qty"])
        assert len(result.selection) == table.row_count
        assert result.stats.predicates_total == 0
        assert result.stats.rows_selected == table.row_count
        assert result.stats.chunks_decompressed == table.column("qty").num_chunks
        assert np.array_equal(result.columns["qty"].values, plain_data["qty"])

    def test_unknown_materialize_column_rejected(self, table):
        with pytest.raises(QueryError):
            scan_table(table, [col("date").between(0, 10)], materialize=["nope"])


class TestMergedStats:
    def test_stats_cover_all_conjuncts(self, table):
        """Regression: the seed kept only the first predicate's ScanStats;
        the scheduler's counters must cover every conjunct."""
        spec = [("date", 0, 400), ("price", 0, 10_000)]  # nothing short-circuits
        merged = scan_table(table, build_predicates(spec),
                            context=NO_ZONE_MAPS).stats
        singles = [scan_table(table, [predicate], context=NO_ZONE_MAPS).stats
                   for predicate in build_predicates(spec)]
        assert merged.predicates_total == 2
        assert merged.chunks_total == sum(s.chunks_total for s in singles)
        assert merged.rows_scanned == sum(s.rows_scanned for s in singles)
        assert merged.chunks_pushed_down == sum(s.chunks_pushed_down for s in singles)
        assert merged.chunks_decompressed == sum(s.chunks_decompressed for s in singles)
        # pushdown counters from *both* columns (RLE runs and FOR segments)
        assert merged.pushdown.runs_total == sum(s.pushdown.runs_total for s in singles)
        assert merged.pushdown.segments_total == sum(
            s.pushdown.segments_total for s in singles)
        assert merged.pushdown.segments_total > 0 and merged.pushdown.runs_total > 0

    def test_query_reports_merged_stats(self, table):
        result = (dataset(table)
                  .filter(col("date").between(50, 320))
                  .filter(col("price").between(4_900, 5_250))
                  .agg(count())
                  .collect())
        assert result.scan_stats.predicates_total == 2
        assert result.scan_stats.chunks_total == 2 * table.column("date").num_chunks


class TestSharedDecompression:
    def test_one_decompression_pass_per_chunk(self, table, plain_data):
        """Three conjuncts over the same column decompress each chunk once."""
        spec = [("qty", 5, 45), ("qty", 1, 40), ("qty", 3, 44)]
        result = scan_table(table, build_predicates(spec),
                            context=DECOMPRESS_ONLY)
        num_chunks = table.column("qty").num_chunks
        assert result.stats.chunks_total == 3 * num_chunks
        assert result.stats.chunks_decompressed == num_chunks
        expected = reference_positions(plain_data, spec)
        assert np.array_equal(result.selection.positions.values, expected)

    def test_materialisation_reuses_predicate_decompression(self, table):
        """Projecting the filtered column costs no extra decompression."""
        bare = scan_table(table, [col("qty").between(5, 40)],
                          context=DECOMPRESS_ONLY)
        fused = scan_table(table, [col("qty").between(5, 40)],
                           materialize=["qty"], context=DECOMPRESS_ONLY)
        assert fused.stats.chunks_decompressed == bare.stats.chunks_decompressed


    def test_a_chunk_is_unpacked_at_most_once_per_range(self):
        """A pushable conjunct on a column the range also outputs or
        row-filters compares the decoded values where its kernel would have
        unpacked the chunk just to compare it (NS at a width the period
        kernel unpacks); whole-byte widths and filter-only columns keep the
        kernel."""
        rng = np.random.default_rng(5)
        n, chunk = 8_192, 1_024
        data = {"w10": rng.integers(0, 1 << 10, n), "w8": rng.integers(0, 1 << 8, n),
                "other": rng.integers(0, 1 << 10, n)}
        table = Table.from_pydict(data, schemes={name: NullSuppression() for name in data},
                                  chunk_size=chunk)
        chunks = n // chunk

        def scan(name, **kwargs):
            result = scan_table(table, [col(name).between(100, 600)], context=NO_ZONE_MAPS,
                                **kwargs)
            expected = np.flatnonzero((data[name] >= 100) & (data[name] <= 600))
            assert np.array_equal(result.selection.positions.values, expected)
            for output, column in result.columns.items():
                assert np.array_equal(column.values, data[output][expected])
            return result.stats.chunks_pushed_down, result.stats.chunks_decompressed

        assert scan("w10") == (chunks, 0)                            # only filtered
        assert scan("w10", materialize=["other"]) == (chunks, chunks)
        assert scan("w10", materialize=["w10"]) == (0, chunks)       # decoded once
        assert scan("w8", materialize=["w8"]) == (chunks, chunks)    # a typed view
        ds = dataset(table, "t")
        both = ds.filter(col("w10").between(100, 600) & (col("w10") > col("other") - 2_000)
                         ).select("other").collect()
        assert both.scan_stats.chunks_pushed_down == 0
        assert both.scan_stats.chunks_decompressed == 2 * chunks
        mask = (data["w10"] >= 100) & (data["w10"] <= 600)
        assert np.array_equal(both.columns["other"].values, data["other"][mask])


class TestOneChunkGrid:
    def test_a_table_refuses_columns_on_another_chunk_grid(self):
        """A chunk range is one chunk of every column, so every column is cut
        where the first is: one on a finer grid, on one that only partly
        coincides or in one chunk is refused as one of another row count is."""
        from repro.errors import StorageError
        from repro.storage.column_store import StoredColumn

        values = np.arange(5_000, dtype=np.int64)

        def stored(name, chunk_size):
            return StoredColumn.from_column(Column(values, name=name), chunk_size=chunk_size,
                                            scheme=NullSuppression())

        table = Table({"a": stored("a", 1_000), "b": stored("b", 1_000)})
        assert table.grid[0].tolist() == [0, 1_000, 2_000, 3_000, 4_000]
        assert table.grid[1].tolist() == [1_000] * 5
        for chunk_size in (500, 700, 5_000):
            with pytest.raises(StorageError, match="column 'b' is cut on another chunk "
                                                   "grid than column 'a'"):
                Table({"a": stored("a", 1_000), "b": stored("b", chunk_size)})


class TestShortCircuit:
    def test_empty_selection_short_circuits_later_conjuncts(self, table):
        spec = [("date", 10_000, 20_000), ("price", 0, 10_000), ("qty", 0, 100)]
        result = scan_table(table, build_predicates(spec),
                            context=DECOMPRESS_ONLY)
        num_chunks = table.column("date").num_chunks
        assert len(result.selection) == 0
        # the two later conjuncts were never evaluated anywhere
        assert result.stats.chunks_short_circuited == 2 * num_chunks
        # only the first column was ever decompressed
        assert result.stats.chunks_decompressed == num_chunks

    def test_zone_map_rejection_short_circuits_for_free(self, table):
        """With zone maps on, an impossible range needs no decompression at
        all, and later conjuncts still short-circuit."""
        spec = [("date", 10_000, 20_000), ("price", 0, 10_000)]
        result = scan_table(table, build_predicates(spec))
        assert len(result.selection) == 0
        assert result.stats.chunks_decompressed == 0
        assert result.stats.chunks_skipped == table.column("date").num_chunks
        assert result.stats.chunks_short_circuited == table.column("price").num_chunks


class TestEveryRegisteredScheme:
    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
    def test_pushdown_and_decompress_paths_agree(self, scheme_name):
        scheme = make_scheme(scheme_name)
        if not scheme.is_lossless:
            pytest.skip(f"{scheme_name} is lossy; exact selection undefined")
        rng = np.random.default_rng(5)
        values = np.repeat(rng.integers(0, 200, 1_024), 4)[:4_096].astype(np.int64)
        table = Table.from_pydict({"v": values}, schemes={"v": scheme},
                                  chunk_size=512)
        spec = [("v", 20, 180), ("v", 40, 190), ("v", 10, 170)]
        reference = np.flatnonzero((values >= 40) & (values <= 170))

        pushed = scan_table(table, build_predicates(spec))
        plain = scan_table(table, build_predicates(spec),
                           context=DECOMPRESS_ONLY)
        assert np.array_equal(pushed.selection.positions.values, reference)
        assert np.array_equal(plain.selection.positions.values, reference)


class TestAcceptanceScenario:
    """The PR's acceptance scenario: a 3-predicate Between conjunction over a
    1M-row multi-chunk table does at most one decompression pass per chunk
    and reports merged stats for all predicates."""

    @pytest.fixture(scope="class")
    def big(self):
        rng = np.random.default_rng(99)
        n = 1_000_000
        data = {
            "a": rng.integers(0, 1 << 16, n).astype(np.int64),
            "b": rng.integers(0, 1 << 12, n).astype(np.int64),
            "c": rng.integers(0, 1 << 8, n).astype(np.int64),
        }
        table = Table.from_pydict(
            data,
            schemes={name: NullSuppression() for name in data},
            chunk_size=65_536,
        )
        return data, table

    def test_one_pass_merged_stats(self, big):
        data, table = big
        spec = [("a", 1_000, 60_000), ("b", 100, 3_800), ("c", 10, 240)]
        predicates = build_predicates(spec)
        num_chunks = table.column("a").num_chunks
        assert num_chunks > 1  # genuinely multi-chunk

        serial = scan_table(table, predicates, materialize=["b"])
        # merged stats cover all three conjuncts ...
        assert serial.stats.predicates_total == 3
        assert serial.stats.chunks_total == 3 * num_chunks
        # ... and each (column, chunk) pair is decompressed at most once.
        assert serial.stats.chunks_decompressed <= 3 * num_chunks

        expected = reference_positions(data, spec)
        assert np.array_equal(serial.selection.positions.values, expected)
        assert np.array_equal(serial.columns["b"].values, data["b"][expected])


class TestGatherRows:
    def test_unsorted_positions_preserve_order(self, table, plain_data):
        positions = Column(np.array([5_000, 17, 12_001, 17, 900], dtype=np.int64))
        out = gather_rows(table.column("price"), positions)
        assert np.array_equal(out.values,
                              plain_data["price"][positions.values])

    def test_random_positions_match_reference(self, table, plain_data):
        rng = np.random.default_rng(3)
        positions = Column(rng.integers(0, len(plain_data["date"]), 2_000))
        out = gather_rows(table.column("date"), positions)
        assert np.array_equal(out.values, plain_data["date"][positions.values])

    def test_empty_positions(self, table):
        out = gather_rows(table.column("qty"), Column(np.empty(0, dtype=np.int64)))
        assert len(out) == 0
        assert out.dtype == table.column("qty").dtype
