"""Tests for the packed single-file table format (repro.io)."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.api import col, count, dataset
from repro.io import (
    FORMAT_VERSION,
    SEGMENT_ALIGNMENT,
    load_table,
    open_table,
    save_table,
)
from repro.io.format import describe_scheme, rebuild_scheme
from repro.io.reader import LazyConstituents, PackedForm
from repro.schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    PatchedFrameOfReference,
    RunLengthEncoding,
)
from repro.storage import Table
from repro.storage.column_store import StoredColumn
from repro.workloads import generate_orders_workload


@pytest.fixture
def orders_table():
    workload = generate_orders_workload(num_orders=5_000, num_days=300, seed=3)
    return Table.from_columns(
        workload.lineitem,
        schemes={
            "ship_date": Cascade(RunLengthEncoding(), {"values": Delta()}),
            "price": FrameOfReference(segment_length=128),
            "discount": DictionaryEncoding(),
        },
        chunk_size=1_024,
    )


class TestSchemeDescriptions:
    """The footer's scheme descriptions rebuild the scheme that wrote them."""

    @pytest.mark.parametrize("scheme", [
        NullSuppression(width=12, mode="aligned"),
        Delta(narrow=False),
        RunLengthEncoding(),
        FrameOfReference(segment_length=64, reference="mid"),
        DictionaryEncoding(codes_layout="aligned"),
        PatchedFrameOfReference(segment_length=32, offset_width=10),
    ], ids=lambda s: s.describe())
    def test_roundtrip_plain_schemes(self, scheme):
        rebuilt = rebuild_scheme(describe_scheme(scheme))
        assert rebuilt.describe() == scheme.describe()

    def test_roundtrip_cascade(self):
        scheme = Cascade(RunLengthEncoding(), {"values": Delta(narrow=False)})
        rebuilt = rebuild_scheme(describe_scheme(scheme))
        assert rebuilt.name == scheme.name
        assert rebuilt.inner["values"].narrow is False


class TestRoundTrip:
    def test_table_round_trips_bit_exactly(self, tmp_path, orders_table):
        path = save_table(orders_table, tmp_path / "orders.rpk")
        loaded = load_table(path)
        assert loaded.row_count == orders_table.row_count
        assert loaded.column_names == orders_table.column_names
        for name in orders_table.column_names:
            original = orders_table.column(name)
            reread = loaded.column(name)
            assert reread.num_chunks == original.num_chunks
            assert reread.encodings() == original.encodings()
            assert reread.materialize().equals(original.materialize(),
                                               check_dtype=True), name

    def test_chunk_statistics_persisted_not_recomputed(self, tmp_path, orders_table):
        path = save_table(orders_table, tmp_path / "orders.rpk")
        packed = open_table(path)
        original = orders_table.column("ship_date").chunks
        reread = packed.table.column("ship_date").chunks
        for before, after in zip(original, reread):
            assert before.statistics == after.statistics
            assert before.row_offset == after.row_offset
        # Statistics come from the footer: comparing them maps no segments.
        assert packed.bytes_mapped == 0

    def test_query_results_identical(self, tmp_path, orders_table):
        path = save_table(orders_table, tmp_path / "orders.rpk")
        loaded = load_table(path)
        lo = orders_table.column("ship_date").chunks[0].statistics.minimum
        window = col("ship_date").between(lo + 40, lo + 90)
        want = (dataset(orders_table).filter(window)
                .agg(col("price").sum()).collect())
        got = (dataset(loaded).filter(window)
               .agg(col("price").sum()).collect())
        assert want.row_count > 0
        assert got.scalars == want.scalars
        assert got.row_count == want.row_count

    def test_compressed_sizes_survive_without_io(self, tmp_path, orders_table):
        path = save_table(orders_table, tmp_path / "orders.rpk")
        packed = open_table(path)
        assert (packed.table.compressed_size_bytes()
                == orders_table.compressed_size_bytes())
        assert packed.bytes_mapped == 0


class TestLaziness:
    def test_open_and_build_table_map_nothing(self, tmp_path, orders_table):
        packed = open_table(save_table(orders_table, tmp_path / "t.rpk"))
        assert packed.bytes_mapped == 0
        _ = packed.table  # building columns/chunks is metadata-only
        assert packed.bytes_mapped == 0
        assert packed.row_count == orders_table.row_count
        assert packed.column_names == orders_table.column_names

    def test_selective_scan_maps_fewer_bytes_than_file(self, tmp_path, orders_table):
        packed = open_table(save_table(orders_table, tmp_path / "t.rpk"))
        dates = packed.table.column("ship_date")
        lo = dates.chunks[0].statistics.minimum
        result = (dataset(packed.table)
                  .filter(col("ship_date").between(lo, lo + 3))
                  .agg(col("price").sum()).collect())
        assert result.row_count > 0
        assert 0 < packed.bytes_mapped < packed.file_size

    def test_scan_maps_only_surviving_chunk_ranges(self, tmp_path, orders_table):
        """The mmap account never exceeds the byte budget of the chunks the
        zone maps admit (predicate column + materialised column)."""
        packed = open_table(save_table(orders_table, tmp_path / "t.rpk"))
        table = packed.table
        dates = table.column("ship_date")
        lo = dates.chunks[0].statistics.minimum
        hi = lo + 10

        surviving = [index for index, chunk in enumerate(dates.chunks)
                     if chunk.statistics.overlaps_range(lo, hi)]
        assert 0 < len(surviving) < dates.num_chunks
        budget = sum(dates.chunks[i].compressed_size_bytes() for i in surviving)
        budget += sum(table.column("price").chunks[i].compressed_size_bytes()
                      for i in surviving)

        result = (dataset(table).filter(col("ship_date").between(lo, hi))
                  .agg(col("price").sum()).collect())
        assert result.scan_stats.chunks_skipped > 0
        assert 0 < packed.bytes_mapped <= budget

    def test_pruned_chunks_stay_unmapped_column_level(self, tmp_path):
        """A predicate pruning every chunk but one maps only that chunk."""
        values = np.repeat(np.arange(8, dtype=np.int64), 1_000)
        table = Table.from_pydict({"k": values},
                                  schemes={"k": NullSuppression()},
                                  chunk_size=1_000)
        packed = open_table(save_table(table, tmp_path / "t.rpk"))
        chunk_bytes = packed.table.column("k").chunks[3].compressed_size_bytes()
        result = (dataset(packed.table).filter(col("k").between(3, 3))
                  .agg(count()).collect())
        assert result.scalars["count(*)"] == 1_000
        assert packed.bytes_mapped <= chunk_bytes

    def test_accounting_resets_but_cache_persists(self, tmp_path, orders_table):
        packed = open_table(save_table(orders_table, tmp_path / "t.rpk"))
        packed.table.column("price").materialize()
        first = packed.bytes_mapped
        assert first > 0
        packed.reset_accounting()
        assert packed.bytes_mapped == 0
        packed.table.column("price").materialize()
        assert packed.bytes_mapped == 0  # constituents were cached

    def test_repeated_access_counts_once(self, tmp_path, orders_table):
        packed = open_table(save_table(orders_table, tmp_path / "t.rpk"))
        column = packed.table.column("quantity")
        column.materialize()
        once = packed.bytes_mapped
        column.materialize()
        assert packed.bytes_mapped == once

    def test_membership_checks_stay_metadata_only(self, tmp_path, orders_table):
        """`in` on the lazy constituents mapping must not map segments
        (Mapping's default __contains__ would call __getitem__)."""
        packed = open_table(save_table(orders_table, tmp_path / "t.rpk"))
        form = packed.table.column("price").chunks[0].form
        assert "refs" in form.columns
        assert "no_such_constituent" not in form.columns
        assert sorted(form.columns) == sorted(form.constituent_names())
        assert packed.bytes_mapped == 0

    def test_concurrent_scans_identical_and_accounted(self, tmp_path,
                                                      orders_table,
                                                      run_in_threads):
        """The shared SegmentSource is safe under callers' own threads."""
        packed = open_table(save_table(orders_table, tmp_path / "t.rpk"))
        lo = packed.table.column("ship_date").chunks[0].statistics.minimum
        window = col("ship_date").between(lo, lo + 60)
        serial = (dataset(orders_table).filter(window)
                  .agg(col("price").sum()).collect())
        query = dataset(packed.table).filter(window).agg(col("price").sum())
        for concurrent in run_in_threads(lambda __: query.collect(), range(4)):
            assert concurrent.scalars == serial.scalars
        assert 0 < packed.bytes_mapped <= packed.table.compressed_size_bytes()


class TestZeroCopy:
    def test_constituents_view_into_the_memmap(self, tmp_path):
        table = Table.from_pydict(
            {"v": np.arange(10_000, dtype=np.int64)},
            schemes={"v": FrameOfReference(segment_length=64)},
            chunk_size=4_096,
        )
        packed = open_table(save_table(table, tmp_path / "t.rpk"))
        form = packed.table.column("v").chunks[0].form
        assert isinstance(form, PackedForm)
        assert isinstance(form.columns, LazyConstituents)
        constituent = form.constituent("refs")
        assert isinstance(constituent.values.base, np.memmap)
        assert not constituent.values.flags.writeable

    def test_segments_are_aligned(self, tmp_path, orders_table, packed_editor):
        path = save_table(orders_table, tmp_path / "t.rpk")
        for column in open_table(path).footer["columns"]:
            for index in range(len(column["row_offset"])):
                stack = [packed_editor.document(path, column["name"], index)["form"]]
                while stack:
                    form = stack.pop()
                    for segment in form["segments"].values():
                        assert segment["offset"] % SEGMENT_ALIGNMENT == 0
                    stack.extend(form["nested"].values())

    def test_wrap_readonly_shares_readonly_buffers(self):
        arr = np.arange(16, dtype=np.int64)
        arr.setflags(write=False)
        column = Column.wrap_readonly(arr, name="shared")
        assert column.values is arr
        writable = np.arange(4, dtype=np.int64)
        copied = Column.wrap_readonly(writable)
        assert copied.values is not writable


class TestFormatDetails:
    def test_format_version_recorded(self, tmp_path, orders_table):
        packed = open_table(save_table(orders_table, tmp_path / "t.rpk"))
        assert packed.format_version == FORMAT_VERSION
        assert packed.footer["format_version"] == FORMAT_VERSION

    def test_empty_constituent_segments_round_trip(self, tmp_path):
        """PFOR on outlier-free data stores zero-length exception segments."""
        values = Column(np.arange(1_000, dtype=np.int64) % 16, name="v")
        scheme = PatchedFrameOfReference(segment_length=100)
        form = scheme.compress(values)
        assert any(len(column) == 0 for column in form.columns.values())
        stored = StoredColumn.from_column(values, scheme=scheme, chunk_size=333)
        table = Table({"v": stored})
        loaded = load_table(save_table(table, tmp_path / "t.rpk"))
        assert loaded.column("v").materialize().equals(values, check_dtype=True)

    def test_odd_chunk_sizes_round_trip(self, tmp_path):
        values = Column(np.random.default_rng(5).integers(0, 1_000, 4_999),
                        name="v")
        for chunk_size in (1, 7, 977, 4_999, 10_000):
            stored = StoredColumn.from_column(values, scheme=Delta(),
                                              chunk_size=chunk_size)
            loaded = load_table(save_table(Table({"v": stored}),
                                           tmp_path / f"t{chunk_size}.rpk"))
            assert loaded.column("v").materialize().equals(values), chunk_size

    def test_mixed_per_chunk_schemes_round_trip(self, tmp_path):
        """The advisor hook can pick a different scheme per chunk."""
        rng = np.random.default_rng(11)
        values = Column(np.concatenate([
            np.repeat(rng.integers(0, 50, 40), 25),   # runny chunk
            rng.integers(0, 1 << 30, 1_000),          # incompressible chunk
        ]).astype(np.int64), name="v")
        schemes = iter([RunLengthEncoding(), NullSuppression()])

        def chooser(piece):
            return next(schemes)

        stored = StoredColumn.from_column(values, scheme=chooser, chunk_size=1_000)
        assert len(set(stored.encodings())) == 2
        loaded = load_table(save_table(Table({"v": stored}), tmp_path / "t.rpk"))
        assert loaded.column("v").encodings() == stored.encodings()
        assert loaded.column("v").materialize().equals(values, check_dtype=True)

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path, orders_table):
        path = save_table(orders_table, tmp_path / "t.rpk")
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_save_cleans_up_tmp(self, tmp_path, orders_table, monkeypatch):
        from repro.io import writer as writer_module

        def boom(column, stream):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(writer_module, "_write_column", boom)
        with pytest.raises(RuntimeError, match="disk on fire"):
            save_table(orders_table, tmp_path / "t.rpk")
        assert not list(tmp_path.iterdir())

    def test_overwrite_existing_file(self, tmp_path, orders_table):
        path = save_table(orders_table, tmp_path / "t.rpk")
        first_size = path.stat().st_size
        path2 = save_table(orders_table, tmp_path / "t.rpk")
        assert path2 == path
        assert path.stat().st_size == first_size
        assert load_table(path).row_count == orders_table.row_count
