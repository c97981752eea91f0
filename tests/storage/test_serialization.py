"""Tests for persisting compressed forms, columns and tables to disk."""
import pytest
from repro.errors import StorageError
from repro.schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    PatchedFrameOfReference,
    RunLengthEncoding,
)
from repro.storage import (
    Table,
    read_form,
    read_stored_column,
    read_table,
    write_form,
    write_stored_column,
    write_table,
)
from repro.storage.column_store import StoredColumn
from repro.storage.serialization import describe_scheme, rebuild_scheme
from repro.workloads import generate_orders_workload


class TestSchemeDescriptions:
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


class TestFormPersistence:
    @pytest.mark.parametrize("scheme", [
        RunLengthEncoding(),
        FrameOfReference(segment_length=64),
        Cascade(RunLengthEncoding(), {"values": Delta()}),
    ], ids=lambda s: s.name)
    def test_form_roundtrip(self, tmp_path, dates_data, scheme):
        form = scheme.compress(dates_data)
        write_form(form, tmp_path / "form")
        loaded = read_form(tmp_path / "form")
        assert loaded.scheme == form.scheme
        assert loaded.original_length == form.original_length
        assert scheme.decompress(loaded).equals(dates_data)

    def test_nested_forms_restore_bit_exactly(self, tmp_path, dates_data):
        scheme = Cascade(RunLengthEncoding(), {"values": Delta()})
        form = scheme.compress(dates_data)
        write_form(form, tmp_path / "f")
        loaded = read_form(tmp_path / "f")
        assert set(loaded.nested) == {"values"}
        assert loaded.nested["values"].constituent("deltas").equals(
            form.nested["values"].constituent("deltas"), check_dtype=True)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            read_form(tmp_path)


class TestColumnAndTablePersistence:
    def test_stored_column_roundtrip(self, tmp_path, runs_data):
        stored = StoredColumn.from_column(runs_data, scheme=RunLengthEncoding(),
                                          chunk_size=1024)
        write_stored_column(stored, tmp_path / "col")
        loaded = read_stored_column(tmp_path / "col")
        assert loaded.num_chunks == stored.num_chunks
        assert loaded.materialize().equals(runs_data)
        assert loaded.encodings() == stored.encodings()

    def test_chunk_statistics_survive(self, tmp_path, runs_data):
        stored = StoredColumn.from_column(runs_data, scheme=NullSuppression(),
                                          chunk_size=1024)
        write_stored_column(stored, tmp_path / "col")
        loaded = read_stored_column(tmp_path / "col")
        assert loaded.chunks[0].statistics == stored.chunks[0].statistics

    def test_table_roundtrip_and_query(self, tmp_path):
        workload = generate_orders_workload(num_orders=1_000, num_days=200, seed=3)
        table = Table.from_columns(
            workload.lineitem,
            schemes={"ship_date": RunLengthEncoding(), "discount": DictionaryEncoding()},
            chunk_size=4096,
        )
        write_table(table, tmp_path / "lineitem")
        loaded = read_table(tmp_path / "lineitem")
        assert loaded.row_count == table.row_count
        assert set(loaded.column_names) == set(table.column_names)
        for name in table.column_names:
            assert loaded.column(name).materialize().equals(
                table.column(name).materialize()), name

        from repro.api import col, dataset

        lo = workload.date_range.start + 20
        hi = workload.date_range.start + 80
        original = dataset(table).filter(col("ship_date").between(lo, hi)) \
            .agg(col("price").sum()).collect()
        reloaded = dataset(loaded).filter(col("ship_date").between(lo, hi)) \
            .agg(col("price").sum()).collect()
        assert original.scalars == reloaded.scalars

    def test_missing_table_manifest_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            read_table(tmp_path)

    def test_compressed_on_disk_smaller_than_raw(self, tmp_path, dates_data):
        stored = StoredColumn.from_column(dates_data, scheme=RunLengthEncoding(),
                                          chunk_size=4096)
        write_stored_column(stored, tmp_path / "col")
        on_disk = sum(f.stat().st_size for f in (tmp_path / "col").rglob("*.npy"))
        assert on_disk < dates_data.nbytes / 4
