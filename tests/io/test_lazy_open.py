"""A packed table is built in two steps: ``.table`` reads every chunk's zone
map, row offset and row count from the footer and constructs no form; a
chunk's :class:`~repro.io.reader.PackedForm` tree and scheme are built when
something first reads them — so a needle query builds exactly the chunks its
scan touches.  Either step turns a malformed chunk descriptor into a
:class:`~repro.errors.StorageError` naming file, column and chunk row."""

import json
import struct

import numpy as np
import pytest

from repro.api import col, dataset
from repro.errors import StorageError
from repro.io import open_table, reader, save_table
from repro.schemes import (
    Cascade,
    Delta,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage import Table

ROWS, CHUNK = 16_000, 1_000


@pytest.fixture
def memory_table():
    rng = np.random.default_rng(18)
    return Table.from_pydict(
        {
            # Sorted, every value of 0..159 present: 100 rows each, so chunk i
            # holds exactly the days 10 i .. 10 i + 9.
            "day": np.repeat(np.arange(160, dtype=np.int64), ROWS // 160),
            "price": (np.cumsum(rng.integers(-3, 4, ROWS)) + 9_000).astype(np.int64),
            "qty": rng.integers(0, 1 << 10, ROWS).astype(np.int64),
            "note": rng.integers(0, 5, ROWS).astype(np.int64),
        },
        schemes={"day": Cascade(RunLengthEncoding(), {"values": Delta(),
                                                      "lengths": NullSuppression()}),
                 "price": FrameOfReference(segment_length=128),
                 "qty": NullSuppression()},
        chunk_size=CHUNK)


@pytest.fixture
def packed_path(tmp_path, memory_table):
    return save_table(memory_table, tmp_path / "lazy.rpk")


@pytest.fixture
def forms_built(monkeypatch):
    """``(column, chunk row)`` of every chunk whose form tree gets built."""
    built = []
    build_form = reader._build_form

    def spy(descriptor, source, context=""):
        if "nested form" not in context:
            column, row = context.split(", chunk @ row ")
            built.append((column.removeprefix("column ").strip("'"), int(row)))
        return build_form(descriptor, source, context)

    monkeypatch.setattr(reader, "_build_form", spy)
    return built


def test_the_table_build_reads_zone_maps_and_builds_no_form(packed_path, memory_table,
                                                            forms_built, monkeypatch):
    schemes_rebuilt = []
    monkeypatch.setattr(reader, "rebuild_scheme",
                        lambda description: schemes_rebuilt.append(description))
    packed = open_table(packed_path)
    table = packed.table
    assert table.row_count == ROWS and table.column_names == memory_table.column_names
    for name in table.column_names:
        for lazy, eager in zip(table.column(name).chunks, memory_table.column(name).chunks):
            assert lazy.statistics == eager.statistics
            assert (lazy.row_offset, lazy.row_count) == (eager.row_offset, eager.row_count)
            assert lazy.row_range() == eager.row_range()
    assert forms_built == [] and schemes_rebuilt == []
    assert packed.bytes_mapped == 0


def test_a_needle_builds_exactly_the_chunks_its_scan_touches(packed_path, forms_built):
    packed = open_table(packed_path)
    table = packed.table
    # Days 37..46 live in chunks 3 and 4: the predicate column is read there,
    # and so are the two aggregated columns; `note` is never asked for.
    query = dataset(table).filter(col("day").between(37, 46)).agg(
        col("price").sum().alias("s"), col("qty").max().alias("m"))
    result = query.collect()
    assert result.row_count == 1_000
    assert result.scan_stats.chunks_skipped == ROWS // CHUNK - 2
    touched = {(name, row) for name in ("day", "price", "qty") for row in (3_000, 4_000)}
    assert set(forms_built) == touched and len(forms_built) == len(touched)
    assert 0 < packed.bytes_mapped < packed.file_size

    # Metadata-only questions build forms (of the chunks asked) but map nothing.
    mapped = packed.bytes_mapped
    assert table.column("note").compressed_size_bytes() > 0
    assert {name for name, __ in forms_built[len(touched):]} == {"note"}
    assert packed.bytes_mapped == mapped
    # explain() labels every chunk's capability: it reads them all, once.
    assert "[native, compressed" in query.explain()
    assert len(forms_built) == len(set(forms_built))


def test_a_chunk_builds_its_form_and_scheme_once(packed_path, forms_built):
    chunk = open_table(packed_path).table.column("day").chunks[2]
    assert chunk.form is chunk.form and chunk.scheme is chunk.scheme
    assert "RLE" in chunk.encoding
    assert np.array_equal(chunk.decompress().values, np.repeat(np.arange(20, 30), 100))
    assert forms_built == [("day", 2_000)]


# --------------------------------------------------------------------------- #
# Malformed chunk descriptors
# --------------------------------------------------------------------------- #

def _rewrite_footer(source, target, mutate):
    """Copy *source* to *target* with ``mutate(footer)`` applied."""
    blob = source.read_bytes()
    footer_offset, footer_length, tail = struct.unpack("<QQ8s", blob[-24:])
    footer = json.loads(blob[footer_offset:footer_offset + footer_length])
    mutate(footer)
    encoded = json.dumps(footer).encode()
    target.write_bytes(blob[:footer_offset] + encoded
                       + struct.pack("<QQ8s", footer_offset, len(encoded), tail))
    return target


def _chunk(footer, column, index):
    by_name = {entry["name"]: entry for entry in footer["columns"]}
    return by_name[column]["chunks"][index]


def _located(excinfo, path, column, row):
    message = str(excinfo.value)
    assert type(excinfo.value) is StorageError
    assert str(path) in message and "malformed chunk metadata" in message
    assert f"column {column!r}, chunk @ row {row}" in message
    return message


@pytest.mark.parametrize("mutate", [
    lambda chunk: chunk.pop("statistics"),
    lambda chunk: chunk["statistics"].update(surprise=1),
    lambda chunk: chunk["form"].pop("original_length"),
    lambda chunk: chunk.update(form=None),
], ids=["no-statistics", "unknown-statistic", "no-row-count", "no-form"])
def test_malformed_zone_map_metadata_fails_the_table_build(tmp_path, packed_path, mutate):
    path = _rewrite_footer(packed_path, tmp_path / "bad.rpk",
                           lambda footer: mutate(_chunk(footer, "qty", 5)))
    packed = open_table(path)  # framing and footer parse
    with pytest.raises(StorageError) as excinfo:
        packed.table
    _located(excinfo, path, "qty", 5_000)


FIRST_TOUCH_FAULTS = {
    "unknown-scheme": ("qty", lambda chunk: chunk["scheme"].update(name="NOPE"),
                       "unknown compression scheme 'NOPE'"),
    "scheme-without-kind": ("qty", lambda chunk: chunk["scheme"].pop("kind"), "KeyError"),
    "bad-scheme-parameter": (
        "price", lambda chunk: chunk["scheme"]["parameters"].update(surprise=1), "TypeError"),
    "nested-is-a-list": ("day", lambda chunk: chunk["form"].update(nested=["values"]),
                         "AttributeError"),
    "nested-form-incomplete": (
        "day", lambda chunk: chunk["form"]["nested"]["values"].pop("segments"), "KeyError"),
    "nested-dtype-unknown": (
        "day", lambda chunk: chunk["form"]["nested"]["values"].update(original_dtype="q9"),
        "TypeError"),
    "segments-missing": ("price", lambda chunk: chunk["form"].pop("segments"), "KeyError"),
}


@pytest.mark.parametrize("fault", list(FIRST_TOUCH_FAULTS))
def test_a_malformed_scheme_or_form_fails_at_first_touch(tmp_path, packed_path, fault):
    column, mutate, reason = FIRST_TOUCH_FAULTS[fault]
    path = _rewrite_footer(packed_path, tmp_path / "bad.rpk",
                           lambda footer: mutate(_chunk(footer, column, 5)))
    table = open_table(path).table  # zone maps are intact: the table builds
    bad, good = table.column(column).chunks[5], table.column(column).chunks[4]
    assert good.form.original_length == CHUNK
    for touch in (lambda: bad.form, lambda: bad.scheme, bad.decompress):
        with pytest.raises(StorageError) as excinfo:
            touch()
        assert reason in _located(excinfo, path, column, 5_000)

    # A query that prunes the chunk never notices; one that reads it fails
    # the same way, whatever it asked of the chunk first.
    day = col("day")
    pruned = dataset(table).filter(day.between(0, 9)).agg(col(column).max().alias("m"))
    assert pruned.collect().row_count == CHUNK
    with pytest.raises(StorageError) as excinfo:
        dataset(table).filter(day.between(50, 59)).agg(col(column).max().alias("m")).collect()
    _located(excinfo, path, column, 5_000)
