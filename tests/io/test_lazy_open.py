"""A packed table is built in steps: ``.table`` checks the footer's
per-column arrays (row offsets, row counts, zone maps, where each chunk's
descriptor document sits) and constructs no form; a chunk's statistics object
is built when first read, and its descriptor document is read — and its
:class:`~repro.io.reader.PackedForm` tree and scheme built — when something
first touches them, so a needle query reads and builds exactly the chunks its
scan touches.  Either step turns malformed chunk metadata into a
:class:`~repro.errors.StorageError` naming file, column and chunk row."""

import numpy as np
import pytest

from repro.api import col, dataset
from repro.engine.resilience import FaultPlan
from repro.errors import StorageError
from repro.io import format as packed_format, open_table, reader, save_table
from repro.io.verify import verify_packed_file
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


@pytest.fixture
def descriptors_read(monkeypatch):
    """``(column, chunk row)`` of every descriptor document read."""
    read = []
    read_descriptor = packed_format.read_descriptor

    def spy(data, entry, footer_offset, rows, where):
        column, row = where.split(": column ")[1].split(", chunk @ row ")
        read.append((column.strip("'"), int(row)))
        return read_descriptor(data, entry, footer_offset, rows, where)

    monkeypatch.setattr(reader, "read_descriptor", spy)
    return read


def test_a_maximum_over_whole_chunks_reads_their_zone_maps_only(packed_path, memory_table,
                                                                forms_built, descriptors_read):
    """Days 30..59 are chunks 3..5 whole: the zone maps accept the filter and
    state ``max(qty)``, so nothing of ``qty`` — no descriptor, no form, no
    segment — is read; its sum reads the three chunks; without zone maps
    their maximum does too."""
    packed = open_table(packed_path)
    whole = dataset(packed.table).filter(col("day").between(30, 59))
    qty = memory_table.column("qty").materialize().values[3_000:6_000]
    result = whole.agg(col("qty").max().alias("m")).collect()
    assert result.scalars == {"m": int(qty.max())} and result.row_count == 3_000
    assert result.scan_stats.rows_computed_compressed == 3_000
    assert descriptors_read == forms_built == [] and packed.bytes_mapped == 0

    touched = [("qty", row) for row in (3_000, 4_000, 5_000)]
    assert whole.agg(col("qty").sum().alias("s")).collect().scalars == {"s": int(qty.sum())}
    assert descriptors_read == forms_built == touched and packed.segments_mapped == 3
    fresh = open_table(packed_path)
    unmapped = dataset(fresh.table).filter(col("day").between(30, 59)).without_zone_maps()
    assert unmapped.agg(col("qty").max().alias("m")).collect().scalars == {"m": int(qty.max())}
    assert fresh.segments_mapped > 3 and ("qty", 3_000) in descriptors_read[3:]


def test_a_chunk_builds_its_form_and_scheme_once(packed_path, forms_built):
    chunk = open_table(packed_path).table.column("day").chunks[2]
    assert chunk.form is chunk.form and chunk.scheme is chunk.scheme
    assert "RLE" in chunk.encoding
    assert np.array_equal(chunk.decompress().values, np.repeat(np.arange(20, 30), 100))
    assert forms_built == [("day", 2_000)]


# --------------------------------------------------------------------------- #
# Malformed chunk descriptors
# --------------------------------------------------------------------------- #

def _located(excinfo, path, column, row, what="malformed chunk"):
    message = str(excinfo.value)
    assert type(excinfo.value) is StorageError
    assert str(path) in message and what in message
    assert f"column {column!r}, chunk @ row {row}" in message
    return message


def _set(key, index, value):
    """Overwrite one chunk's entry of a per-chunk footer array."""
    def mutate(entry):
        target = entry
        *parents, last = key.split(".")
        for parent in parents:
            target = target[parent]
        target[last][index] = value
    return mutate


#: name -> (edit of the column's footer entry, the chunk row the error names)
TABLE_BUILD_FAULTS = {
    "no-statistics": (lambda entry: entry.pop("statistics"), "?"),
    "unknown-statistic": (lambda entry: entry["statistics"].update(surprise=[1] * 16), "?"),
    "no-row-count": (lambda entry: entry.pop("row_count"), "?"),
    "short-array": (lambda entry: entry["statistics"]["maximum"].pop(), "?"),
    "float-for-int": (_set("statistics.minimum", 5, 1.5), "?"),
    "row-offset-not-a-running-sum": (_set("row_offset", 5, 4_999), 4_999),
    "count-disagrees": (_set("statistics.count", 5, CHUNK - 1), 5_000),
    "minimum-above-maximum": (_set("statistics.minimum", 5, 1 << 20), 5_000),
    "zone-map-outside-the-dtype": (_set("statistics.maximum", 5, 1 << 63), 5_000),
    "descriptor-in-the-header": (_set("descriptors.offset", 5, 8), 5_000),
    "descriptor-of-2**62-bytes": (_set("descriptors.nbytes", 5, 1 << 62), 5_000),
}


@pytest.mark.parametrize("fault", list(TABLE_BUILD_FAULTS))
def test_malformed_footer_arrays_fail_the_table_build(tmp_path, packed_path, packed_editor,
                                                      fault):
    mutate, row = TABLE_BUILD_FAULTS[fault]
    path = packed_editor.rewrite(
        packed_path, tmp_path / "bad.rpk",
        footer=lambda footer: mutate(packed_editor.entry(footer, "qty")))
    packed = open_table(path)  # framing and footer parse
    with pytest.raises(StorageError) as excinfo:
        packed.table
    _located(excinfo, path, "qty", row)
    report = verify_packed_file(path)  # the same function, the same sentence
    assert report.problems == [str(excinfo.value)]


def test_overlapping_descriptors_fail_the_table_build(tmp_path, packed_path, packed_editor):
    def overlap(footer):
        where = packed_editor.entry(footer, "qty")["descriptors"]
        where["offset"][5] = where["offset"][4] + 1

    path = packed_editor.rewrite(packed_path, tmp_path / "bad.rpk", footer=overlap)
    with pytest.raises(StorageError) as excinfo:
        open_table(path).table
    assert "overlaps another" in _located(excinfo, path, "qty", 5_000)


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
    "no-form": ("qty", lambda chunk: chunk.update(form=None), "TypeError"),
    "not-an-object": ("qty", ["scheme", "form"], "TypeError"),
    "truncated": ("qty", b'{"form": {"original_le', "JSONDecodeError"),
    "row-count-disagrees": ("qty", lambda chunk: chunk["form"].update(original_length=CHUNK + 1),
                            f"holds {CHUNK + 1} rows, the footer's row_count says {CHUNK}"),
}


@pytest.mark.parametrize("fault", list(FIRST_TOUCH_FAULTS))
def test_a_malformed_descriptor_fails_at_first_touch(tmp_path, packed_path, packed_editor, fault):
    column, mutate, reason = FIRST_TOUCH_FAULTS[fault]
    path = packed_editor.rewrite(packed_path, tmp_path / "bad.rpk", chunk=(column, 5, mutate))
    table = open_table(path).table  # the footer is intact: the table builds
    bad, good = table.column(column).chunks[5], table.column(column).chunks[4]
    assert good.form.original_length == CHUNK
    assert bad.statistics.count == CHUNK  # the zone map needs no descriptor
    for touch in (lambda: bad.form, lambda: bad.scheme, bad.decompress):
        with pytest.raises(StorageError) as excinfo:
            touch()
        assert reason in _located(excinfo, path, column, 5_000, "chunk descriptor")

    # A query that prunes the chunk never notices, nor does one that takes the
    # chunk's maximum off its zone map; one that reads it fails the same way,
    # whatever it asked of the chunk first.
    day = col("day")
    pruned = dataset(table).filter(day.between(0, 9)).agg(col(column).max().alias("m"))
    assert pruned.collect().row_count == CHUNK
    zone_mapped = dataset(table).filter(day.between(50, 59)).agg(col(column).max().alias("m"))
    assert zone_mapped.collect().scalars["m"] == bad.statistics.maximum
    with pytest.raises(StorageError) as excinfo:
        dataset(table).filter(day.between(50, 59)).agg(col(column).sum().alias("s")).collect()
    _located(excinfo, path, column, 5_000, "chunk descriptor")


def test_a_ruled_out_range_reads_nothing_even_under_faults(packed_path, forms_built,
                                                          descriptors_read):
    """Every segment read is bit-flipped and quarantined: the one live range
    is lost, and the fifteen the zone maps rule out never come near a
    descriptor document, a form or a segment — there is nothing to flip."""
    packed = open_table(packed_path)
    result = (dataset(packed.table).filter(col("day").between(50, 59))
              .group_by("note").agg(col("qty").max().alias("m"))
              .with_fault_injection(FaultPlan(seed=5, bitflip_p=1.0))
              .with_fault_policy(on_corruption="quarantine").collect())
    stats = result.scan_stats
    assert (stats.chunks_quarantined, stats.chunks_skipped, stats.rows_selected) == (1, 15, 0)
    assert {row for __, row in descriptors_read + forms_built} == {5_000}
    assert packed.segments_mapped == 1  # the first read of the live range, flipped
