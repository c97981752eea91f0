"""Error handling of the packed format: truncation, bad versions, the
formats that are no longer read."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.io import load_table, open_table, save_table
from repro.io.format import FORMAT_VERSION, HEADER_SIZE, MAGIC, segment_digest
from repro.io.verify import verify_packed_file
from repro.schemes import NullSuppression, RunLengthEncoding
from repro.storage import Table


@pytest.fixture
def table():
    rng = np.random.default_rng(9)
    return Table.from_pydict(
        {
            "k": np.sort(rng.integers(0, 50, 3_000)).astype(np.int64),
            "v": rng.integers(0, 500, 3_000).astype(np.int64),
        },
        schemes={"k": RunLengthEncoding(), "v": NullSuppression()},
        chunk_size=512,
    )


@pytest.fixture
def packed_path(tmp_path, table):
    return save_table(table, tmp_path / "t.rpk")


class TestTruncation:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.rpk"
        path.write_bytes(b"")
        with pytest.raises(StorageError) as excinfo:
            load_table(path)
        assert "empty.rpk" in str(excinfo.value)
        assert "truncated" in str(excinfo.value)

    def test_header_only(self, tmp_path, packed_path):
        path = tmp_path / "headonly.rpk"
        path.write_bytes(packed_path.read_bytes()[:HEADER_SIZE])
        with pytest.raises(StorageError, match="truncated"):
            load_table(path)

    @pytest.mark.parametrize("keep_fraction", [0.25, 0.5, 0.9, 0.99])
    def test_cut_anywhere_in_the_middle(self, tmp_path, packed_path, keep_fraction):
        blob = packed_path.read_bytes()
        path = tmp_path / "cut.rpk"
        path.write_bytes(blob[:int(len(blob) * keep_fraction)])
        with pytest.raises(StorageError) as excinfo:
            load_table(path)
        message = str(excinfo.value)
        assert "cut.rpk" in message
        assert "truncated" in message or "corrupt" in message

    def test_lost_trailing_byte(self, tmp_path, packed_path):
        blob = packed_path.read_bytes()
        path = tmp_path / "short.rpk"
        path.write_bytes(blob[:-1])
        with pytest.raises(StorageError, match="truncated|corrupt"):
            load_table(path)


class TestVersions:
    def test_unknown_header_version_names_both_versions(self, tmp_path, packed_path):
        blob = bytearray(packed_path.read_bytes())
        blob[len(MAGIC)] = 77  # the version u32 starts right after the magic
        path = tmp_path / "future.rpk"
        path.write_bytes(bytes(blob))
        with pytest.raises(StorageError) as excinfo:
            load_table(path)
        message = str(excinfo.value)
        assert "future.rpk" in message
        assert "version 77" in message
        assert f"version {FORMAT_VERSION}" in message

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "random.bin"
        path.write_bytes(b"PARQUET1" + b"\x00" * 100)
        with pytest.raises(StorageError, match="not a packed table file"):
            load_table(path)

    def test_corrupt_footer_json(self, tmp_path, packed_path):
        blob = packed_path.read_bytes()
        # Locate the footer via the trailer and stomp on its first byte.
        import struct
        footer_offset, footer_length, _tail = struct.unpack(
            "<QQ8s", blob[-24:])
        corrupted = bytearray(blob)
        corrupted[footer_offset] = 0xFF
        path = tmp_path / "badfooter.rpk"
        path.write_bytes(bytes(corrupted))
        with pytest.raises(StorageError, match="corrupt packed table footer"):
            load_table(path)

    def test_missing_path(self, tmp_path):
        with pytest.raises(StorageError, match="no such packed table"):
            open_table(tmp_path / "nope.rpk")


class TestRetiredFormats:
    """v1 directories and packed version 2 have no reader and no migration
    shim: the error names the path, the version found and the last commit
    that could read them."""

    @pytest.mark.parametrize("opener", [load_table, open_table])
    def test_directory_is_refused_with_the_last_reading_commit(
            self, tmp_path, opener):
        (tmp_path / "v1").mkdir()
        (tmp_path / "v1" / "table.json").write_text('{"format_version": 1}')
        with pytest.raises(StorageError) as excinfo:
            opener(tmp_path / "v1")
        message = str(excinfo.value)
        assert str(tmp_path / "v1") in message
        assert "is a directory" in message
        assert "v1 table directories" in message
        assert "commit 109b472" in message

    @pytest.mark.parametrize("version, commit", [(2, "109b472"), (3, "dd1236e")])
    def test_an_older_header_is_refused_with_the_last_reading_commit(
            self, tmp_path, packed_path, version, commit):
        blob = bytearray(packed_path.read_bytes())
        blob[len(MAGIC)] = version
        path = tmp_path / "old.rpk"
        path.write_bytes(bytes(blob))
        with pytest.raises(StorageError) as excinfo:
            load_table(path)
        message = str(excinfo.value)
        assert "old.rpk" in message
        assert f"version {version}" in message
        assert f"version {FORMAT_VERSION}" in message
        assert f"version-{version} files" in message and f"commit {commit}" in message


class TestSegmentValidation:
    """Every declared byte range obeys one rule before it is sliced."""

    def test_segment_past_eof_detected_lazily(self, tmp_path, packed_path, packed_editor):
        """Footer intact but segment bytes missing: error on access, with path."""
        def dangle(document):
            first = next(iter(document["form"]["segments"].values()))
            first["offset"] = packed_path.stat().st_size + 1_024

        path = packed_editor.rewrite(packed_path, tmp_path / "dangling.rpk",
                                     chunk=("k", 0, dangle))
        packed = open_table(path)  # metadata parses fine
        with pytest.raises(StorageError, match="dangling.rpk.*outside the segment region"):
            packed.table.column("k").materialize()

    def test_segment_size_mismatch_detected(self, tmp_path, packed_path, packed_editor):
        def grow(document):
            first = next(iter(document["form"]["segments"].values()))
            first["nbytes"] += 3  # no longer length * itemsize

        path = packed_editor.rewrite(packed_path, tmp_path / "mismatch.rpk",
                                     chunk=("k", 0, grow))
        with pytest.raises(StorageError, match="declares"):
            open_table(path).table.column("k").materialize()

    @pytest.mark.parametrize("landing", ["negative", "header", "footer"])
    def test_a_range_outside_the_segment_region_is_refused_whatever_its_digest(
            self, tmp_path, packed_path, packed_editor, landing):
        """A segment entry pointing before the file's start (NumPy would read
        it from the end), into the header or into the footer, with a
        ``crc32`` that matches the bytes it lands on: verify flags it, and
        the reader must not decode it either."""
        # RLE's run values: a segment short enough to land wholly on the
        # footer's last bytes (the table's own fields, not a digest).
        nbytes = packed_editor.document(packed_path, "k", 0)["form"]["segments"]["values"]["nbytes"]
        assert nbytes <= 128

        def offset_in(size, back):
            return {"negative": -(nbytes + 24), "header": 8,
                    "footer": size - nbytes - 24 - back}[landing]

        def redirect(target, back):
            """Point the entry outside the region of a file laid out like
            *target*, with the digest of whatever it lands on there."""
            blob = target.read_bytes()
            offset = offset_in(len(blob), back)

            def edit(document):
                document["form"]["segments"]["values"].update(
                    offset=offset, crc32=segment_digest(blob[offset:][:nbytes]))
            return edit

        def settled(path, back):
            blob = path.read_bytes()
            entry = packed_editor.document(path, "k", 0)["form"]["segments"]["values"]
            return entry["offset"] == offset_in(len(blob), back) \
                and entry["crc32"] == segment_digest(blob[entry["offset"]:][:nbytes])

        # The first pass fixes the layout, the next the digest; the document's
        # length can move by a digit each time, so repeat until it has settled.
        # The footer states the new document's own digest, of 9 or 10 digits,
        # so a landing spot can have no fixed point: then try a byte further back.
        for back in range(8):
            path = packed_path
            for __ in range(4):
                path = packed_editor.rewrite(packed_path, tmp_path / "sly.rpk",
                                             chunk=("k", 0, redirect(path, back)))
                if settled(path, back):
                    break
            if settled(path, back):
                break
        assert settled(path, back)

        with pytest.raises(StorageError, match="sly.rpk.*outside the segment region"):
            open_table(path).table.column("k").materialize()
        report = verify_packed_file(path)
        assert any("outside the segment region" in problem for problem in report.problems)
