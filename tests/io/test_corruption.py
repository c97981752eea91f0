"""End-to-end integrity of the packed format: byte flips and the verify CLI.

Satellite of the resilience PR: flip one byte at each structural offset of
a packed file (header magic, header version, segment body, footer JSON,
trailer magic) and assert a **typed** error naming the location — plus the
offline ``python -m repro.io.verify`` tool, which must find the same
damage without decompressing anything, and the digest being mandatory: a
segment descriptor that lost its ``crc32`` is corruption, not a licence to
skip the check.
"""

import struct

import numpy as np
import pytest

from repro.errors import CorruptionError, StorageError
from repro.io import load_table, open_table, save_table
from repro.io.format import (
    FORMAT_VERSION,
    MAGIC,
    TRAILER_SIZE,
    segment_digest,
)
from repro.io.reader import open_packed_table
from repro.io.verify import main, verify_packed_file
from repro.schemes import NullSuppression, RunLengthEncoding
from repro.storage import Table


def _build_table(rows=3_000):
    rng = np.random.default_rng(9)
    return Table.from_pydict(
        {
            "k": np.sort(rng.integers(0, 50, rows)).astype(np.int64),
            "v": rng.integers(0, 500, rows).astype(np.int64),
        },
        schemes={"k": RunLengthEncoding(), "v": NullSuppression()},
        chunk_size=512,
    )


@pytest.fixture
def packed_path(tmp_path):
    return save_table(_build_table(), tmp_path / "t.rpk")


def _flip_byte(source, destination, position):
    blob = bytearray(source.read_bytes())
    blob[position] ^= 0xFF
    destination.write_bytes(bytes(blob))
    return destination


def _footer_offset(path):
    footer_offset, __, __ = struct.unpack("<QQ8s",
                                          path.read_bytes()[-TRAILER_SIZE:])
    return footer_offset


def _materialize_all(path):
    table = open_packed_table(path).table
    for name in table.column_names:
        table.column(name).materialize()


class TestStructuralByteFlips:
    """One flipped byte per framing region → a typed, located error."""

    def test_header_magic(self, tmp_path, packed_path):
        path = _flip_byte(packed_path, tmp_path / "magic.rpk", 0)
        with pytest.raises(StorageError, match="not a packed table file"):
            load_table(path)

    def test_header_version(self, tmp_path, packed_path):
        path = _flip_byte(packed_path, tmp_path / "version.rpk", len(MAGIC))
        with pytest.raises(StorageError) as excinfo:
            load_table(path)
        assert "version" in str(excinfo.value)
        assert str(path) in str(excinfo.value)

    def test_segment_body(self, tmp_path, packed_path):
        # First segment region byte: 64-byte aligned right after the header.
        path = _flip_byte(packed_path, tmp_path / "segment.rpk", 64)
        with pytest.raises(CorruptionError) as excinfo:
            _materialize_all(path)
        message = str(excinfo.value)
        assert "segment.rpk" in message
        assert "failed its integrity check" in message
        assert "crc32" in message
        assert "byte range" in message

    def test_footer_json(self, tmp_path, packed_path):
        path = _flip_byte(packed_path, tmp_path / "footer.rpk",
                          _footer_offset(packed_path))
        with pytest.raises(StorageError, match="corrupt packed table footer"):
            load_table(path)

    def test_trailer_magic(self, tmp_path, packed_path):
        size = packed_path.stat().st_size
        path = _flip_byte(packed_path, tmp_path / "trailer.rpk", size - 1)
        with pytest.raises(StorageError, match="truncated or corrupt"):
            load_table(path)

    @pytest.mark.parametrize("region", ["header", "segment", "footer",
                                        "trailer"])
    def test_verify_tool_finds_every_flip(self, tmp_path, packed_path,
                                          region):
        size = packed_path.stat().st_size
        position = {"header": 0, "segment": 64,
                    "footer": _footer_offset(packed_path),
                    "trailer": size - 1}[region]
        path = _flip_byte(packed_path, tmp_path / f"{region}.rpk", position)
        report = verify_packed_file(path)
        assert not report.ok
        assert report.problems

    def test_corruption_error_is_a_storage_error(self):
        assert issubclass(CorruptionError, StorageError)


class TestVerifyTool:
    def test_intact_file_verifies_every_segment(self, packed_path):
        report = verify_packed_file(packed_path)
        assert report.ok
        assert report.format_version == FORMAT_VERSION
        assert report.segments_total > 0
        assert report.segments_verified == report.segments_total
        assert "framing intact" in report.summary()

    def test_corrupt_segment_is_located_without_decompression(self, tmp_path,
                                                              packed_path):
        path = _flip_byte(packed_path, tmp_path / "bad.rpk", 64)
        report = verify_packed_file(path)
        assert not report.ok
        assert report.segments_verified == report.segments_total - 1
        [problem] = report.problems
        assert "column" in problem and "chunk @ row" in problem
        assert "byte range [" in problem

    def test_descriptor_pointing_outside_segment_region(self, tmp_path,
                                                        packed_path,
                                                        packed_editor):
        def dangle(document):
            segments = document["form"]["segments"]
            next(iter(segments.values()))["offset"] = \
                packed_path.stat().st_size + 1_024

        path = packed_editor.rewrite(packed_path, tmp_path / "dangling.rpk",
                                     chunk=("k", 0, dangle))
        report = verify_packed_file(path)
        assert not report.ok
        assert any("outside the segment region" in problem
                   for problem in report.problems)

    @pytest.mark.parametrize("column, edit, expected", [
        ("f", {"segment_length": 0}, "segment_length 0 is not in range(1, "),
        ("f", {"segment_length": 1}, "segments of 1: 4 refs"),
        ("f", {"segment_length": 256}, "segments of 256: 4 refs"),
        ("p", {"segment_length": 1}, "segments of 1: 4 refs"),
        ("f", {"offsets_layout": "bogus"}, "offsets_layout 'bogus' is not in ('packed', 'aligned')"),
        ("f", {"offsets_layout": None}, "offsets_layout None is not in ('packed', 'aligned')"),
        ("p", {"offsets_zigzag": None}, "offsets_zigzag None is not in (False, True)"),
        ("f", {"offsets_zigzag": 1}, "offsets_zigzag 1 is not in (False, True)"),
        ("p", {"patch_count": 3}, "undeclared parameter 'patch_count'"),
        ("l", {"segment_length": 128}, "segments of 128: coefficients [8, 8]"),
        ("y", {"degree": 1}, "constituents ['coeff_0', 'coeff_1', 'coeff_2', 'offsets'] "
                             "for degree 1"),
        ("d", {"code_width": 1}, "1-bit codes cannot address 5 entries"),
        ("d", {"count": 400}, "undeclared parameter 'count'"),
        ("c", {"code_width": 2}, "2-bit codes cannot address 5 entries"),
        ("e", {"base": 2**64}, "base 18446744073709551616 is not in range("),
        ("e", {"base": 9.0}, "base 9.0 is not in range("),
        ("r", {"num_runs": 7}, "undeclared parameter 'num_runs'"),
        ("q", {"num_runs": 7}, "undeclared parameter 'num_runs'"),
        ("n", {"count": 400}, "undeclared parameter 'count'"),
        ("n", {"width": 65}, "width 65 is not in range(1, 65)"),
        ("n", {"transform": "bias", "bias": None}, "bias None is not in range("),
        ("c/codes", {"count": 100}, "undeclared parameter 'count'"),
    ], ids=["for-segment-length-0", "for-too-few-refs", "for-long-segments",
            "pfor-too-few-refs", "for-offsets-layout", "for-offsets-layout-none",
            "pfor-offsets-zigzag", "for-offsets-zigzag-int", "pfor-patch-count",
            "linear-segment-length", "poly-degree",
            "dict", "dict-count", "dict-cascade", "delta-base-beyond-uint64", "delta-base-float",
            "rle-run-count", "rpe-run-count", "ns-count", "ns-width", "ns-bias-not-an-integer",
            "ns-nested-count"])
    def test_a_form_the_kernels_refuse_is_a_problem(self, tmp_path, packed_editor, column,
                                                    edit, expected):
        """RLE/RPE, FOR/PFOR, LINEAR/POLY, DICT, DELTA and NS descriptors
        (``column/constituent``: a nested form's) are held to the form check
        of the kernels and of decompression (the scheme's ``form_problem``),
        on their parameters and constituent lengths alone: the problem names the column and the
        chunk, every segment still verifies, and a filter that reads the
        chunk (its codes or offsets; DELTA, LINEAR and POLY decode) raises an
        OperatorError naming the same problem."""
        from repro.api import col, dataset
        from repro.errors import OperatorError
        from repro.schemes import (Cascade, Delta, DictionaryEncoding, FrameOfReference,
                                   PatchedFrameOfReference, PiecewiseLinear,
                                   PiecewisePolynomial, RunPositionEncoding)

        rng = np.random.default_rng(12)
        table = Table.from_pydict(
            {name: rng.integers(0, 5, 1_024).astype(np.int64) * 9 for name in "fpldyceqrn"},
            schemes={"f": FrameOfReference(segment_length=128),
                     "p": PatchedFrameOfReference(segment_length=128),
                     "l": PiecewiseLinear(segment_length=64),
                     "y": PiecewisePolynomial(segment_length=64, degree=2),
                     "d": DictionaryEncoding(),
                     "c": Cascade(DictionaryEncoding(), {"codes": NullSuppression()}),
                     "e": Delta(), "q": RunPositionEncoding(), "r": RunLengthEncoding(),
                     "n": NullSuppression()},
            chunk_size=512)
        source = save_table(table, tmp_path / "forms.rpk")
        assert verify_packed_file(source).ok
        column, *nested = column.split("/")

        def damage(document):
            form = document["form"]
            for constituent in nested:
                form = form["nested"][constituent]
            form["parameters"].update(edit)

        path = packed_editor.rewrite(source, tmp_path / "malformed.rpk",
                                     chunk=(column, 1, damage))
        report = verify_packed_file(path)
        [problem] = report.problems
        assert f"column {column!r}, chunk @ row 512: malformed" in problem
        assert expected in problem
        assert report.segments_verified == report.segments_total
        with pytest.raises(OperatorError) as raised:
            dataset(open_table(path).table).filter(col(column).between(9, 20)).agg(
                col(column).count()).collect()
        assert expected in str(raised.value)

    @pytest.mark.parametrize("packed", [False, True], ids=["in-memory", "packed"])
    def test_a_projection_refuses_codes_too_narrow_for_the_dictionary(self, tmp_path,
                                                                      packed_editor, packed):
        """A DICT chunk whose ``code_width`` cannot address its dictionary
        decodes to a wrong column unless decompression binds its inputs
        through the form check, as the kernels and ``verify`` do."""
        from repro.api import dataset
        from repro.errors import OperatorError
        from repro.schemes import DictionaryEncoding

        table = Table.from_pydict({"d": np.tile(np.arange(5, dtype=np.int64) * 9, 205)},
                                  schemes={"d": DictionaryEncoding()}, chunk_size=512)
        if packed:
            table = open_table(packed_editor.rewrite(
                save_table(table, tmp_path / "dict.rpk"), tmp_path / "narrow.rpk",
                chunk=("d", 1, lambda document: document["form"]["parameters"].update(
                    code_width=1)))).table
        else:
            table.column("d").chunks[1].form.parameters["code_width"] = 1
        with pytest.raises(OperatorError, match="1-bit codes cannot address 5 entries"):
            dataset(table).select("d").collect()

    def test_missing_file_is_a_problem_not_a_crash(self, tmp_path):
        report = verify_packed_file(tmp_path / "nope.rpk")
        assert not report.ok
        assert "cannot read" in report.problems[0]

    def test_a_directory_is_refused_with_a_clear_problem(self, tmp_path, capsys):
        (tmp_path / "stuff").mkdir()
        report = verify_packed_file(tmp_path / "stuff")
        assert not report.ok
        assert report.problems == [f"{tmp_path / 'stuff'}: cannot read file "
                                   f"([Errno 21] Is a directory: '{tmp_path / 'stuff'}')"]
        assert main([str(tmp_path / "stuff")]) == 1
        assert "0/1 file(s) intact" in capsys.readouterr().out

    def test_cli_exit_codes(self, tmp_path, packed_path, capsys):
        assert main([str(packed_path)]) == 0
        out = capsys.readouterr().out
        assert "1/1 file(s) intact" in out
        bad = _flip_byte(packed_path, tmp_path / "bad.rpk", 64)
        assert main([str(packed_path), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out and "1/2 file(s) intact" in out

    def test_cli_quiet_prints_only_problems(self, tmp_path, packed_path,
                                            capsys):
        assert main(["--quiet", str(packed_path)]) == 0
        assert capsys.readouterr().out == ""
        bad = _flip_byte(packed_path, tmp_path / "bad.rpk", 64)
        assert main(["--quiet", str(bad)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_cli_runs_as_a_module(self, packed_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        source_root = str(Path(repro.__file__).resolve().parents[1])
        environment = dict(os.environ,
                           PYTHONPATH=os.pathsep.join(
                               [source_root,
                                os.environ.get("PYTHONPATH", "")]))
        completed = subprocess.run(
            [sys.executable, "-m", "repro.io.verify", str(packed_path)],
            capture_output=True, text=True, check=False, env=environment)
        assert completed.returncode == 0, completed.stderr
        assert "framing intact" in completed.stdout


class TestDigestsAreMandatory:
    """Stripping one ``crc32`` from the footer must not switch integrity
    checking off for that segment."""

    @pytest.mark.parametrize("replacement", ["absent", None, "12", True, 1.5])
    def test_descriptor_without_an_integer_crc32(self, tmp_path, packed_path,
                                                 packed_editor, replacement):
        def strip(document):
            descriptor = next(iter(document["form"]["segments"].values()))
            if replacement == "absent":
                del descriptor["crc32"]
            else:
                descriptor["crc32"] = replacement

        path = packed_editor.rewrite(packed_path, tmp_path / "stripped.rpk",
                                     chunk=("v", 2, strip))
        with pytest.raises(CorruptionError) as excinfo:
            _materialize_all(path)
        message = str(excinfo.value)
        assert "stripped.rpk" in message
        assert "column 'v', chunk @ row 1024" in message
        assert "no integer crc32" in message and "byte range [" in message

        report = verify_packed_file(path)
        assert not report.ok
        assert report.segments_verified == report.segments_total - 1
        [problem] = report.problems
        assert "column 'v', chunk @ row 1024" in problem
        assert "no integer crc32" in problem and "byte range [" in problem
        assert main(["--quiet", str(path)]) == 1

    def test_written_files_carry_digests_and_a_uuid(self, packed_path):
        packed = open_table(packed_path)
        assert packed.format_version == FORMAT_VERSION == 7
        assert packed.write_uuid is not None and len(packed.write_uuid) == 32

    def test_digest_helper_is_stable(self):
        assert segment_digest(b"") == 0
        assert segment_digest(b"repro") == segment_digest(b"repro")
        assert segment_digest(b"repro") != segment_digest(b"repr0")
