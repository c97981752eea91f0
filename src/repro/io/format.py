"""On-disk layout of the packed single-file table format (version 6).

A packed table file is one flat byte stream::

    +--------------------------------------------------------------+
    | header (16 B): MAGIC "RPROPACK", version u32 LE, flags u32   |
    +--------------------------------------------------------------+
    | chunk 0 of column 0: segment, segment, ... (64-B aligned)    |
    |                      descriptor document (JSON, UTF-8)       |
    | chunk 1 of column 0: segments, descriptor document           |
    | ...                                                          |
    +--------------------------------------------------------------+
    | footer: one JSON document (UTF-8)                            |
    +--------------------------------------------------------------+
    | trailer (24 B): footer offset u64 LE, footer length u64 LE,  |
    |                 TAIL_MAGIC "RPROPEND"                        |
    +--------------------------------------------------------------+

Every constituent column of every chunk's compressed form becomes one
*segment*: the raw bytes of the array, little-endian, padded so each segment
starts on a :data:`SEGMENT_ALIGNMENT` boundary.  Alignment means a reader can
hand out ``np.memmap`` views straight into the file (zero copy) for any
fixed-width dtype, and that a scan which prunes a chunk via its zone map
never touches that chunk's byte ranges at all.

Chunk metadata is columnar too.  The **footer** holds what pruning needs and
nothing else, transposed: per column its name and dtype, then one array over
its chunks for each of ``row_offset``, ``row_count``, every field of
:class:`~repro.storage.statistics.ColumnStatistics` (the zone maps scans
prune with *before* any file I/O) and, under ``descriptors``, the ``offset``,
``nbytes`` and ``crc32`` of each chunk's **descriptor document** — plus the
table's ``row_count`` and the ``write_uuid`` of the write that produced the
file.  A descriptor document is the chunk's ``{scheme, form}``: the scheme
description (rebuildable through the scheme registry), the scalar parameters
of the compressed form — exactly those its scheme declares, never a length
a segment or ``original_length`` states — and the ``(offset, nbytes, dtype, length, crc32)`` of
each constituent segment, recursively for nested (cascade) forms.  It sits
right after the chunk's segments and is read only when the chunk's form or
scheme is first touched.

CRC32 protects each segment (digest in its descriptor document) and each
descriptor document (digest in the footer); the footer is framed by the
trailer, which makes truncation detectable in O(1): a file whose last 24
bytes do not end in :data:`TAIL_MAGIC` was cut short.  Every declared byte
range obeys one rule (:func:`byte_range_problem`) and the footer's arrays one
set of invariants (:func:`check_footer`), whoever reads them.  Only segment
bytes count towards a reader's ``bytes_mapped``: descriptor documents are
metadata, like the footer.

Version 7 is the only format this library reads or writes.  Its framing and
footer are version 6's; what changed is the descriptors' parameters, which no
longer restate a stored length (``count``, ``offsets_count``, ``num_runs``,
``num_segments``, ``dictionary_size``, ``patch_count``) or PFOR's unread
``configured_width``.  A v1 ``.npy`` directory, the digest-free version 2,
version 3 (all chunk metadata in the footer), version 4 (DELTA's first value
stored as ``deltas[0]``), version 5 (no ``total``) and version 6 (those seven
parameters) are refused with a
:class:`~repro.errors.StorageError` that says where they can still be read
(:data:`LEGACY_FORMATS`).  This module holds the
constants, the framing and the metadata rules — including the scheme
descriptions a descriptor stores (:func:`describe_scheme` /
:func:`rebuild_scheme`); :mod:`repro.io.writer` and :mod:`repro.io.reader` do
the byte work.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import os
import struct
import zlib
from itertools import accumulate
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import CorruptionError, StorageError
from ..schemes.base import CompressionScheme
from ..schemes.composite import Cascade
from ..schemes.registry import make_scheme
from ..storage.statistics import ColumnStatistics, ZoneMaps

#: Leading file magic — identifies a packed table file.
MAGIC = b"RPROPACK"

#: Trailing magic — its absence at EOF means the file was truncated.
TAIL_MAGIC = b"RPROPEND"

#: The one version of the packed format this library writes and reads:
#: mandatory CRC32 digests, a footer ``write_uuid``, chunk metadata as
#: per-column arrays in the footer (each chunk's ``total`` among them) plus
#: one descriptor document per chunk, DELTA forms with their ``base`` apart,
#: and only declared form parameters.
FORMAT_VERSION = 7

#: What every refusal of an older table says: no reader and no migration
#: shim for them is kept in the tree, so the error names where one exists.
LEGACY_FORMATS = (
    "v1 table directories and digest-free packed version-2 files were last "
    "readable at commit 109b472, packed version-3 files at commit dd1236e, "
    "packed version-4 files at commit 2fa05c1, packed version-5 files at "
    "commit 885b731, packed version-6 files at commit ac9e44f; load the table "
    "there and rewrite it with save_table")

#: Segment start alignment, in bytes.  64 covers every NumPy dtype's
#: natural alignment and one cache line.
SEGMENT_ALIGNMENT = 64

#: Fixed sizes of the framing regions.
HEADER_SIZE = len(MAGIC) + 4 + 4  # magic + version u32 + flags u32
TRAILER_SIZE = 8 + 8 + len(TAIL_MAGIC)  # footer offset + length + magic

_HEADER_STRUCT = struct.Struct("<8sII")
_TRAILER_STRUCT = struct.Struct("<QQ8s")


def pack_header(version: int = FORMAT_VERSION, flags: int = 0) -> bytes:
    """The 16-byte file header."""
    return _HEADER_STRUCT.pack(MAGIC, version, flags)


def pack_trailer(footer_offset: int, footer_length: int) -> bytes:
    """The 24-byte file trailer."""
    return _TRAILER_STRUCT.pack(footer_offset, footer_length, TAIL_MAGIC)


def read_footer(path: Any) -> Tuple[int, int, bytes]:
    """Read *path*'s framing: ``(format version, footer offset, footer bytes)``.

    The one place header, trailer and footer are read and checked against
    the file's size — opening a table, fingerprinting it and verifying it
    all start here.  Raises :class:`StorageError` naming *path* on a file too
    short for its framing, a wrong magic, a version other than
    :data:`FORMAT_VERSION`, a missing tail magic (truncation) or a footer
    range that does not fit inside the file; an ``OSError`` (no such file, a
    directory) is the caller's to word.
    """
    with open(path, "rb") as handle:
        file_size = os.fstat(handle.fileno()).st_size
        if file_size < HEADER_SIZE + TRAILER_SIZE:
            raise StorageError(
                f"{path}: truncated packed table file "
                f"({file_size} bytes cannot hold header and trailer)"
            )
        magic, version, _flags = _HEADER_STRUCT.unpack(handle.read(HEADER_SIZE))
        if magic != MAGIC:
            raise StorageError(
                f"{path}: not a packed table file (leading magic {magic!r}, "
                f"expected {MAGIC!r})"
            )
        if version != FORMAT_VERSION:
            raise StorageError(
                f"{path}: unsupported packed format version {version}, "
                f"this library reads version {FORMAT_VERSION} ({LEGACY_FORMATS})"
            )
        handle.seek(file_size - TRAILER_SIZE)
        footer_offset, footer_length, tail = _TRAILER_STRUCT.unpack(handle.read(TRAILER_SIZE))
        if tail != TAIL_MAGIC:
            raise StorageError(
                f"{path}: truncated or corrupt packed table file "
                f"(tail magic {tail!r}, expected {TAIL_MAGIC!r})"
            )
        footer_end = footer_offset + footer_length
        if footer_end + TRAILER_SIZE > file_size or footer_offset < HEADER_SIZE:
            raise StorageError(
                f"{path}: corrupt packed table file (footer range "
                f"[{footer_offset}, {footer_end}) does not fit "
                f"a {file_size}-byte file)"
            )
        handle.seek(footer_offset)
        return version, footer_offset, handle.read(footer_length)


def segment_digest(data: bytes) -> int:
    """The integrity digest of one segment's raw bytes (CRC32, unsigned).

    CRC32 is the only always-available checksum in the standard library
    that is fast enough for the hot read path (xxhash would be preferred
    but must not become a hard dependency); collisions are irrelevant here
    — the digest detects accidental corruption, not adversaries.
    """
    return zlib.crc32(data) & 0xFFFFFFFF


def digest_problem(descriptor: Dict[str, Any], data: bytes) -> "str | None":
    """What is wrong with a segment's bytes under its descriptor's ``crc32``
    (``None`` when they match) — the one check behind the reader's lazy
    verification and ``python -m repro.io.verify``.  The digest is
    mandatory: a descriptor without an integer ``crc32`` is a problem too,
    or deleting one key from the footer would turn verification off."""
    expected = descriptor.get("crc32")
    if not isinstance(expected, int) or isinstance(expected, bool):
        return f"descriptor records no integer crc32 (found {expected!r})"
    actual = segment_digest(data)
    if actual != expected:
        return f"crc32 {actual:#010x}, recorded {expected:#010x}"
    return None


def outside_segment_region(offset, nbytes, footer_offset: int):
    """Whether ``[offset, offset + nbytes)`` leaves the segment region
    ``[HEADER_SIZE, footer_offset)`` — Python ints or ``int64`` arrays alike
    (no sum is formed, so a huge *nbytes* cannot wrap)."""
    return (offset < HEADER_SIZE) | (nbytes < 0) | (nbytes > footer_offset - offset)


def byte_range_problem(entry: Mapping[str, Any], footer_offset: int) -> Optional[str]:
    """What is wrong with the byte range *entry* declares (``None``: nothing).

    The one byte-range rule, for a segment's entry in a descriptor document
    and a descriptor's entry in the footer alike; the reader's segment load,
    its descriptor load and ``python -m repro.io.verify`` all ask here before
    they slice the file.  ``offset`` and ``nbytes`` are integers (no bool,
    float or string), the range lies inside the segment region, and an entry
    with a ``dtype`` holds exactly ``length`` values of it.  The digest half
    of an entry is :func:`digest_problem`'s.
    """
    if not isinstance(entry, dict):
        return f"is described by a {type(entry).__name__}, not an object"
    offset, nbytes = entry.get("offset"), entry.get("nbytes")
    if type(offset) is not int or type(nbytes) is not int:
        return f"records a non-integer byte range (offset {offset!r}, nbytes {nbytes!r})"
    if "dtype" in entry or "length" in entry:
        length = entry.get("length")
        try:
            dtype = stored_dtype(entry.get("dtype"))
        except TypeError:
            return f"names no known dtype ({entry.get('dtype')!r})"
        if type(length) is not int or length < 0 or nbytes != length * dtype.itemsize:
            return f"declares {nbytes} bytes for {length!r} values of {dtype}"
    if outside_segment_region(offset, nbytes, footer_offset):
        return (
            f"records byte range [{offset}, {offset + nbytes}) outside the "
            f"segment region [{HEADER_SIZE}, {footer_offset})"
        )
    return None


def aligned(offset: int, alignment: int = SEGMENT_ALIGNMENT) -> int:
    """The smallest multiple of *alignment* that is ``>= offset``."""
    return -(-offset // alignment) * alignment


def little_endian(dtype: np.dtype) -> np.dtype:
    """The little-endian flavour of *dtype* (identity for 1-byte dtypes)."""
    dtype = np.dtype(dtype)
    return dtype.newbyteorder("<") if dtype.byteorder == ">" else dtype


def stored_dtype(name: Any) -> np.dtype:
    """The dtype a file names — a string naming a boolean, integer or float
    dtype; a ``TypeError`` for anything else (``np.dtype(None)`` is float64)."""
    dtype = np.dtype(name if isinstance(name, str) else "")
    if dtype.kind not in "biuf":
        raise TypeError(f"{name!r} is not the dtype of a stored column")
    return dtype


def describe_scheme(scheme: CompressionScheme) -> Dict[str, Any]:
    """A JSON-serialisable description from which the scheme can be rebuilt."""
    if isinstance(scheme, Cascade):
        return {
            "kind": "cascade",
            "outer": describe_scheme(scheme.outer),
            "inner": {name: describe_scheme(inner) for name, inner in scheme.inner.items()},
        }
    return {"kind": "scheme", "name": scheme.name, "parameters": scheme.parameters()}


def rebuild_scheme(description: Dict[str, Any]) -> CompressionScheme:
    """Invert :func:`describe_scheme` via the scheme registry."""
    if description["kind"] == "cascade":
        outer = rebuild_scheme(description["outer"])
        inner = {name: rebuild_scheme(sub) for name, sub in description["inner"].items()}
        return Cascade(outer, inner)
    return make_scheme(description["name"], **description["parameters"])


def encode_footer(document: Dict[str, Any]) -> bytes:
    """Serialise a footer or descriptor document to bytes (NumPy scalars as
    the Python numbers they hold)."""
    return json.dumps(
        document, default=operator.methodcaller("item"), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def decode_footer(data: bytes, path: Any) -> Dict[str, Any]:
    """Parse the footer document, raising :class:`StorageError` on garbage."""
    try:
        footer = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise StorageError(f"{path}: corrupt packed table footer ({error})") from None
    if not isinstance(footer, dict) or "columns" not in footer:
        raise StorageError(f"{path}: packed table footer is not a table description")
    return footer


def read_descriptor(data: Any, entry: Dict[str, Any], footer_offset: int, rows: int, where: str):
    """One chunk's ``{scheme, form}`` document out of *data*, the mapped file.

    *entry* is the chunk's ``{offset, nbytes, crc32}`` from the footer and
    *rows* its ``row_count`` there.  The range is held to
    :func:`byte_range_problem`, the bytes to their digest, the JSON to being
    an object with a form, and the form to the one fact the format states
    twice: ``original_length`` is the footer's ``row_count``.  Raises
    :class:`StorageError` (:class:`CorruptionError` for the digest) opening
    with *where* — file, column and chunk row.
    """
    problem = byte_range_problem(entry, footer_offset)
    if problem is not None:
        raise StorageError(f"{where}: chunk descriptor {problem}")
    raw = data[entry["offset"] : entry["offset"] + entry["nbytes"]]
    problem = digest_problem(entry, raw)
    if problem is not None:
        raise CorruptionError(
            f"{where}: chunk descriptor failed its integrity check ({problem}, "
            f"byte range [{entry['offset']}, {entry['offset'] + entry['nbytes']}))"
        )
    try:
        document = json.loads(bytes(raw))
        length = document["form"]["original_length"]
    except (ValueError, KeyError, TypeError) as error:
        raise StorageError(
            f"{where}: malformed chunk descriptor ({type(error).__name__}: {error})"
        ) from None
    if type(length) is not int or length != rows:
        raise StorageError(
            f"{where}: chunk descriptor's form holds {length!r} rows, "
            f"the footer's row_count says {rows}"
        )
    return document


#: The per-chunk arrays of a column's footer entry besides ``row_offset`` and
#: ``row_count``: one per statistic, three locating the descriptor document.
STATISTICS = tuple(field.name for field in dataclasses.fields(ColumnStatistics))
DESCRIPTOR_KEYS = ("offset", "nbytes", "crc32")


class ColumnLayout(NamedTuple):
    """One column's footer entry, checked (:func:`check_footer`): *rows* and
    *counts* are ``row_offset`` and ``row_count`` as the footer lists them,
    *zone_maps* is what :meth:`StoredColumn.zone_maps` hands out."""

    name: str
    dtype: np.dtype
    rows: List[int]
    counts: List[int]
    zone_maps: ZoneMaps
    statistics: Dict[str, list]
    descriptors: Dict[str, list]

    def descriptor(self, index: int) -> Dict[str, int]:
        """Chunk *index*'s descriptor entry, as the byte-range rule reads one."""
        return {key: self.descriptors[key][index] for key in DESCRIPTOR_KEYS}


def _malformed(path: Any, name: Any, row: Any, what: str) -> StorageError:
    return StorageError(
        f"{path}: malformed chunk metadata in packed footer "
        f"(column {name!r}, chunk @ row {row}: {what})"
    )


def _column_layout(entry: Any, total: int, footer_offset: int, path: Any) -> ColumnLayout:
    name = entry.get("name") if isinstance(entry, dict) else None
    rows = None

    def fail(what: str, bad=None) -> StorageError:
        row = "?" if bad is None else (rows + ["end"])[list(bad).index(True)]
        return _malformed(path, name, row, what)

    try:
        dtype = stored_dtype(entry["dtype"])
        statistics, descriptors = entry["statistics"], entry["descriptors"]
        arrays = [entry["row_offset"], entry["row_count"]]
        arrays += [statistics[key] for key in STATISTICS if key != "is_sorted"]
        arrays += [descriptors[key] for key in DESCRIPTOR_KEYS]
        if len(statistics) != len(STATISTICS) or not isinstance(name, str):
            raise TypeError(f"unknown statistics or name in {sorted(statistics)!r}, {name!r}")
        chunks, flags = len(arrays[0]), statistics["is_sorted"]
        if not all(type(values) is list and len(values) == chunks for values in (*arrays, flags)):
            raise TypeError(f"every per-chunk array must be a list of {chunks} entries")
        kinds = {type(value) for values in arrays for value in values}
        if kinds != {int} or set(map(type, flags)) != {bool}:
            raise TypeError("a per-chunk array holds a non-integer (is_sorted: a non-boolean)")
    except (KeyError, TypeError) as error:
        raise fail(f"{type(error).__name__}: {error}") from None
    rows, counts = arrays[:2]
    if min(counts) <= 0:
        raise fail("row_count must be positive", (count <= 0 for count in counts))
    sums = list(accumulate(counts, initial=0))
    if sums != rows + [total]:
        what = f"row_offset is not the running sum of row_count up to the table's {total} rows"
        raise fail(what, map(operator.ne, sums, rows + [total]))
    if statistics["count"] != counts:
        bad = map(operator.ne, statistics["count"], counts)
        raise fail("statistics.count is not row_count", bad)
    minimum, maximum, totals = statistics["minimum"], statistics["maximum"], statistics["total"]
    if not all(map(operator.le, minimum, maximum)):
        raise fail("minimum exceeds maximum", map(operator.gt, minimum, maximum))
    if dtype.kind in "iu":  # zone maps are exact, and kept as arrays, for integer columns
        low, high = np.iinfo(dtype).min, np.iinfo(dtype).max
        if min(minimum) < low or max(maximum) > high:
            outside = (lo < low or hi > high for lo, hi in zip(minimum, maximum))
            raise fail(f"zone map outside the range of {dtype}", outside)
        off = [not n * lo <= t <= n * hi for n, lo, hi, t in zip(counts, minimum, maximum, totals)]
        if any(off):
            raise fail("total outside [count * minimum, count * maximum]", off)
    elif any(totals):
        raise fail(f"a {dtype} column records a non-zero total", map(bool, totals))
    outside = [
        outside_segment_region(offset, nbytes, footer_offset) or nbytes == 0
        for offset, nbytes in zip(descriptors["offset"], descriptors["nbytes"])
    ]
    if any(outside):
        what = f"descriptor outside the segment region [{HEADER_SIZE}, {footer_offset})"
        raise fail(what, outside)
    zone_maps = ZoneMaps.of(dtype, rows, counts, minimum, maximum, totals)
    return ColumnLayout(name, dtype, rows, counts, zone_maps, statistics, descriptors)


def check_footer(footer: Dict[str, Any], path: Any, footer_offset: int) -> List[ColumnLayout]:
    """The semantic invariants of a footer, checked; its columns' layouts.

    What the reader's ``.table`` and ``python -m repro.io.verify`` both run
    before they trust an array: per column, every per-chunk array is a list
    of integers (``is_sorted``: booleans) of one length; ``row_offset`` is
    the running sum of ``row_count`` from 0 to the table's ``row_count``;
    counts are positive and equal ``statistics.count``; ``minimum <=
    maximum``, both within an integer column's dtype, whose ``total`` lies in
    ``[count * minimum, count * maximum]`` (any other column's is 0); every
    descriptor range lies inside the segment region and no two of the file
    overlap; every column lists the first column's ``row_offset`` (one chunk
    grid).  A violation is a :class:`StorageError` naming file, column and
    chunk row.
    """
    total, columns = footer.get("row_count"), footer["columns"]
    if type(total) is not int or not 0 < total < 2**63 or not isinstance(columns, list):
        raise StorageError(f"{path}: packed table footer declares {total!r} rows")
    layouts = [_column_layout(entry, total, footer_offset, path) for entry in columns]
    if len({layout.name for layout in layouts}) != len(layouts) or not layouts:
        raise StorageError(f"{path}: packed table footer names no column, or one twice")
    first = layouts[0]
    for layout in layouts[1:]:
        if layout.rows != first.rows:
            row = next(a for a, b in zip(layout.rows + ["end"], first.rows + ["end"]) if a != b)
            what = f"row_offset leaves column {first.name!r}'s chunk grid"
            raise _malformed(path, layout.name, row, what)
    offsets, sizes = (
        np.asarray([value for layout in layouts for value in layout.descriptors[key]])
        for key in ("offset", "nbytes")
    )
    order = np.argsort(offsets, kind="stable")
    overlaps = (offsets + sizes)[order[:-1]] > offsets[order[1:]]
    if overlaps.any():
        chunks = [(layout.name, row) for layout in layouts for row in layout.rows]
        name, row = chunks[order[1:][overlaps][0]]  # the later of the two
        raise _malformed(path, name, row, "descriptor overlaps another chunk's")
    return layouts
