"""On-disk layout of the packed single-file table format (version 3).

A packed table file is one flat byte stream::

    +--------------------------------------------------------------+
    | header (16 B): MAGIC "RPROPACK", version u32 LE, flags u32   |
    +--------------------------------------------------------------+
    | segment 0  (raw little-endian array bytes, 64-B aligned)     |
    | segment 1                                                    |
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

The footer is self-describing: it records, per column and per chunk, the
scheme description (rebuildable through the scheme registry), the scalar
parameters of the compressed form, the persisted
:class:`~repro.storage.statistics.ColumnStatistics` (the zone maps scans
prune with *before* any segment I/O), and the ``(offset, nbytes, dtype,
length, crc32)`` of each constituent segment — recursively for nested
(cascade) forms — and the ``write_uuid`` of the write that produced the
file.  The trailer makes truncation detectable in O(1): a file whose last
24 bytes do not end in :data:`TAIL_MAGIC` was cut short.

Version 3 is the only format this library reads or writes.  The loose
``.npy`` directories (v1) and the digest-free packed version 2 that came
before it are refused with a :class:`~repro.errors.StorageError` that says
where they can still be read (:data:`LEGACY_FORMATS`).

This module holds the constants and the footer (de)serialisation helpers —
including the scheme descriptions the footer stores
(:func:`describe_scheme` / :func:`rebuild_scheme`);
:mod:`repro.io.writer` and :mod:`repro.io.reader` do the byte work.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict

import numpy as np

from ..errors import StorageError
from ..schemes.base import CompressionScheme
from ..schemes.composite import Cascade
from ..schemes.registry import make_scheme

#: Leading file magic — identifies a packed table file.
MAGIC = b"RPROPACK"

#: Trailing magic — its absence at EOF means the file was truncated.
TAIL_MAGIC = b"RPROPEND"

#: The one version of the packed format this library writes and reads:
#: per-segment CRC32 digests (``crc32`` in each segment descriptor, mandatory)
#: and a footer ``write_uuid``.
FORMAT_VERSION = 3

#: What every refusal of an older table says: no reader and no migration
#: shim for them is kept in the tree, so the error names where one exists.
LEGACY_FORMATS = (
    "v1 table directories and digest-free packed version-2 files were last "
    "readable at commit 109b472 (PR 13); load the table there and rewrite "
    "it with save_table")

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


def unpack_header(data: bytes, path: Any) -> int:
    """Validate the header bytes and return the format version found.

    Raises :class:`StorageError` naming *path* when the magic is wrong or
    the version is not :data:`FORMAT_VERSION`.
    """
    if len(data) < HEADER_SIZE:
        raise StorageError(
            f"{path}: truncated packed table file "
            f"({len(data)} bytes is smaller than the {HEADER_SIZE}-byte header)"
        )
    magic, version, _flags = _HEADER_STRUCT.unpack(data[:HEADER_SIZE])
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
    return version


def unpack_trailer(data: bytes, file_size: int, path: Any) -> "tuple[int, int]":
    """Validate the trailer bytes and return ``(footer_offset, footer_length)``.

    Raises :class:`StorageError` naming *path* on a missing tail magic
    (truncation) or a footer range that does not fit inside the file.
    """
    if len(data) < TRAILER_SIZE:
        raise StorageError(
            f"{path}: truncated packed table file "
            f"({file_size} bytes is smaller than the {TRAILER_SIZE}-byte trailer)"
        )
    footer_offset, footer_length, tail = _TRAILER_STRUCT.unpack(data[-TRAILER_SIZE:])
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
    return footer_offset, footer_length


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


def aligned(offset: int, alignment: int = SEGMENT_ALIGNMENT) -> int:
    """The smallest multiple of *alignment* that is ``>= offset``."""
    return -(-offset // alignment) * alignment


def little_endian(dtype: np.dtype) -> np.dtype:
    """The little-endian flavour of *dtype* (identity for 1-byte dtypes)."""
    dtype = np.dtype(dtype)
    return dtype.newbyteorder("<") if dtype.byteorder == ">" else dtype


def json_safe(value: Any) -> Any:
    """Recursively convert NumPy scalars (in dicts/lists too) for ``json``."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


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


def encode_footer(footer: Dict[str, Any]) -> bytes:
    """Serialise the footer document to bytes."""
    return json.dumps(json_safe(footer), sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_footer(data: bytes, path: Any) -> Dict[str, Any]:
    """Parse the footer document, raising :class:`StorageError` on garbage."""
    try:
        footer = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise StorageError(f"{path}: corrupt packed table footer ({error})") from None
    if not isinstance(footer, dict) or "columns" not in footer:
        raise StorageError(f"{path}: packed table footer is not a table description")
    return footer
