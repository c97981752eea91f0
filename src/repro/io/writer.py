"""Writing tables into the packed single-file format (v7).

The writer walks a :class:`~repro.storage.table.Table` column by column,
chunk by chunk, and streams every constituent column of every compressed
form into the file as one aligned *segment* of raw little-endian bytes,
then the chunk's descriptor document — scheme description, form parameters
and the ``(offset, nbytes, dtype, length, crc32)`` of every segment — right
behind them.  What pruning reads accumulates into the JSON footer as one
array over a column's chunks per field (row offsets and counts, statistics,
where each descriptor document sits and its digest), written last, followed
by the fixed trailer.

The format carries end-to-end integrity: every segment's entry holds the
CRC32 of its raw bytes and every descriptor document's footer entry the
CRC32 of the document (verified lazily by the reader on first touch, and
exhaustively by ``python -m repro.io.verify``), and the footer carries a
``write_uuid`` that changes on every write — the process backend's
per-worker table cache keys on it, so an in-place rewrite is never served
from a stale mmap even when size and mtime agree.

Nothing is buffered beyond one segment's bytes: a table much larger than
memory could be streamed, chunk at a time, as long as its ``Table`` object
can be held (compressed) in memory.
"""

from __future__ import annotations

import uuid
from pathlib import Path
from typing import Any, BinaryIO, Dict, Union

import numpy as np

from .. import __version__
from ..errors import StorageError
from ..schemes.base import CompressedForm
from ..storage.column_store import StoredColumn
from ..storage.table import Table
from .format import (
    DESCRIPTOR_KEYS,
    FORMAT_VERSION,
    HEADER_SIZE,
    SEGMENT_ALIGNMENT,
    STATISTICS,
    aligned,
    describe_scheme,
    encode_footer,
    little_endian,
    pack_header,
    pack_trailer,
    segment_digest,
)

PathLike = Union[str, Path]

#: Conventional file suffix for packed tables (not enforced on read).
PACKED_SUFFIX = ".rpk"


class _SegmentStream:
    """Appends byte ranges to *handle*, tracking the running offset."""

    def __init__(self, handle: BinaryIO, offset: int):
        self._handle = handle
        self.offset = offset

    def write(self, data: bytes, alignment: int = 1) -> Dict[str, Any]:
        """Write *data* at the next multiple of *alignment*; return where it
        went and its digest."""
        start = aligned(self.offset, alignment)
        self._handle.write(b"\x00" * (start - self.offset))
        self._handle.write(data)
        self.offset = start + len(data)
        return {"offset": start, "nbytes": len(data), "crc32": segment_digest(data)}

    def append(self, values: np.ndarray, name: str) -> Dict[str, Any]:
        """Write one constituent array; return its segment descriptor."""
        arr = np.ascontiguousarray(values)
        dtype = little_endian(arr.dtype)
        if dtype != arr.dtype:
            arr = arr.astype(dtype)
        placed = self.write(arr.tobytes(), SEGMENT_ALIGNMENT)
        return {"name": name, "dtype": dtype.str, "length": int(arr.shape[0]), **placed}


def _write_form(form: CompressedForm, stream: _SegmentStream) -> Dict[str, Any]:
    """Stream a compressed form's constituents; return its descriptor."""
    segments = {name: stream.append(col.values, name) for name, col in form.columns.items()}
    nested = {name: _write_form(sub, stream) for name, sub in form.nested.items()}
    return {
        "scheme": form.scheme,
        "parameters": form.parameters,
        "original_length": int(form.original_length),
        "original_dtype": np.dtype(form.original_dtype).str,
        "segments": segments,
        "nested": nested,
    }


def _write_column(column: StoredColumn, stream: _SegmentStream) -> Dict[str, Any]:
    """Stream every chunk's segments and descriptor document; return the
    column's footer entry, one array over the chunks per field."""
    chunks = list(column.iter_chunks())
    placed = [
        stream.write(
            encode_footer(
                {"scheme": describe_scheme(chunk.scheme), "form": _write_form(chunk.form, stream)}
            )
        )
        for chunk in chunks
    ]
    return {
        "name": column.name,
        "dtype": np.dtype(column.dtype).str,
        "row_offset": [int(chunk.row_offset) for chunk in chunks],
        "row_count": [int(chunk.row_count) for chunk in chunks],
        "statistics": {
            key: [getattr(chunk.statistics, key) for chunk in chunks] for key in STATISTICS
        },
        "descriptors": {key: [entry[key] for entry in placed] for key in DESCRIPTOR_KEYS},
    }


def write_packed_table(table: Table, path: PathLike) -> Path:
    """Write *table* as one packed file at *path* (parents created).

    Returns the path written.  The write is atomic at the filesystem level:
    bytes go to ``<path>.tmp`` first and are renamed into place, so a
    crashed write never leaves a half-file under the final name.
    """
    if not isinstance(table, Table):
        raise StorageError("write_packed_table() expects a Table")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(pack_header())
            stream = _SegmentStream(handle, HEADER_SIZE)
            columns = [_write_column(table.column(name), stream) for name in table.column_names]
            footer = {
                "format_version": FORMAT_VERSION,
                "writer": f"repro {__version__}",
                "segment_alignment": SEGMENT_ALIGNMENT,
                "row_count": int(table.row_count),
                "columns": columns,
                "write_uuid": uuid.uuid4().hex,
            }
            footer_bytes = encode_footer(footer)
            footer_offset = stream.offset
            handle.write(footer_bytes)
            handle.write(pack_trailer(footer_offset, len(footer_bytes)))
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    tmp_path.replace(path)
    return path
