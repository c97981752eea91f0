"""Durable tables: the packed single-file format (v7).

The paper's claim that compressed forms are *just named columns plus
scalars* extends naturally across the process boundary: on disk, a table is
the same bundle — constituent segments plus metadata.  This package makes
that durable and **lazy**:

* :func:`save_table` writes a table as one packed file (aligned segments
  with CRC32 digests, a digest-protected descriptor document per chunk, a
  JSON footer of per-column arrays — chunk boundaries, zone-map statistics
  and sums, where each descriptor sits — and a truncation-detecting trailer);
* :func:`load_table` / :func:`open_table` read it back *without touching
  segment bytes*: chunks carry mmap-backed lazy constituents, so a
  query's zone-map pruning decides chunk survival before any I/O and
  surviving chunks map only the constituent ranges actually used.

Packed version 7 is the only format read or written.  Truncated files,
unknown versions and the formats that preceded it (v1 ``.npy`` directories,
packed versions 2 to 6) raise a :class:`~repro.errors.StorageError` naming
the path and the found vs. expected version; for the old formats it also
names the last commit that could read them — no reader or migration shim
for them lives here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..storage.table import Table
from .format import FORMAT_VERSION, MAGIC, SEGMENT_ALIGNMENT, TAIL_MAGIC, segment_digest
from .reader import (
    LazyConstituents,
    PackedForm,
    PackedTableFile,
    footer_fingerprint,
    open_packed_table,
)
from .writer import PACKED_SUFFIX, write_packed_table

PathLike = Union[str, Path]

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "TAIL_MAGIC",
    "SEGMENT_ALIGNMENT",
    "PACKED_SUFFIX",
    "LazyConstituents",
    "PackedForm",
    "PackedTableFile",
    "footer_fingerprint",
    "segment_digest",
    "open_packed_table",
    "open_table",
    "write_packed_table",
    "save_table",
    "load_table",
]


def save_table(table: Table, path: PathLike) -> Path:
    """Persist *table* at *path* in the packed format (one file)."""
    return write_packed_table(table, path)


def open_table(path: PathLike) -> PackedTableFile:
    """Open a packed table file lazily, exposing I/O accounting.

    Alias of :func:`open_packed_table`; use this when you want the
    :class:`PackedTableFile` handle (``.table``, ``.bytes_mapped``,
    ``.file_size``) rather than just the table.
    """
    return open_packed_table(path)


def load_table(path: PathLike) -> Table:
    """Load a table saved by :func:`save_table`: a lazy, mmap-backed table
    (see :func:`open_table` for the handle with I/O accounting).

    Truncated files, directories and unknown format versions raise
    :class:`~repro.errors.StorageError` naming the path and the found vs.
    expected version.
    """
    return open_packed_table(path).table
