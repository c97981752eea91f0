"""Columnar storage substrate: chunks, stored columns, tables, statistics.

This package carries the "implementation-specific adornments" the paper's
pure-columns view deliberately strips from compressed forms: fixed-size
chunking, per-chunk statistics (zone maps), per-chunk encoding choices, and
the table abstraction the examples and query engine work against.

Durable storage lives in :mod:`repro.io` (the packed single-file format
with mmap-lazy scans); ``save_table`` and ``load_table`` are re-exported
here for convenience.
"""

from .chunk import ColumnChunk
from .column_store import DEFAULT_CHUNK_SIZE, StoredColumn, gather_rows
from .statistics import ColumnStatistics, compute_statistics
from .table import Table

__all__ = [
    "gather_rows",
    "ColumnChunk",
    "StoredColumn",
    "Table",
    "ColumnStatistics",
    "compute_statistics",
    "DEFAULT_CHUNK_SIZE",
    "save_table",
    "load_table",
]


def __getattr__(name):
    # Lazy re-exports from repro.io (which imports this package) — PEP 562
    # keeps the import graph acyclic.
    if name in ("save_table", "load_table"):
        from .. import io
        return getattr(io, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
