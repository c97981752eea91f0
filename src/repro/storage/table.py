"""Tables: named collections of stored columns of equal length.

This is the thin relational veneer over :class:`~repro.storage.column_store.
StoredColumn` that the examples and the query engine work against.  It is
deliberately small — the paper is about columns, not about SQL — but it is
complete enough to express the motivating workload (a shipped-orders table
with a date column) and the queries of experiments E9/E10.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..columnar.column import Column
from ..errors import StorageError
from .column_store import DEFAULT_CHUNK_SIZE, SchemeChooser, StoredColumn


class Table:
    """A collection of equal-length stored columns cut on one chunk grid."""

    def __init__(self, columns: Mapping[str, StoredColumn]):
        if not columns:
            raise StorageError("a table needs at least one column")
        counts = {name: column.row_count for name, column in columns.items()}
        if len(set(counts.values())) != 1:
            raise StorageError(f"columns disagree on row count: {counts}")
        self._columns: Dict[str, StoredColumn] = dict(columns)
        first, *others = self._columns.items()
        zone = first[1].zone_maps()
        #: ``(starts, counts)``: the row offset and row count of every chunk
        #: range, the same for every column, so chunk *i* of any column
        #: covers rows ``[starts[i], starts[i] + counts[i])``.
        self.grid = (zone.starts, zone.counts)
        for name, column in others:
            theirs = column.zone_maps()
            if not (np.array_equal(theirs.starts, zone.starts)
                    and np.array_equal(theirs.counts, zone.counts)):
                raise StorageError(f"column {name!r} is cut on another chunk grid "
                                   f"than column {first[0]!r}")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_columns(
        columns: Mapping[str, Column],
        schemes: Union[Mapping[str, SchemeChooser], str, None] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> "Table":
        """Build a table from in-memory columns.

        *schemes* optionally maps column names to the scheme (or per-chunk
        scheme chooser) used to store them; unmentioned columns are stored
        uncompressed.  The string ``"auto"`` routes every column through the
        compression advisor over the default scheme registry, so in-memory
        results (query outputs) round-trip into first-class
        compressed storage.
        """
        if schemes == "auto":
            # Imported lazily: the planner depends on storage statistics.
            from ..planner import choose_scheme
            schemes = {name: choose_scheme for name in columns}
        schemes = schemes or {}
        stored = {
            name: StoredColumn.from_column(column, name=name,
                                           scheme=schemes.get(name),
                                           chunk_size=chunk_size)
            for name, column in columns.items()
        }
        return Table(stored)

    @staticmethod
    def from_pydict(
        data: Mapping[str, Sequence],
        schemes: Union[Mapping[str, SchemeChooser], str, None] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> "Table":
        """Build a table from plain Python sequences / NumPy arrays (see
        :meth:`from_columns` for the *schemes* forms, including ``"auto"``)."""
        columns = {name: Column(np.asarray(values), name=name)
                   for name, values in data.items()}
        return Table.from_columns(columns, schemes=schemes, chunk_size=chunk_size)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def row_count(self) -> int:
        return next(iter(self._columns.values())).row_count

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def column(self, name: str) -> StoredColumn:
        """The stored column *name* (raises on unknown names)."""
        try:
            return self._columns[name]
        except KeyError:
            raise StorageError(
                f"table has no column {name!r}; columns: {self.column_names}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def compressed_size_bytes(self) -> int:
        """Total compressed bytes across all columns."""
        return sum(column.compressed_size_bytes() for column in self._columns.values())

    def uncompressed_size_bytes(self) -> int:
        """Total uncompressed bytes across all columns."""
        return sum(column.uncompressed_size_bytes() for column in self._columns.values())

    def compression_ratio(self) -> float:
        """Table-wide compression ratio."""
        compressed = self.compressed_size_bytes()
        return self.uncompressed_size_bytes() / compressed if compressed else float("inf")

    def summary(self) -> str:
        """A multi-line, human-readable storage summary (per-column encodings and sizes)."""
        lines = [f"Table: {self.row_count} rows, {len(self._columns)} columns, "
                 f"ratio {self.compression_ratio():.2f}x"]
        for name, column in self._columns.items():
            encodings = sorted(set(column.encodings()))
            lines.append(
                f"  {name}: {column.uncompressed_size_bytes()} B -> "
                f"{column.compressed_size_bytes()} B "
                f"({column.compression_ratio():.2f}x) via {', '.join(encodings)}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def materialize(self, names: Optional[Iterable[str]] = None) -> Dict[str, Column]:
        """Decompress the requested (default: all) columns."""
        names = list(names) if names is not None else self.column_names
        return {name: self.column(name).materialize() for name in names}

    def materialize_rows(self, positions: Column,
                         names: Optional[Iterable[str]] = None) -> Dict[str, Column]:
        """Decompress only the given rows of the requested columns (late materialisation)."""
        names = list(names) if names is not None else self.column_names
        return {name: self.column(name).materialize_rows(positions) for name in names}
