"""Stored columns: a sequence of (optionally differently-encoded) chunks.

A :class:`StoredColumn` is what the table layer holds for each attribute:
the column cut into fixed-size chunks, each chunk compressed with whatever
scheme was chosen for it (all chunks may share one scheme, or the advisor
may pick per chunk).  It exposes enough structure for the query engine to
work chunk-at-a-time — the standard vectorised execution granularity — and
to push predicates down to chunk statistics and compressed forms.

A stored column does not care where its chunks' constituents live: built
from memory they are plain arrays, loaded from a packed file
(:mod:`repro.io`) they are mmap-backed lazy segments that materialise on
first access — either way the engine sees the same
:class:`~repro.storage.chunk.ColumnChunk` interface.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..columnar.column import Column, concat_columns
from ..errors import StorageError
from ..schemes.base import CompressionScheme
from ..schemes.identity import Identity
from .chunk import ColumnChunk
from .statistics import ZoneMaps

#: A scheme, or a callable choosing a scheme per chunk (given the chunk column).
SchemeChooser = Union[CompressionScheme, Callable[[Column], CompressionScheme], None]

DEFAULT_CHUNK_SIZE = 1 << 16


class StoredColumn:
    """A named, chunked, compressed column."""

    def __init__(self, name: str, chunks: Sequence[ColumnChunk], dtype: np.dtype,
                 zone_maps: Optional[ZoneMaps] = None):
        if not chunks:
            raise StorageError(f"stored column {name!r} must have at least one chunk")
        self.name = name
        self.chunks: List[ColumnChunk] = list(chunks)
        self.dtype = np.dtype(dtype)
        #: What :meth:`zone_maps` returns; a packed file hands over its
        #: checked footer arrays, else they are taken on first request.
        self._zone_maps = zone_maps
        offsets = [] if zone_maps is not None else [chunk.row_offset for chunk in self.chunks]
        if offsets != sorted(offsets):
            raise StorageError(f"chunks of column {name!r} are not in row order")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_column(
        column: Column,
        name: Optional[str] = None,
        scheme: SchemeChooser = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> "StoredColumn":
        """Chunk and compress *column*.

        *scheme* may be a single scheme (used for every chunk), a callable
        invoked per chunk (the hook the compression advisor plugs into), or
        ``None`` for no compression.
        """
        if chunk_size <= 0:
            raise StorageError(f"chunk_size must be positive, got {chunk_size}")
        if len(column) == 0:
            raise StorageError("cannot store an empty column")
        name = name or column.name or "column"
        chunks: List[ColumnChunk] = []
        for start in range(0, len(column), chunk_size):
            piece = Column(column.values[start:start + chunk_size], name=name)
            if scheme is None:
                chunk_scheme: CompressionScheme = Identity()
            elif isinstance(scheme, CompressionScheme):
                chunk_scheme = scheme
            else:
                chunk_scheme = scheme(piece)
            chunks.append(ColumnChunk.from_column(piece, chunk_scheme, row_offset=start))
        return StoredColumn(name, chunks, column.dtype)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def row_count(self) -> int:
        """Total number of rows across all chunks."""
        last = self.chunks[-1]
        return last.row_offset + last.row_count

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    def zone_maps(self) -> ZoneMaps:
        """The one columnar view of the chunks (:class:`ZoneMaps`): row
        offsets and counts, and an integer column's bounds and totals.  Built
        once and kept; every per-query walk over the chunk list reads this."""
        if self._zone_maps is None:
            facts = [(chunk.row_offset, chunk.row_count, chunk.statistics.minimum,
                      chunk.statistics.maximum, chunk.statistics.total) for chunk in self.chunks]
            self._zone_maps = ZoneMaps.of(self.dtype, *zip(*facts))
        return self._zone_maps

    def encodings(self) -> List[str]:
        """The encoding used by each chunk, in order."""
        return [chunk.encoding for chunk in self.chunks]

    def compressed_size_bytes(self) -> int:
        """Total compressed bytes across all chunks."""
        return sum(chunk.compressed_size_bytes() for chunk in self.chunks)

    def uncompressed_size_bytes(self) -> int:
        """Total uncompressed bytes across all chunks."""
        return sum(chunk.uncompressed_size_bytes() for chunk in self.chunks)

    def compression_ratio(self) -> float:
        """Uncompressed bytes divided by compressed bytes."""
        compressed = self.compressed_size_bytes()
        return self.uncompressed_size_bytes() / compressed if compressed else float("inf")

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    def iter_chunks(self) -> Iterator[ColumnChunk]:
        """Iterate over the chunks in row order."""
        return iter(self.chunks)

    def materialize(self) -> Column:
        """Decompress the whole column into one :class:`Column`."""
        pieces = [chunk.decompress() for chunk in self.chunks]
        out = concat_columns(pieces, name=self.name)
        return out if out.dtype == self.dtype else out.astype(self.dtype)

    def materialize_rows(self, positions: Column) -> Column:
        """Materialise only the given global row positions (:func:`gather_rows`)."""
        return gather_rows(self, positions)


def gather_rows(stored: StoredColumn, positions: Column) -> Column:
    """Materialise *stored* at the given global row positions.

    Positions may be sorted or unsorted; the output preserves their order.
    Positions are bucketed per chunk with a single ``searchsorted`` +
    stable argsort, and only chunks containing at least one requested
    position are decompressed.
    """
    pos = positions.values.astype(np.int64)
    if pos.size and (pos.min() < 0 or pos.max() >= stored.row_count):
        raise StorageError("materialize_rows(): positions out of range")
    result = np.empty(pos.size, dtype=stored.dtype)
    if pos.size == 0:
        return Column(result, name=stored.name)

    chunk_of = np.searchsorted(stored.zone_maps().starts, pos, side="right") - 1
    order = np.argsort(chunk_of, kind="stable")
    sorted_chunks = chunk_of[order]
    hit_chunks = np.unique(sorted_chunks)
    bounds = np.searchsorted(sorted_chunks, hit_chunks, side="left")
    ends = np.append(bounds[1:], sorted_chunks.size)

    for chunk_index, start, stop in zip(hit_chunks, bounds, ends):
        chunk = stored.chunks[chunk_index]
        take = order[start:stop]
        values = chunk.decompress().values
        result[take] = values[pos[take] - chunk.row_offset]
    return Column(result, name=stored.name)
