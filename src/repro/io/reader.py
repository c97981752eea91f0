"""Reading packed table files with mmap-lazy constituent segments.

Opening a packed file (:class:`PackedTableFile`) reads and validates only
the fixed header, the fixed trailer, and the JSON footer.  The table it
exposes is a perfectly ordinary :class:`~repro.storage.table.Table` of
:class:`~repro.storage.column_store.StoredColumn` objects, built in steps so
that a query pays for the chunks it touches:

* ``.table`` checks the footer's per-column arrays
  (:func:`~repro.io.format.check_footer`) and hands each column its zone maps
  as arrays (:meth:`StoredColumn.zone_maps`) — so the query engine's pruning
  decisions cost **zero file I/O** and a chunk is only a shell;
* the first read of a chunk's ``statistics`` builds its
  :class:`~repro.storage.statistics.ColumnStatistics` from those arrays;
* the first read of a chunk's ``form`` or ``scheme`` reads its descriptor
  document (range rule, digest, JSON), builds its :class:`PackedForm` tree
  and rebuilds its scheme.  The form's constituents are *handles into an*
  ``np.memmap`` rather than arrays (:class:`LazyConstituents`): a chunk that
  survives pruning maps only the byte ranges of the constituents actually
  touched, zero-copy (``Column.wrap_readonly`` over a read-only memmap
  slice) and cached per constituent, so repeated scans pay once.

The file keeps an I/O account (:attr:`PackedTableFile.bytes_mapped`): every
segment materialisation adds its ``nbytes`` (descriptor documents are
metadata, like the footer, and are not charged).  Tests and benchmarks use
it to assert the central property of the format — a selective scan maps
fewer bytes than the file holds.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..columnar.column import Column
from ..errors import CompressionError, CorruptionError, StorageError
from ..schemes.base import CompressedForm, CompressionScheme
from ..storage.chunk import ColumnChunk
from ..storage.column_store import StoredColumn
from ..storage.statistics import ColumnStatistics
from ..storage.table import Table
from .format import (
    LEGACY_FORMATS,
    ColumnLayout,
    byte_range_problem,
    check_footer,
    decode_footer,
    digest_problem,
    read_descriptor,
    read_footer,
    rebuild_scheme,
    segment_digest,
    stored_dtype,
)

PathLike = Union[str, Path]

#: Read-fault injection hook, installed by
#: :func:`repro.engine.resilience.install_fault_plan` (``None`` = no faults).
#: When set, it is called as ``hook(path, descriptor, name, raw)`` after a
#: segment's bytes are mapped and before they are verified; it may raise (a
#: simulated truncated read), sleep (a slow read), or return replacement
#: bytes (a bit flip) — returning ``None`` leaves the segment untouched.
#: Injected corruption therefore hits the *same* digest check real
#: corruption would, which is the point of the chaos harness.
_FAULT_HOOK = None


class SegmentSource:
    """One open packed file: the shared memmap plus the I/O account.

    Thread-safe: callers may scan one open table from several threads of
    their own, so memmap creation, segment loads and the accounting
    counters are guarded by one lock (loads are cheap — a slice and a view
    — so a single lock does not serialise any real work).
    """

    def __init__(self, path: Path, footer_offset: int):
        self.path = path
        self.file_size = path.stat().st_size
        #: Where the segment region ends: no declared byte range may pass it.
        self.footer_offset = footer_offset
        self._mm: Optional[np.memmap] = None
        self._lock = threading.Lock()
        self.bytes_mapped = 0
        self.segments_mapped = 0

    def _mapped(self) -> np.memmap:
        with self._lock:
            if self._mm is None:
                self._mm = np.memmap(self.path, dtype=np.uint8, mode="r")
            return self._mm

    def load(self, descriptor: Dict[str, Any], name: str, context: str = "") -> Column:
        """Materialise one segment as a zero-copy read-only column.

        The declared byte range is held to the format's one rule
        (:func:`~repro.io.format.byte_range_problem`) before anything is
        sliced, and the bytes to the descriptor's ``crc32`` here, on first
        materialisation — once per segment per open file (the constituent
        cache in :class:`LazyConstituents`).  A mismatch, or a descriptor
        without an integer digest, raises
        :class:`~repro.errors.CorruptionError` naming the file, the owning
        column/chunk (*context*), the segment, and the byte range.
        """
        where = f" of {context}" if context else ""
        problem = byte_range_problem(descriptor, self.footer_offset)
        if problem is not None:
            raise StorageError(f"{self.path}: segment {name!r}{where} {problem}")
        offset, nbytes = descriptor["offset"], descriptor["nbytes"]
        dtype = stored_dtype(descriptor["dtype"])
        with self._lock:
            self.bytes_mapped += nbytes
            self.segments_mapped += 1
        if nbytes == 0:
            return Column.empty(dtype, name=name)
        raw = self._mapped()[offset : offset + nbytes]
        # Fault injection and digest verification run outside the lock: a
        # slow-read fault must not stall concurrent threads, and hashing is
        # the only non-trivial work on this path.
        hook = _FAULT_HOOK
        if hook is not None:
            replacement = hook(self.path, descriptor, name, raw)
            if replacement is not None:
                raw = np.frombuffer(replacement, dtype=np.uint8)
        problem = digest_problem(descriptor, raw)
        if problem is not None:
            raise CorruptionError(
                f"{self.path}: segment {name!r}{where} failed its integrity "
                f"check ({problem}, byte range [{offset}, {offset + nbytes}))"
            )
        return Column.wrap_readonly(raw.view(dtype), name=name)

    def uncharge(self, descriptor: Dict[str, Any]) -> None:
        """Back out one accounted load (a lost cache race, see
        :meth:`LazyConstituents.__getitem__`)."""
        with self._lock:
            self.bytes_mapped -= int(descriptor["nbytes"])
            self.segments_mapped -= 1

    def reset_accounting(self) -> None:
        with self._lock:
            self.bytes_mapped = 0
            self.segments_mapped = 0

    def close(self) -> None:
        """Drop this source's reference to the memmap.  Columns already
        materialised keep the mapping alive through their view's base, so
        existing zero-copy views stay valid."""
        with self._lock:
            self._mm = None


class LazyConstituents(Mapping):
    """A constituents mapping that maps segments on first access.

    Behaves like the plain ``Dict[str, Column]`` a
    :class:`~repro.schemes.base.CompressedForm` normally carries; iteration
    and membership are metadata-only, ``[]`` triggers (and caches) the
    segment mapping.
    """

    __slots__ = ("_source", "_segments", "_cache", "_context")

    def __init__(
        self, source: SegmentSource, segments: Dict[str, Dict[str, Any]], context: str = ""
    ):
        self._source = source
        self._segments = segments
        self._cache: Dict[str, Column] = {}
        self._context = context

    def __getitem__(self, name: str) -> Column:
        column = self._cache.get(name)
        if column is None:
            # Under concurrent scans two threads may race here; both produce
            # equivalent read-only views, but only one may win the cache and
            # be charged to the I/O account (setdefault keeps it consistent).
            loaded = self._source.load(self._segments[name], name, self._context)
            column = self._cache.setdefault(name, loaded)
            if column is not loaded:
                self._source.uncharge(self._segments[name])
        return column

    def __iter__(self) -> Iterator[str]:
        return iter(self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, name: object) -> bool:
        # Mapping's default __contains__ calls __getitem__, which would map
        # the segment; membership must stay metadata-only.
        return name in self._segments

    def __repr__(self) -> str:
        mapped = sorted(self._cache)
        pending = sorted(set(self._segments) - set(self._cache))
        return f"<lazy constituents mapped={mapped} pending={pending}>"


class PackedForm(CompressedForm):
    """A compressed form whose constituents live in a packed file.

    Identical to :class:`~repro.schemes.base.CompressedForm` except that
    size accounting comes from the footer metadata instead of materialised
    buffers — asking a cold table for its compressed size must not read it.
    """

    def compressed_size_bytes(self) -> int:
        return self.__dict__["_packed_nbytes"]


def _form_nbytes(descriptor: Dict[str, Any]) -> int:
    size = sum(int(seg["nbytes"]) for seg in descriptor["segments"].values())
    size += sum(_form_nbytes(sub) for sub in descriptor["nested"].values())
    return size


def _build_form(descriptor: Dict[str, Any], source: SegmentSource, context: str = "") -> PackedForm:
    form = PackedForm(
        scheme=descriptor["scheme"],
        columns=LazyConstituents(source, descriptor["segments"], context),
        parameters=dict(descriptor["parameters"]),
        original_length=int(descriptor["original_length"]),
        original_dtype=stored_dtype(descriptor["original_dtype"]),
        nested={
            name: _build_form(sub, source, f"{context}, nested form {name!r}")
            for name, sub in descriptor["nested"].items()
        },
    )
    form.__dict__["_packed_nbytes"] = _form_nbytes(descriptor)
    return form


class _PackedChunk(ColumnChunk):
    """A chunk of a packed file: row offset and row count read off its
    column's checked footer arrays at the table build, its statistics from
    them on first read, the descriptor document — hence the form tree and the
    rebuilt scheme — on first use.  Threads racing to build those agree on
    one pair through ``setdefault``, as in
    :meth:`LazyConstituents.__getitem__`; a malformed or damaged descriptor
    is a :class:`StorageError` naming file, column and chunk row."""

    def __init__(self, layout: ColumnLayout, index: int, source: SegmentSource):
        self._layout, self._index, self._source = layout, index, source
        self.row_offset, self._row_count = layout.rows[index], layout.counts[index]

    @property
    def statistics(self) -> ColumnStatistics:
        statistics = self.__dict__.get("_statistics")
        if statistics is None:
            fields = {key: values[self._index] for key, values in self._layout.statistics.items()}
            statistics = self.__dict__["_statistics"] = ColumnStatistics(**fields)
        return statistics

    def _built(self) -> Tuple[PackedForm, CompressionScheme]:
        built = self.__dict__.get("_parts")
        if built is None:
            source = self._source
            context = f"column {self._layout.name!r}, chunk @ row {self.row_offset}"
            document = read_descriptor(
                source._mapped(),
                self._layout.descriptor(self._index),
                source.footer_offset,
                self._row_count,
                f"{source.path}: {context}",
            )
            try:
                built = (
                    _build_form(document["form"], source, context),
                    rebuild_scheme(document["scheme"]),
                )
            except (KeyError, TypeError, ValueError, AttributeError, CompressionError) as error:
                raise StorageError(
                    f"{source.path}: {context}: malformed chunk descriptor "
                    f"({type(error).__name__}: {error})"
                ) from None
            built = self.__dict__.setdefault("_parts", built)
        return built

    form = property(lambda self: self._built()[0])
    scheme = property(lambda self: self._built()[1])
    row_count = property(lambda self: self._row_count)


def source_of(chunk: ColumnChunk) -> Optional[SegmentSource]:
    """The open file *chunk* reads from (``None``: held in memory); builds no form."""
    return chunk._source if isinstance(chunk, _PackedChunk) else None


class PackedTableFile:
    """An open packed table file: lazy table plus I/O accounting.

    Opening validates framing and parses the footer; no segment bytes are
    touched until a chunk's constituents are actually needed by a scan,
    a pushdown, or an explicit materialisation.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        if not self.path.exists():
            raise StorageError(f"{self.path}: no such packed table file")
        if self.path.is_dir():
            raise StorageError(
                f"{self.path}: is a directory, not a packed table file ({LEGACY_FORMATS})"
            )
        self.format_version, footer_offset, footer_bytes = read_footer(self.path)
        self.footer = decode_footer(footer_bytes, self.path)
        declared = self.footer.get("format_version")
        if declared != self.format_version:
            raise StorageError(
                f"{self.path}: footer format version {declared!r} disagrees "
                f"with header version {self.format_version}"
            )
        self._source = SegmentSource(self.path, footer_offset)
        self._table: Optional[Table] = None

    # ------------------------------------------------------------------ #
    # Metadata (no segment I/O)
    # ------------------------------------------------------------------ #

    @property
    def file_size(self) -> int:
        return self._source.file_size

    @property
    def row_count(self) -> int:
        return int(self.footer["row_count"])

    @property
    def column_names(self) -> List[str]:
        return [column["name"] for column in self.footer["columns"]]

    @property
    def write_uuid(self) -> Optional[str]:
        """The unique id of the write that produced this file."""
        value = self.footer.get("write_uuid")
        return None if value is None else str(value)

    # ------------------------------------------------------------------ #
    # I/O accounting
    # ------------------------------------------------------------------ #

    @property
    def bytes_mapped(self) -> int:
        """Total segment bytes materialised since open (or the last reset)."""
        return self._source.bytes_mapped

    @property
    def segments_mapped(self) -> int:
        return self._source.segments_mapped

    def reset_accounting(self) -> None:
        """Zero the I/O account (already-cached constituents stay cached)."""
        self._source.reset_accounting()

    # ------------------------------------------------------------------ #
    # The table
    # ------------------------------------------------------------------ #

    @property
    def table(self) -> Table:
        """The packed table, built lazily on first access."""
        if self._table is None:
            source, columns = self._source, {}
            for layout in check_footer(self.footer, self.path, source.footer_offset):
                chunks = [_PackedChunk(layout, index, source) for index in range(len(layout.rows))]
                columns[layout.name] = StoredColumn(
                    layout.name, chunks, layout.dtype, zone_maps=layout.zone_maps
                )
            self._table = Table(columns)
        return self._table

    def close(self) -> None:
        self._source.close()

    def __enter__(self) -> "PackedTableFile":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PackedTableFile {self.path} v{self.format_version} "
            f"rows={self.row_count} columns={self.column_names} "
            f"mapped={self.bytes_mapped}/{self.file_size} B>"
        )


def open_packed_table(path: PathLike) -> PackedTableFile:
    """Open a packed table file for lazy reading."""
    return PackedTableFile(path)


def footer_fingerprint(path: PathLike) -> int:
    """The CRC32 of the file's footer bytes — a cheap content fingerprint (no
    segment I/O).  The footer embeds a fresh ``write_uuid`` on every write,
    so the process backend's per-worker table cache, keyed on it, is never a
    stale mmap after a same-size rewrite within the mtime granularity."""
    return segment_digest(read_footer(Path(path))[2])
