"""Counters describing what a scan and its compressed-domain kernels touched.

Both classes are plain sums of integer counters, so merging partial stats —
per chunk range, per worker — is associative and order-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class PushdownStats:
    """Accounting of how much data a pushdown evaluation actually touched."""

    rows_total: int = 0
    rows_decoded: int = 0
    segments_total: int = 0
    segments_skipped: int = 0
    segments_accepted: int = 0
    runs_total: int = 0

    @property
    def decode_fraction(self) -> float:
        """Fraction of rows whose fine-grained (offset/value) data was decoded."""
        return self.rows_decoded / self.rows_total if self.rows_total else 0.0


@dataclass
class ScanStats:
    """Accounting of what a scan touched (drives experiments E9/E10).

    Since the chunk-parallel scheduler (:mod:`repro.engine.scan`) these
    counters are merged over **all** conjuncts of a multi-predicate scan:
    ``chunks_total`` counts (predicate, chunk) evaluation slots, of which
    ``chunks_short_circuited`` were never evaluated because an earlier
    conjunct had already emptied the chunk's surviving-position set.
    ``chunks_decompressed`` counts actual decompressions — conjuncts sharing
    a column share one decompression per chunk, so it is bounded by the
    number of distinct (column, chunk) pairs, not by the conjunct count.
    """

    chunks_total: int = 0
    chunks_skipped: int = 0
    chunks_fully_accepted: int = 0
    chunks_pushed_down: int = 0
    chunks_decompressed: int = 0
    chunks_short_circuited: int = 0
    predicates_total: int = 0
    rows_scanned: int = 0
    rows_selected: int = 0
    #: Rows whose predicate, gather or aggregate was computed **in the
    #: compressed domain** (run values, dictionary codes, packed words,
    #: segment references) instead of on decompressed values.
    rows_computed_compressed: int = 0
    #: Uncompressed bytes of chunks that compressed-domain execution served
    #: entirely without decompressing (the decompression output that was
    #: never materialised).  Approximate for chunks straddling scan ranges.
    bytes_decompressed_saved: int = 0
    #: Compiled-plan cache traffic attributable to this scan: ``hits`` counts
    #: chunk decompressions served by an already-compiled plan (at either
    #: cache level), ``misses`` counts actual plan compilations.  A healthy
    #: multi-chunk scan compiles at most one plan per distinct scheme and
    #: hits the cache for every further chunk.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Hot-chunk decompression-cache traffic (process workers keep a
    #: byte-budgeted LRU of decompressed chunks across queries, see
    #: :class:`repro.engine.parallel.ChunkCache`).  Zero unless a cache is
    #: enabled; a cache hit serves a chunk without incrementing
    #: ``chunks_decompressed`` because no decompression actually ran.
    hot_cache_hits: int = 0
    hot_cache_misses: int = 0
    hot_cache_evictions: int = 0
    #: Resilience accounting (see :mod:`repro.engine.resilience`):
    #: ``chunks_quarantined`` counts chunk ranges skipped because a segment
    #: failed its integrity check under ``on_corruption="quarantine"`` —
    #: it affects results, so it stays in :meth:`comparable`.  The other
    #: three count recovery work (range re-executions, worker respawns,
    #: observed fault occurrences) that varies with timing and fault
    #: placement, not with what the scan logically computed.
    chunks_quarantined: int = 0
    ranges_retried: int = 0
    workers_respawned: int = 0
    fault_events: int = 0
    pushdown: PushdownStats = field(default_factory=PushdownStats)

    #: Counters reflecting process-local warm state (compiled-plan and
    #: hot-chunk cache traffic) or fault-recovery history rather than what
    #: the scan logically did.  They vary with execution history even
    #: between two serial runs, so backend-equivalence checks compare
    #: :meth:`comparable` instead.
    WARMTH_FIELDS = ("plan_cache_hits", "plan_cache_misses",
                     "hot_cache_hits", "hot_cache_misses",
                     "hot_cache_evictions", "ranges_retried",
                     "workers_respawned", "fault_events")

    def merge_pushdown(self, stats: PushdownStats) -> None:
        pushdown = self.pushdown
        for name in _PUSHDOWN_COUNTERS:
            setattr(pushdown, name, getattr(pushdown, name) + getattr(stats, name))

    def merge(self, other: "ScanStats") -> None:
        """Accumulate *other* into this instance (used by the scan scheduler
        to combine per-chunk-range partial stats deterministically)."""
        for name in _SCAN_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.merge_pushdown(other.pushdown)

    def comparable(self) -> Dict[str, int]:
        """The deterministic counters as a flat dict.

        Every field is a plain counter sum, so :meth:`merge` is associative
        and order-insensitive — merging permuted partials yields the same
        totals (the scheduler still merges in chunk order so that *results*,
        which are order-sensitive, stay deterministic).  Cache-warmth fields
        (:data:`WARMTH_FIELDS`) are excluded: they measure how warm this
        process's caches happened to be, which legitimately differs between
        a serial run and a pool of workers with their own cache history.
        """
        flat = {name: getattr(self, name) for name in _SCAN_COUNTERS
                if name not in self.WARMTH_FIELDS}
        for name in _PUSHDOWN_COUNTERS:
            flat[f"pushdown.{name}"] = getattr(self.pushdown, name)
        return flat


# Every dataclass field is a counter (``pushdown`` holds the nested ones), so
# a counter added to either class is merged without being typed in again.
_PUSHDOWN_COUNTERS = tuple(f.name for f in fields(PushdownStats))
_SCAN_COUNTERS = tuple(f.name for f in fields(ScanStats) if f.name != "pushdown")
