"""Column profiles: the statistics a size computation reads, each taken once.

The paper's decompositions (FOR = STEPFUNCTION + NS, RLE = RPE ∘ DELTA) make
a scheme's stored size a closed-form function of a few facts about the
column: extrema, distinct count, run structure, adjacent differences,
per-segment spreads.  A :class:`ColumnProfile` computes each on first use and
keeps it, so the zone map, the advisor's candidate list and every scheme's
``stored_bytes_bound`` share one pass.  The run and delta *views* are
profiles themselves: a cascade's bound follows its constituent structure.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import dtypes as _dt
from .column import Column
from .ops.elementwise import adjacent_difference


def _wide(values: np.ndarray) -> np.ndarray:
    """64-bit integers as they are, anything else as int64: differences of
    the result, viewed as uint64, are exact."""
    return values if values.dtype in (np.int64, np.uint64) else values.astype(np.int64)


class ColumnProfile:
    """Lazily computed statistics of one non-empty array of column values."""

    def __init__(self, values: np.ndarray):
        self.values = values

    @property
    def count(self) -> int:
        return int(self.values.size)

    @cached_property
    def minimum(self) -> int:
        return int(self.values.min())

    @cached_property
    def maximum(self) -> int:
        return int(self.values.max())

    @cached_property
    def is_sorted(self) -> bool:
        return bool(np.all(self.values[1:] >= self.values[:-1]))

    @cached_property
    def run_starts(self) -> np.ndarray:
        """Position of the first element of every maximal run."""
        changes = np.flatnonzero(self.values[1:] != self.values[:-1])
        return np.concatenate(([0], changes + 1))

    @property
    def run_count(self) -> int:
        return int(self.run_starts.size)

    @cached_property
    def distinct_count(self) -> int:
        """Exact; sorted data needs no sort of its own (runs are distinct)."""
        if self.is_sorted:
            return self.run_count
        ordered = np.sort(self.values)
        return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))

    @cached_property
    def largest_step(self) -> int:
        """Largest ``|v[i+1] - v[i]|``, exact where the dtype would wrap."""
        wide = _wide(self.values)
        if wide.size < 2:
            return 0
        step = np.maximum(wide[1:], wide[:-1]) - np.minimum(wide[1:], wide[:-1])
        return int(step.view(np.uint64).max())

    def segment_spread(self, segment_length: int) -> int:
        """Largest ``max - min`` within one segment of *segment_length*."""
        wide = _wide(self.values)
        starts = np.arange(0, wide.size, segment_length)
        spread = np.maximum.reduceat(wide, starts) - np.minimum.reduceat(wide, starts)
        return int(spread.view(np.uint64).max())

    # The decomposition views: what RLE, RPE and DELTA store, as profiles.

    @cached_property
    def run_values(self) -> "ColumnProfile":
        return ColumnProfile(self.values[self.run_starts])

    @cached_property
    def run_lengths(self) -> "ColumnProfile":
        return ColumnProfile(np.diff(self.run_starts, append=self.count))

    @cached_property
    def run_ends(self) -> "ColumnProfile":
        return ColumnProfile(np.append(self.run_starts[1:], self.count))

    @cached_property
    def deltas(self) -> "ColumnProfile":
        """The differences exactly as DELTA stores them (first value first)."""
        return ColumnProfile(adjacent_difference(Column.wrap_readonly(self.values)).values)

    def narrowed(self) -> "ColumnProfile":
        """The same values in the narrowest physical dtype that holds them."""
        return ColumnProfile(self.values.astype(_dt.narrowest_dtype_for(self.values)))
