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
from typing import Optional, Tuple

import numpy as np

from . import dtypes as _dt
from .ops.movement import replicate_values


#: An integer array spanning fewer than this many slots per value is counted
#: and dictionary-coded through a presence table instead of a sort.
PRESENCE_SLOTS_PER_VALUE = 4


_POWERS_OF_TWO = np.uint64(1) << np.arange(64, dtype=np.uint64)


def bit_length_histogram(offsets: np.ndarray) -> np.ndarray:
    """How many of the uint64 *offsets* have each bit length 0..64 (0: zero)."""
    lengths = np.frexp(offsets.astype(np.float64))[1]
    if lengths.max(initial=0) > 53:  # float64 rounds 2**k - 1 up to 2**k: count in integers
        lengths = np.searchsorted(_POWERS_OF_TWO, offsets, side="right")
    return np.bincount(lengths, minlength=65)


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
    def total(self) -> int:
        """Exact integer sum: one int64/uint64 pass unless a partial sum could wrap."""
        accumulator = _dt.sum_accumulator(self.values.dtype)
        if self.count * max(-self.minimum, self.maximum) <= np.iinfo(accumulator).max:
            return int(self.values.sum(dtype=accumulator))
        return sum(self.values.tolist())

    @cached_property
    def is_sorted(self) -> bool:
        return bool(np.all(self.values[1:] >= self.values[:-1]))

    @cached_property
    def run_starts(self) -> np.ndarray:
        """Position of the first element of every maximal run."""
        changes = np.flatnonzero(self.values[1:] != self.values[:-1])
        return np.concatenate(([0], changes + 1))

    @cached_property
    def run_count(self) -> int:
        if "run_starts" in self.__dict__:
            return int(self.run_starts.size)
        return 1 + int(np.count_nonzero(self.values[1:] != self.values[:-1]))

    @cached_property
    def _presence(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(slots, present)``: every value's offset from the minimum and
        which offsets occur, for integers of a small span; else ``None``."""
        if not np.issubdtype(self.values.dtype, np.integer):
            return None
        span = self.maximum - self.minimum
        if span >= PRESENCE_SLOTS_PER_VALUE * self.count:
            return None
        wide = _wide(self.values)
        slots = (wide - wide.dtype.type(self.minimum)).view(np.int64)
        present = np.zeros(span + 1, dtype=bool)
        present[slots] = True
        return slots, present

    @cached_property
    def distinct_count(self) -> int:
        """Exact; sorted data needs no sort of its own (runs are distinct),
        a small span is counted off its presence table."""
        if self.is_sorted:
            return self.run_count
        if self._presence is not None:
            return int(np.count_nonzero(self._presence[1]))
        ordered = np.sort(self.values)
        return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))

    def dictionary_codes(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sorted distinct values and every value's index among them:
        ``np.unique(values, return_inverse=True)``, read off the presence
        table when there is one (the codes then in the narrowest unsigned
        dtype that counts its slots)."""
        if self._presence is None:
            return np.unique(self.values, return_inverse=True)
        slots, present = self._presence
        # slot + minimum modulo 2**64, cut to the dtype: exact for every integer dtype
        dictionary = np.flatnonzero(present).astype(np.uint64) + np.uint64(self.minimum % 2**64)
        rank = np.cumsum(present, dtype=np.min_scalar_type(present.size))
        rank -= 1  # slot 0 holds the minimum, so every rank counts it
        return dictionary.astype(self.values.dtype), rank[slots]

    @cached_property
    def largest_step(self) -> int:
        """Largest ``|v[i+1] - v[i]|``, exact where the dtype would wrap."""
        wide = _wide(self.values)
        if wide.size < 2:
            return 0
        step = np.maximum(wide[1:], wide[:-1]) - np.minimum(wide[1:], wide[:-1])
        return int(step.view(np.uint64).max())

    def offset_bit_lengths(self, segment_length: int) -> np.ndarray:
        """:func:`bit_length_histogram` of every value's offset from its
        segment's minimum (one that wrapped int64 is in bin 64): PFOR's width
        choice and exact size both read it; taken once per segment length."""
        taken = self.__dict__.setdefault("_offset_bit_lengths", {})
        if segment_length not in taken:
            wide = _wide(self.values)
            minima = np.minimum.reduceat(wide, np.arange(0, wide.size, segment_length))
            offsets = wide - replicate_values(minima, segment_length, wide.size)
            taken[segment_length] = bit_length_histogram(offsets.view(np.uint64))
        return taken[segment_length]

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
        """The differences exactly as DELTA stores them: ``v[i] - v[i-1]`` in
        ``AdjacentDifference``'s dtype (uint64 wraps), the first repeating the
        second (a lone value's is 0) — the first value itself is DELTA's base."""
        wide = _wide(self.values)
        deltas = np.empty(wide.size, wide.dtype)
        np.subtract(wide[1:], wide[:-1], out=deltas[1:])
        deltas[0] = deltas[1] if deltas.size > 1 else 0
        return ColumnProfile(deltas)

    def narrowed(self) -> "ColumnProfile":
        """The same values in the narrowest physical dtype that holds them."""
        return ColumnProfile(self.values.astype(_dt.narrowest_dtype_for(self.values)))
