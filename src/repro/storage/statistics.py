"""Per-column / per-chunk statistics.

The storage layer keeps, for every column chunk, the light statistics an
analytic DBMS would keep anyway (min/max "zone maps", counts, run counts,
distinct estimates).  They serve two masters:

* the **compression advisor** (:mod:`repro.planner`) uses them to draw up
  its candidate list;
* the **query engine** (:mod:`repro.engine`) uses min/max bounds to skip
  chunks that cannot satisfy a predicate — the simplest instance of the
  paper's "use the coarse model to speed up selections".

They are taken once per column (:func:`compute_statistics` keeps its result on
the column), so choosing a chunk's scheme and its zone map share one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ..columnar import dtypes as _dt
from ..columnar.column import Column
from ..columnar.profile import ColumnProfile
from ..errors import StorageError


@dataclass(frozen=True)
class ColumnStatistics:
    """Summary statistics of one column (or column chunk).

    Attributes
    ----------
    count:
        Number of values.
    minimum / maximum:
        Value bounds (``None`` for an empty column).
    total:
        The exact sum of an integer column's values (0 for any other dtype).
    distinct_count:
        Exact number of distinct values.
    run_count:
        Number of maximal runs of equal values.
    is_sorted:
        Whether the values are non-decreasing.
    value_bits:
        Bits needed to store any value as-is (sign-aware).
    range_bits:
        Bits needed to store ``value - minimum`` (the width a global FOR
        reference would give).
    max_delta_bits:
        Bits needed for the largest adjacent difference (zig-zag), an
        indicator of how well DELTA+NS would do.
    """

    count: int
    minimum: Optional[int]
    maximum: Optional[int]
    total: int
    distinct_count: int
    run_count: int
    is_sorted: bool
    value_bits: int
    range_bits: int
    max_delta_bits: int

    @property
    def average_run_length(self) -> float:
        """Mean number of elements per run (``count / run_count``)."""
        return self.count / self.run_count if self.run_count else 0.0

    @property
    def distinct_fraction(self) -> float:
        """Distinct values as a fraction of the count (1.0 = all unique)."""
        return self.distinct_count / self.count if self.count else 0.0

    def overlaps_range(self, lo, hi) -> bool:
        """Whether any value in [lo, hi] *could* be present (zone-map test)."""
        if self.count == 0 or self.minimum is None or self.maximum is None:
            return False
        return not zone_verdict(lo, hi, self.minimum, self.maximum)[0]

    def contained_in_range(self, lo, hi) -> bool:
        """Whether *every* value is certainly within [lo, hi]."""
        if self.count == 0 or self.minimum is None or self.maximum is None:
            return False
        return bool(zone_verdict(lo, hi, self.minimum, self.maximum)[1])


def zone_verdict(low, high, minimum, maximum):
    """``(rejected, accepted)`` of the inclusive range ``[low, high]`` against
    the zone map ``[minimum, maximum]``: no value can lie in the range / every
    value does.  The one definition, for one chunk's statistics (Python
    numbers) and for a column's zone-map arrays (every chunk in one pass)."""
    return (high < minimum) | (low > maximum), (low <= minimum) & (maximum <= high)


class ZoneMaps(NamedTuple):
    """A column's chunks as arrays: ``int64`` row offsets and counts and, for
    an integer column, bounds in its dtype and totals wrapped mod 2**64 into
    the sum accumulator (else ``None``: rounded bounds decide nothing)."""

    starts: np.ndarray
    counts: np.ndarray
    minima: Optional[np.ndarray]
    maxima: Optional[np.ndarray]
    totals: Optional[np.ndarray]

    @staticmethod
    def of(dtype: np.dtype, starts, counts, minimum, maximum, total) -> "ZoneMaps":
        """The arrays of per-chunk lists of Python integers."""
        starts, counts = np.asarray(starts, dtype=np.int64), np.asarray(counts, dtype=np.int64)
        if not _dt.is_integer_dtype(dtype):
            return ZoneMaps(starts, counts, None, None, None)
        minima, maxima = np.asarray(minimum, dtype=dtype), np.asarray(maximum, dtype=dtype)
        wrapped = np.array([value % 2**64 for value in total], dtype=np.uint64)
        return ZoneMaps(starts, counts, minima, maxima, wrapped.view(_dt.sum_accumulator(dtype)))


def compute_statistics(column: Column) -> ColumnStatistics:
    """The :class:`ColumnStatistics` of *column*, computed on first request."""
    if not isinstance(column, Column):
        raise StorageError("compute_statistics() expects a Column")
    return column.cached("statistics", lambda: _from_profile(column))


def _from_profile(column: Column) -> ColumnStatistics:
    n = len(column)
    if n == 0:  # no extrema, nothing distinct, no runs, sorted, and every width 1
        return ColumnStatistics(0, None, None, 0, 0, 0, True, 1, 1, 1)
    profile = ColumnProfile(column.values)
    return ColumnStatistics(
        count=n,
        minimum=profile.minimum,
        maximum=profile.maximum,
        total=profile.total if _dt.is_integer_dtype(column.dtype) else 0,
        distinct_count=profile.distinct_count,
        run_count=profile.run_count,
        is_sorted=profile.is_sorted,
        value_bits=column.logical_bits_per_value(),
        range_bits=_dt.bits_for_range(profile.minimum, profile.maximum),
        max_delta_bits=max(1, profile.largest_step.bit_length() + 1) if n > 1 else 1,
    )
