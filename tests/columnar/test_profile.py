"""The profile's sort-free answers against the sort they replace.

An unsorted integer array whose span is below ``PRESENCE_SLOTS_PER_VALUE``
slots per value is counted and dictionary-coded off a presence table; wider
spans still sort.  Both sides of that threshold, and the dtype limits where
``value - minimum`` would wrap if taken in the value's own dtype, must give
what ``np.unique`` gives — in the profile and in the form DICT stores.  FOR's
references are held to the same standard beyond ``2**53``, where a float64
minimum is no longer the minimum.
"""

import numpy as np
import pytest

from repro.columnar import Column
from repro.columnar.ops import unpack_bits
from repro.columnar.profile import PRESENCE_SLOTS_PER_VALUE, ColumnProfile
from repro.planner.advisor import trial
from repro.schemes import DictionaryEncoding, FrameOfReference, PatchedFrameOfReference

COUNT = 1000


def _spanning(span, dtype=np.int64, low=0):
    """COUNT unsorted values of *dtype* whose extrema are ``low`` and ``low + span``."""
    rng = np.random.default_rng(span % 1000)
    offsets = rng.integers(0, span, COUNT, endpoint=True).astype(np.uint64)
    offsets[[17, 400]] = span, 0
    offsets[:6] = [3, 3, 1, 1, 1, 3]  # a few runs, and not sorted
    return (offsets + np.uint64(low % 2**64)).astype(dtype)


CASES = {
    "few-values": _spanning(75),
    "table-at-the-threshold": _spanning(PRESENCE_SLOTS_PER_VALUE * COUNT - 1),
    "sort-at-the-threshold": _spanning(PRESENCE_SLOTS_PER_VALUE * COUNT),
    "wide-span": _spanning(1 << 40),
    "int8-whole-domain": _spanning(255, np.int8, -128),
    "uint8-whole-domain": _spanning(255, np.uint8),
    "int64-minimum": _spanning(900, np.int64, -(2**63)),
    "int64-maximum": _spanning(900, np.int64, 2**63 - 1 - 900),
    "uint64-above-2**63": _spanning(900, np.uint64, 2**63 + 5),
    "uint64-maximum": _spanning(900, np.uint64, 2**64 - 1 - 900),
    "uint64-across-2**63": _spanning(900, np.uint64, 2**63 - 450),
    "one-value": np.array([7], dtype=np.int64),
    "constant": np.full(50, -3, dtype=np.int32),
}


def test_the_cases_sit_on_both_sides_of_the_span_threshold():
    tabled = {name: ColumnProfile(values)._presence is not None
              for name, values in CASES.items()}
    assert tabled.pop("sort-at-the-threshold") is False
    assert tabled.pop("wide-span") is False
    assert all(tabled.values()), tabled


@pytest.mark.parametrize("name", CASES)
def test_counts_equal_the_sorted_answers(name):
    values = CASES[name]
    profile = ColumnProfile(values)
    assert profile.distinct_count == np.unique(values).size
    runs = 1 + int(np.count_nonzero(values[1:] != values[:-1]))
    assert profile.run_count == runs
    assert profile.run_starts.size == runs
    built_first = ColumnProfile(values)
    assert built_first.run_starts.size == built_first.run_count == runs


@pytest.mark.parametrize("name", CASES)
def test_dictionary_and_codes_equal_np_unique(name):
    values = CASES[name]
    dictionary, codes = np.unique(values, return_inverse=True)
    got_dictionary, got_codes = ColumnProfile(values).dictionary_codes()
    assert got_dictionary.dtype == values.dtype
    assert np.array_equal(got_dictionary, dictionary)
    assert np.array_equal(got_codes, codes)
    for layout in ("packed", "aligned"):
        scheme = DictionaryEncoding(codes_layout=layout)
        form = scheme.compress(Column(values))
        stored = form.constituent("codes")
        if layout == "packed":
            stored = unpack_bits(stored, form.parameters["code_width"], values.size)
        assert form.constituent("dictionary").dtype == values.dtype
        assert np.array_equal(form.constituent("dictionary").values, dictionary)
        assert np.array_equal(stored.values, codes)
        assert scheme.stored_bytes_bound(ColumnProfile(values)) == form.compressed_size_bytes()
        assert np.array_equal(scheme.decompress(form).values, values)


def test_other_dtypes_keep_the_sort():
    flags = np.array([True, False, True, True])
    assert ColumnProfile(flags)._presence is None
    assert ColumnProfile(flags).distinct_count == 2
    assert ColumnProfile(np.array([0.5, 0.25, 0.5])).distinct_count == 2


@pytest.mark.parametrize("values", [
    np.int64(1 << 60) + np.random.default_rng(0).integers(0, 1 << 30, 20_000),
    np.int64(-(1 << 62)) - np.random.default_rng(1).integers(0, 1000, 20_000),
    np.uint64(2**64 - 1) - np.random.default_rng(2).integers(0, 1000, 20_000).astype(np.uint64),
    np.random.default_rng(3).integers(0, 1000, 20_000) + (1 << 52),  # below 2**53 too
], ids=["2**60", "-2**62", "uint64-top", "2**52"])
def test_for_references_are_exact_beyond_float64(values):
    """A float64 minimum rounds beyond ``2**53``: FOR refused the column
    ("negative offsets") or stored offsets 50 bits wider than its spread."""
    column = Column(values)
    profile = ColumnProfile(column.values)
    spread_bits = int(np.flatnonzero(profile.offset_bit_lengths(128)).max())
    for scheme in (FrameOfReference(128), PatchedFrameOfReference(128)):
        form = scheme.compress(column)
        assert form.parameters["offsets_width"] <= spread_bits
        assert np.array_equal(scheme.decompress(form).values, values)
        assert np.array_equal(scheme.decompress_interpreted(form).values, values)
    exact = FrameOfReference(128)
    assert exact.stored_bytes_bound(profile) == exact.compress(column).compressed_size_bytes()
    assert trial(exact, column).error is None
