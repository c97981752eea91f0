"""Property-based tests (hypothesis): every scheme's stored-size bound is sound.

``scheme.stored_bytes_bound(profile)`` must never exceed what
``scheme.compress(column)`` stores — the advisor prunes on it — and is exact
for the schemes whose layout follows from column statistics alone.  The
same holds for ``decompression_cost_floor`` against the computed cost.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import Column
from repro.columnar.compile.executor import lightest_step_weight
from repro.columnar.profile import ColumnProfile, bit_length_histogram
from repro.errors import ReproError
from repro.planner import decompression_cost, default_candidates
from repro.schemes import (Cascade, Delta, FrameOfReference, NullSuppression,
                           PatchedFrameOfReference, PiecewiseLinear)
from repro.storage import compute_statistics

SEGMENT = 128
KINDS = ("constant", "distinct", "runs", "sorted", "limits", "small", "walk", "patched",
         "beyond_2_53")
#: Bounds stated below the size: fits and per-value widths are not a function
#: of the statistics a profile keeps.
FLOOR_ONLY = ("VARWIDTH", "LINEAR", "DELTA∘[deltas=VARWIDTH]")


def draw_column(kind, n, seed, dtype):
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    low = 0 if info.min == 0 else -1000
    if kind == "constant":
        values = np.full(n, rng.integers(info.min, info.max, dtype=dtype, endpoint=True))
    elif kind == "distinct":
        start = rng.integers(info.min, info.max - n, dtype=dtype, endpoint=True)
        values = start + rng.permutation(n).astype(dtype)
    elif kind == "runs":
        lengths = rng.integers(1, 300, n)
        values = np.repeat(rng.integers(low, 50, n), lengths)[:n]
    elif kind == "sorted":
        values = np.sort(rng.integers(low, 5000, n))
    elif kind == "limits":
        edges = np.array([info.min, info.min + 1, info.max - 1, info.max], dtype=dtype)
        values = rng.choice(edges, n)
    elif kind == "small":
        values = rng.integers(low, 1000, n)
    elif kind == "patched":
        values = np.where(rng.random(n) < 0.03,
                          np.full(n, info.max, dtype) - rng.integers(0, 9, n).astype(dtype),
                          rng.integers(0, 16, n).astype(dtype))
    elif kind == "beyond_2_53":
        top = min(int(info.max), 2**53 + 2**20)
        values = np.full(n, top, dtype) - np.cumsum(rng.integers(0, 5, n)).astype(dtype)
    else:
        values = np.cumsum(rng.integers(-4, 5, n)) + 100_000
    return Column(values.astype(dtype))


def every_default_candidate(column):
    """The union of what ``default_candidates`` can emit for *column*: its
    list for the column's own statistics, plus the statistics-gated schemes
    it left out (a bound must hold whether or not the scheme was promising)."""
    stats = compute_statistics(column)
    gated = compute_statistics(Column(np.repeat(np.arange(4), 4)))  # runs, few distinct, smooth
    by_name = {scheme.describe(): scheme
               for source in (stats, gated)
               for segment_length in (SEGMENT, 16)
               for scheme in default_candidates(source, segment_length=segment_length)}
    for scheme in (PatchedFrameOfReference(offsets_layout="aligned"),
                   PatchedFrameOfReference(segment_length=16, width_quantile=0.9),
                   PatchedFrameOfReference(offset_width=3),
                   PatchedFrameOfReference(offset_width=64),
                   PiecewiseLinear(segment_length=16, offsets_layout="aligned")):
        by_name[scheme.describe()] = scheme
    return list(by_name.values())


@given(kind=st.sampled_from(KINDS),
       n=st.sampled_from([1, 2, 15, 16, 17, SEGMENT - 1, SEGMENT, SEGMENT + 1, 1000, 8192]),
       seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.int64, np.uint64, np.int32]))
@settings(max_examples=120, deadline=None)
def test_bound_never_exceeds_the_compressed_size(kind, n, seed, dtype):
    column = draw_column(kind, n, seed, dtype)
    profile = ColumnProfile(column.values)
    schemes = every_default_candidate(column)
    assert {"ID", "NS", "FOR", "PFOR", "DICT", "RLE", "RPE", "DELTA", "DELTA∘[deltas=NS]",
            "DELTA∘[deltas=FOR]", "DELTA∘[deltas=PFOR]", "DELTA∘[deltas=DICT]"} \
        <= {scheme.name for scheme in schemes}
    for scheme in schemes:
        bound = scheme.stored_bytes_bound(profile)
        try:
            stored = scheme.compress(column).compressed_size_bytes()
        except ReproError:
            # Infeasible: any bound is below "cannot be stored".
            continue
        assert bound <= stored, scheme.describe()
        if scheme.name not in FLOOR_ONLY:
            assert bound == stored, scheme.describe()
        else:
            assert bound > 0, scheme.describe()


@given(kind=st.sampled_from(KINDS),
       n=st.sampled_from([1, 2, 17, SEGMENT + 1, 1000]),
       seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.int64, np.uint64, np.int32]))
@settings(max_examples=40, deadline=None)
def test_cost_floor_never_exceeds_the_decompression_cost(kind, n, seed, dtype):
    """The advisor also skips on ``decompression_cost_floor``: it holds for
    every candidate, for an aligned NS that may pass its values through, and
    for an inner NS whose unpack fuses into FOR's add."""
    column = draw_column(kind, n, seed, dtype)
    profile = ColumnProfile(column.values)
    schemes = every_default_candidate(column) + [
        NullSuppression(mode="aligned"),
        Cascade(FrameOfReference(offsets_layout="aligned"), {"offsets": NullSuppression()})]
    for scheme in schemes:
        try:
            form = scheme.compress(column)
        except ReproError:
            continue
        floor = scheme.decompression_cost_floor(profile)
        assert floor <= decompression_cost(scheme, form), scheme.describe()
        if isinstance(scheme, Cascade) and isinstance(scheme.outer, Delta):
            writes_deltas = scheme.inner["deltas"].computes_output
            assert floor == (2 + writes_deltas) * lightest_step_weight(), scheme.describe()


def test_schemes_that_do_not_say_are_always_trialled():
    column = Column(np.random.default_rng(3).integers(0, 1000, 1000))
    assert FrameOfReference(reference="mid").stored_bytes_bound(ColumnProfile(column.values)) == 0


def test_linear_states_more_than_its_floor_where_float64_is_exact():
    """Noise and drift both show in a segment's second differences; beyond
    2**40 the bound falls back to the coefficients and a bit per value."""
    rng = np.random.default_rng(3)
    floor = PiecewiseLinear().stored_bytes_bound(ColumnProfile(np.arange(1000)))
    for values in (rng.integers(0, 1000, 1000), np.cumsum(rng.integers(-4, 5, 1000))):
        bound = PiecewiseLinear().stored_bytes_bound(ColumnProfile(values))
        stored = PiecewiseLinear().compress(Column(values)).compressed_size_bytes()
        assert 2 * floor < bound <= stored
        shifted = values + 2**41
        assert PiecewiseLinear().stored_bytes_bound(ColumnProfile(shifted)) == floor


@pytest.mark.parametrize("value", [2**53 - 1, 2**53, 2**53 + 1, 2**55 - 1, 2**55, 2**62 - 1,
                                   2**63 - 1, 2**63, 2**64 - 1])
def test_offset_bit_lengths_are_exact_beyond_float64(value):
    """``floor(log2(float64(x))) + 1`` put 2**55 - 1 in bin 56: the histogram
    PFOR's width choice and bound share counts bit lengths in integers, so
    the two agree at the dtype limits and for uint64."""
    offsets = np.array([0, 1, value - 1, value], dtype=np.uint64)
    expected = np.bincount([int(x).bit_length() for x in offsets], minlength=65)
    assert np.array_equal(bit_length_histogram(offsets), expected)
    column = Column(np.array([0, value % 2**63, (value - 1) % 2**63, 5] * 40, dtype=np.uint64))
    for scheme in (PatchedFrameOfReference(), PatchedFrameOfReference(segment_length=2)):
        form = scheme.compress(column)
        assert scheme.stored_bytes_bound(ColumnProfile(column.values)) \
            == form.compressed_size_bytes()
        assert np.array_equal(scheme.decompress(form).values, column.values)


@given(n=st.integers(1, 3_000), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64]),
       spread=st.integers(1, 12), outliers=st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.2]))
@settings(max_examples=120, deadline=None)
def test_pfor_prices_a_patch_at_what_it_stores(n, seed, dtype, spread, outliers):
    """A patch stores an int64 position and one value of the column's dtype
    (128 bits for int64, 72 for int8): charged that, the cost-chosen offset
    width stores exactly the fewest bytes any fixed width would."""
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    values = np.where(rng.random(n) < outliers,
                      rng.integers(0, min(int(info.max), 2**62), n, endpoint=True),
                      rng.integers(0, 1 << spread, n)).astype(dtype)
    column = Column(values)
    chosen = PatchedFrameOfReference().compress(column).compressed_size_bytes()
    fewest = min(PatchedFrameOfReference(offset_width=width).compress(column)
                 .compressed_size_bytes() for width in range(1, 65))
    assert chosen == fewest
    assert PatchedFrameOfReference().stored_bytes_bound(ColumnProfile(values)) == chosen
