"""Property-based tests (hypothesis): every scheme's stored-size bound is sound.

``scheme.stored_bytes_bound(profile)`` must never exceed what
``scheme.compress(column)`` stores — the advisor prunes on it — and is exact
for the schemes whose layout follows from column statistics alone.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.columnar import Column
from repro.columnar.profile import ColumnProfile
from repro.errors import ReproError
from repro.planner import default_candidates
from repro.schemes import FrameOfReference, PatchedFrameOfReference, PiecewiseLinear
from repro.storage import compute_statistics

SEGMENT = 128
KINDS = ("constant", "distinct", "runs", "sorted", "limits", "small", "walk")
#: Bounds stated as a floor, not a size: patches, fits and per-value widths
#: are not a function of the statistics a profile keeps.
FLOOR_ONLY = ("VARWIDTH", "PFOR", "LINEAR", "DELTA∘[deltas=VARWIDTH]")


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
    assert {"ID", "NS", "FOR", "DICT", "RLE", "RPE", "DELTA", "DELTA∘[deltas=NS]"} \
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


def test_schemes_that_do_not_say_are_always_trialled():
    column = Column(np.random.default_rng(3).integers(0, 1000, 1000))
    profile = ColumnProfile(column.values)
    assert FrameOfReference(reference="mid").stored_bytes_bound(profile) == 0
    for scheme in (PatchedFrameOfReference(), PiecewiseLinear()):
        floor = scheme.stored_bytes_bound(profile)
        assert 0 < floor < scheme.compress(column).compressed_size_bytes()
