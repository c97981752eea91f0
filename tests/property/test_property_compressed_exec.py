"""Property tests (hypothesis): compressed-domain execution ≡ decompress+NumPy.

For every registered lossless scheme and for 2–3-deep cascades, the
compressed-domain kernels — range filter, positional gather, whole-form and
selection aggregates, group codes — must agree bit-for-bit with
decompressing and computing in NumPy, on odd-sized chunks, including empty
selections and PFOR exception segments.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.columnar import Column
from repro.engine import ExecutionContext, RangeBounds, kernels
from repro.engine.kernels import KERNEL_FILTER_RANGE
from repro.engine.operators import aggregate, aggregate_state, grouped_reduce
from repro.engine.scan import scan_table
from repro.engine.predicates import Between
from repro.errors import QueryError, ReproError
from repro.schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    PatchedFrameOfReference,
    RunLengthEncoding,
    RunPositionEncoding,
)
from repro.schemes.registry import SCHEME_FACTORIES, make_scheme
from repro.storage import Table

# Values bounded so signed arithmetic cannot overflow anywhere in a cascade.
VALUE = st.integers(min_value=-(2**40), max_value=2**40)

# ... and values at the dtype limits, where it can: a scheme may refuse such a
# column (with a ReproError, at compress time), but whatever it does compress
# must still filter and gather exactly.  uint64 above 2**63 has no int64
# image at all.
INT64 = np.iinfo(np.int64)
INT64_EDGE = VALUE | st.sampled_from([INT64.min, INT64.min + 1, INT64.max - 1, INT64.max])
UINT64_EDGE = st.integers(min_value=0, max_value=2**20) \
    | st.integers(min_value=2**63, max_value=2**64 - 1)
BOUND = VALUE | st.sampled_from([-(2**63) - 1, -(2**63), 2**63 - 1, 2**63,
                                 2**64 - 1, 2**64])


def columns(min_size=1, max_size=230):
    return st.lists(VALUE, min_size=min_size, max_size=max_size).map(
        lambda xs: Column(np.array(xs, dtype=np.int64)))


def edge_columns():
    def of(values, dtype):
        return st.lists(values, min_size=1, max_size=60).map(
            lambda xs: Column(np.array(xs, dtype=dtype)))
    return columns() | of(INT64_EDGE, np.int64) | of(UINT64_EDGE, np.uint64)


# The model schemes fit in float64: at the limits the rounded prediction
# overflows its int64 cast and the residuals absorb the difference modulo
# 2**64, which the exactness assertions below cover.
at_the_limits = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in cast:RuntimeWarning")


def compress_or_reject(scheme, column):
    try:
        return scheme.compress(column)
    except ReproError:
        assume(False)


def runny_columns(min_size=1):
    pair = st.tuples(st.integers(min_value=-(10**6), max_value=10**6),
                     st.integers(min_value=1, max_value=9))
    return st.lists(pair, min_size=min_size, max_size=40).map(
        lambda pairs: Column(np.repeat(
            np.array([p[0] for p in pairs], dtype=np.int64),
            np.array([p[1] for p in pairs], dtype=np.int64))))


LOSSLESS_STANDALONE = [
    make_scheme(name) for name in sorted(SCHEME_FACTORIES)
    if make_scheme(name).is_lossless
]

CASCADES = [
    # 2 layers deep
    Cascade(RunLengthEncoding(), {"values": Delta(),
                                  "lengths": NullSuppression()}),
    Cascade(RunPositionEncoding(), {"values": Delta(),
                                    "run_positions": Delta()}),
    # 3 layers deep: RLE -> (DELTA whose deltas are NS-packed) on the values
    Cascade(RunLengthEncoding(),
            {"values": Cascade(Delta(narrow=False),
                               {"deltas": NullSuppression()})}),
]

ALL_SCHEMES = LOSSLESS_STANDALONE + CASCADES
ALL_IDS = [s.describe() for s in ALL_SCHEMES]


@at_the_limits
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=ALL_IDS)
@given(column=edge_columns(), lo=BOUND,
       span=st.integers(min_value=0, max_value=2**41) | st.just(2**64))
# float64 cannot tell these two apart; a bound promoted through it matches.
@example(column=Column(np.array([2**63, 5], dtype=np.uint64)), lo=2**63 - 1, span=0)
# One segment spanning more than int64 can hold: min-referenced offsets wrap.
@example(column=Column(np.array([INT64.min, INT64.max - 1], dtype=np.int64)),
         lo=0, span=2**64)
@settings(max_examples=30, deadline=None)
def test_filter_kernel_equals_decompressed_compare(scheme, column, lo, span):
    form = compress_or_reject(scheme, column)
    bounds = RangeBounds(lo, lo + span)
    pushed = kernels.filter_range(scheme, form, bounds)
    if pushed is None:
        assert not kernels.supports(scheme, form, KERNEL_FILTER_RANGE)
        return
    mask, __ = pushed
    # Python-int comparison: exact for any bound, whatever the column dtype.
    expected = [bounds.low <= int(v) <= bounds.high
                for v in scheme.decompress(form).values]
    assert mask.tolist() == expected


@at_the_limits
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=ALL_IDS)
@given(column=edge_columns(), seed=st.integers(min_value=0, max_value=2**31),
       count=st.integers(min_value=0, max_value=80))
@settings(max_examples=30, deadline=None)
def test_gather_kernel_equals_decompressed_index(scheme, column, seed, count):
    form = compress_or_reject(scheme, column)
    rng = np.random.default_rng(seed)
    positions = rng.integers(0, len(column), count)
    gathered = kernels.gather(scheme, form, positions)
    if gathered is None:
        return
    assert gathered.dtype == column.dtype
    assert np.array_equal(gathered, column.values[positions])


#: FOR references beyond 2**53, whose sums wrap int64.
BEYOND_2_53 = st.lists(st.integers(2**53, 2**62), min_size=1, max_size=60).map(
    lambda xs: Column(np.array(xs, dtype=np.int64)))


# The "mid" reference's fit adds segment extrema as NumPy scalars at the limits.
@pytest.mark.filterwarnings("ignore:overflow encountered in scalar add:RuntimeWarning")
@at_the_limits
@pytest.mark.parametrize("scheme", [FrameOfReference(segment_length=5),
                                    FrameOfReference(segment_length=8, reference="mid"),
                                    PatchedFrameOfReference(segment_length=7),
                                    PatchedFrameOfReference(segment_length=3, width_quantile=0.7)],
                         ids=lambda s: s.describe())
@given(column=edge_columns() | BEYOND_2_53)
@example(column=Column(np.full(9, 2**62 + 3, dtype=np.int64)))  # wraps to a small number
@example(column=Column(np.array([2**64 - 1] * 5 + [7], dtype=np.uint64)))
@settings(max_examples=40, deadline=None)
def test_the_for_sum_kernel_equals_the_decoded_sum(scheme, column):
    """``Σ refs·segment lengths + Σ offsets`` (PFOR: patched at its patch
    positions) is NumPy's sum of the decoded values, in the same dtype,
    wrapping mod 2**64 without a ``RuntimeWarning``."""
    import warnings

    from repro.engine.operators import _reduce

    form = compress_or_reject(scheme, column)
    want = _reduce(scheme.decompress(form).values, "sum")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels.aggregate_whole(scheme, form)
    assert got.dtype == want.dtype and got == want


def _state(table, positions, agg_spec):
    """The state builder over the whole table as one range, decompressing
    (where no kernel serves a chunk) without any cache."""
    return aggregate_state(
        table, positions, agg_spec, lambda name, chunk, rows: None,
        chunks_of=lambda name: table.column(name).chunks,
        chunk_values=lambda name, chunk: chunk.decompress())


@given(column=columns(min_size=1, max_size=300),
       chunk_size=st.integers(min_value=1, max_value=61),
       seed=st.integers(min_value=0, max_value=2**31),
       hows=st.lists(st.sampled_from(["count", "sum", "min", "max"]),
                     min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_scalar_state_matches_numpy_on_odd_chunks(column, chunk_size, seed,
                                                  hows):
    """The state builder over every scheme-mixed chunking, finalised, equals
    NumPy — for a lone aggregate (per-chunk partials, whole-form kernels)
    and for several over one column (one shared gather)."""
    rng = np.random.default_rng(seed)
    schemes = [RunLengthEncoding(), DictionaryEncoding(),
               FrameOfReference(segment_length=13), NullSuppression(), Delta()]
    table = Table.from_pydict(
        {"v": column.values},
        schemes={"v": lambda piece: schemes[rng.integers(0, len(schemes))]},
        chunk_size=chunk_size)
    positions = np.flatnonzero(rng.integers(0, 2, len(column))).astype(np.int64)
    selected = Column(column.values[positions])
    state = _state(table, positions, {"key": None, "aggregates": [
        (f"a{index}", how, "v") for index, how in enumerate(hows)]})
    for index, how in enumerate(hows):
        if positions.size == 0 and how != "count":
            with pytest.raises(QueryError):
                state[f"a{index}"].finalize()
        else:
            assert state[f"a{index}"].finalize() == aggregate(selected, how)


@given(column=columns(min_size=1, max_size=300),
       chunk_size=st.integers(min_value=1, max_value=61),
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_grouped_state_matches_unique(column, chunk_size, seed):
    """Group keys factorised from dictionary codes equal ``np.unique`` of
    the selection, and the per-group reductions equal reducing it."""
    rng = np.random.default_rng(seed)
    table = Table.from_pydict({"v": column.values, "w": column.values[::-1]},
                              schemes={"v": DictionaryEncoding(),
                                       "w": NullSuppression()},
                              chunk_size=chunk_size)
    positions = np.flatnonzero(rng.integers(0, 2, len(column))).astype(np.int64)
    state = _state(table, positions, {"key": "v", "aggregates": [
        ("n", "count", None), ("s", "sum", "w"), ("lo", "min", "w")]})
    groups, codes = np.unique(column.values[positions], return_inverse=True)
    codes = codes.reshape(-1)
    assert np.array_equal(state.keys, groups)
    assert state.rows == positions.size
    weights = Column(column.values[::-1][positions])
    for name, how in (("n", "count"), ("s", "sum"), ("lo", "min")):
        op, got = state.aggregates[name]
        want = grouped_reduce(codes, groups.size, weights, how).values
        assert op == how
        assert got.dtype == want.dtype and np.array_equal(got, want)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_pfor_exception_segments_filter_and_gather(data):
    """PFOR forms with real exception patches stay exact under the kernels."""
    base = data.draw(st.lists(st.integers(min_value=0, max_value=30),
                              min_size=5, max_size=200))
    outlier_at = data.draw(st.integers(min_value=0, max_value=len(base) - 1))
    values = np.array(base, dtype=np.int64)
    values[outlier_at] = data.draw(st.integers(min_value=2**20, max_value=2**40))
    column = Column(values)
    scheme = PatchedFrameOfReference(segment_length=7, width_quantile=0.9)
    form = scheme.compress(column)
    lo = data.draw(st.integers(min_value=-5, max_value=35))
    hi = lo + data.draw(st.integers(min_value=0, max_value=2**40))
    pushed = kernels.filter_range(scheme, form, RangeBounds(lo, hi))
    assert pushed is not None
    mask, __ = pushed
    assert np.array_equal(mask, (values >= lo) & (values <= hi))
    positions = np.arange(len(values))[::2]
    assert np.array_equal(kernels.gather(scheme, form, positions),
                          values[positions])


@given(column=runny_columns(),
       chunk_size=st.integers(min_value=3, max_value=47),
       lo=st.integers(min_value=-(10**6), max_value=10**6),
       span=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_scan_with_compressed_exec_is_bit_identical(column, chunk_size, lo, span):
    """The scan scheduler selects and materialises identically with the
    compressed kernels on and off, over cascaded odd-sized chunks."""
    table = Table.from_pydict(
        {"v": column.values},
        schemes={"v": Cascade(RunLengthEncoding(),
                              {"values": Delta(), "lengths": NullSuppression()})},
        chunk_size=chunk_size)
    predicate = Between("v", lo, lo + span)
    fast = scan_table(
        table, [predicate], materialize=["v"],
        context=ExecutionContext(use_compressed_exec=True))
    slow = scan_table(
        table, [predicate], materialize=["v"],
        context=ExecutionContext(
            use_pushdown=False, use_compressed_exec=False))
    assert np.array_equal(fast.selection.positions.values,
                          slow.selection.positions.values)
    assert np.array_equal(fast.columns["v"].values, slow.columns["v"].values)
    assert fast.columns["v"].dtype == slow.columns["v"].dtype
