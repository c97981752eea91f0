"""Property tests (hypothesis): compressed-domain execution ≡ decompress+NumPy.

For every registered lossless scheme and for 2–3-deep cascades, the
compressed-domain kernels — range filter, positional gather, whole-chunk
(zone-map) and selection aggregates, group codes — must agree bit-for-bit with
decompressing and computing in NumPy, on odd-sized chunks, including empty
selections and PFOR exception segments.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.api import col
from repro.columnar import Column
from repro.engine import ExecutionContext, RangeBounds, kernels
from repro.engine.kernels import KERNEL_FILTER_RANGE
from repro.engine.operators import aggregate, aggregate_state, grouped_reduce, merge_states
from repro.engine.scan import scan_table
from repro.errors import OperatorError, QueryError, ReproError
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


INTEGER_DTYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64,
                  np.uint64]


@pytest.mark.parametrize("dtype", INTEGER_DTYPES, ids=lambda dtype: np.dtype(dtype).name)
@given(data=st.data(), chunk_size=st.integers(min_value=1, max_value=40))
@settings(max_examples=20, deadline=None)
def test_chunk_totals_merge_to_numpys_sum(dtype, data, chunk_size):
    """Every chunk's ``total`` is its exact sum, and the totals merged — in
    memory and read back from a packed file, through a scan answered from
    them alone — are NumPy's ``sum(dtype=int64/uint64)``, wrapping mod 2**64
    where values at the dtype's limits add up past it."""
    import tempfile

    from repro.columnar.dtypes import sum_accumulator
    from repro.io import open_packed_table, write_packed_table

    info = np.iinfo(dtype)
    near = st.integers(info.min, info.min + 2) | st.integers(info.max - 2, info.max) \
        | st.integers(info.min, info.max)
    values = np.array(data.draw(st.lists(near, min_size=1, max_size=120)), dtype=dtype)
    want = values.sum(dtype=sum_accumulator(dtype))
    table = Table.from_pydict({"v": values}, chunk_size=chunk_size)
    plan = {"key": None, "aggregates": [("s", "sum", "v")]}
    with tempfile.TemporaryDirectory() as directory:
        packed = open_packed_table(write_packed_table(table, f"{directory}/v.rpk"))
        for stored in (table, packed.table):
            column = stored.column("v")
            assert sum(chunk.statistics.total for chunk in column.chunks) == sum(values.tolist())
            totals = column.zone_maps().totals
            assert totals.dtype == want.dtype and np.add.reduce(totals) == want
            scan = scan_table(stored, [], aggregates=plan)
            assert scan.state["s"].partial.dtype == want.dtype
            assert scan.state["s"].finalize() == int(want)
        assert packed.segments_mapped == 0
        packed.close()


def _state(table, positions, agg_spec):
    """The state builder run on every chunk range of the table over the
    global *positions* in it, decompressing (where no kernel serves a chunk)
    without any cache, the ranges' states folded with ``merge_states``."""
    states = []
    for index, (start, rows) in enumerate(zip(*(array.tolist() for array in table.grid))):
        local = positions[(positions >= start) & (positions < start + rows)] - start
        states.append(aggregate_state(
            table, index, local, agg_spec, lambda name, rows: None,
            chunk_values=lambda name, index=index: table.column(name).chunks[index]
            .decompress().values))
    return merge_states(states)


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


@pytest.mark.parametrize("dtype", INTEGER_DTYPES, ids=lambda dtype: np.dtype(dtype).name)
@pytest.mark.parametrize("scheme", [RunLengthEncoding(), RunPositionEncoding()],
                         ids=["RLE", "RPE"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_run_domain_rewrites_equal_decompress_then_compute(dtype, scheme, data):
    """The filter and gather query plans, rewritten into the run domain,
    equal decompress-then-compare and decompress-then-index: at the dtype's
    limits, on one run and on runs of one row, for any bounds and for no
    positions; a position outside the rows is an error."""
    info = np.iinfo(dtype)
    value = st.integers(info.min, info.min + 1) | st.integers(info.max - 1, info.max) \
        | st.integers(info.min, info.max)
    values = np.array(data.draw(st.lists(value, min_size=1, max_size=30)), dtype=dtype)
    shape = data.draw(st.sampled_from(["runs", "one-run", "unit-runs"]))
    if shape == "runs":
        values = np.repeat(values, data.draw(st.lists(st.integers(1, 5), min_size=values.size,
                                                      max_size=values.size)))
    elif shape == "one-run":
        values = np.full(data.draw(st.integers(1, 50)), values[0], dtype=dtype)
    else:
        values = np.unique(values)
    form = scheme.compress(Column(values))
    low = data.draw(BOUND | value)
    bounds = RangeBounds(low, low + data.draw(st.integers(0, 2**65)))
    mask, stats = kernels.filter_range(scheme, form, bounds)
    decoded = scheme.decompress(form).values
    assert mask.tolist() == [bounds.low <= int(v) <= bounds.high for v in decoded]
    assert stats.runs_total == form.constituent_length("values")
    positions = np.array(data.draw(st.lists(st.integers(0, values.size - 1), max_size=40)),
                         dtype=np.int64)
    gathered = kernels.gather(scheme, form, positions)
    assert gathered.dtype == values.dtype and np.array_equal(gathered, decoded[positions])
    outside = data.draw(st.sampled_from([-1, values.size]) | st.integers(-2**62, -1))
    with pytest.raises(OperatorError):  # as decompress-then-index raises
        kernels.gather(scheme, form, np.append(positions, outside))


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
    predicate = col("v").between(lo, lo + span)
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
