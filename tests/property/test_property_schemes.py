"""Property-based tests (hypothesis): scheme round-trips and invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.columnar import Column
from repro.schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    PatchedFrameOfReference,
    PiecewiseLinear,
    RunLengthEncoding,
    RunPositionEncoding,
    VariableWidth,
)

# Bounded 63-bit values so signed intermediate arithmetic can never overflow.
VALUE = st.integers(min_value=-(2**40), max_value=2**40)
SMALL_VALUE = st.integers(min_value=-1000, max_value=1000)


def int_columns(values=VALUE, min_size=0, max_size=300):
    return st.lists(values, min_size=min_size, max_size=max_size).map(
        lambda xs: Column(np.array(xs, dtype=np.int64))
    )


def runny_columns():
    """Columns built from (value, run length) pairs — guaranteed run structure."""
    pair = st.tuples(st.integers(min_value=-10**6, max_value=10**6),
                     st.integers(min_value=1, max_value=20))
    return st.lists(pair, min_size=1, max_size=50).map(
        lambda pairs: Column(np.repeat(np.array([p[0] for p in pairs], dtype=np.int64),
                                       np.array([p[1] for p in pairs], dtype=np.int64)))
    )


LOSSLESS_SCHEMES = [
    NullSuppression(),
    NullSuppression(mode="aligned"),
    Delta(),
    RunLengthEncoding(),
    RunPositionEncoding(),
    FrameOfReference(segment_length=17),
    FrameOfReference(segment_length=32, reference="mid"),
    DictionaryEncoding(),
    PatchedFrameOfReference(segment_length=23),
    VariableWidth(),
    PiecewiseLinear(segment_length=19),
]


@pytest.mark.parametrize("scheme", LOSSLESS_SCHEMES, ids=lambda s: s.describe())
@given(column=int_columns())
@settings(max_examples=25, deadline=None)
def test_roundtrip_arbitrary_integers(scheme, column):
    """compress ∘ decompress == identity for every lossless scheme."""
    restored = scheme.decompress(scheme.compress(column))
    assert restored.equals(column)


@pytest.mark.parametrize("scheme", LOSSLESS_SCHEMES, ids=lambda s: s.describe())
@given(column=int_columns(values=SMALL_VALUE, min_size=1, max_size=200))
@settings(max_examples=25, deadline=None)
def test_interpreted_and_compiled_agree(scheme, column):
    """The interpreted plan and its compiled form always produce the same output."""
    form = scheme.compress(column)
    assert scheme.decompress_interpreted(form).equals(scheme.decompress(form), check_dtype=True)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64],
                         ids=lambda d: np.dtype(d).name)
@given(runs=st.lists(st.tuples(SMALL_VALUE, st.integers(min_value=1, max_value=20)),
                     min_size=1, max_size=12))  # at most 240 rows: fits uint8
@example(runs=[(7, 200)])                        # a single run
@example(runs=[(v, 1) for v in range(100)])      # every run of length 1
@settings(max_examples=25, deadline=None)
def test_rpe_compiled_equals_interpreted_for_every_position_dtype(dtype, runs):
    """The stored-``ends`` rewrite (``Repeat(V, AdjacentDifference(ends))``)
    decodes what Algorithm 1 sans its first operation decodes, whatever
    width the positions were narrowed to."""
    values, lengths = zip(*runs)
    column = Column(np.repeat(np.array(values, dtype=np.int64), lengths))
    scheme = RunPositionEncoding(narrow_positions=False)
    form = scheme.compress(column)
    form = form.with_constituent("run_positions",
                                 form.constituent("run_positions").astype(dtype))
    compiled = scheme.decompress(form)
    assert [step.op for step in scheme.compiled_decompression_plan(form).plan.steps] \
        == ["AdjacentDifference", "Repeat"]
    assert compiled.equals(scheme.decompress_interpreted(form), check_dtype=True)
    assert compiled.equals(column, check_dtype=True)


@given(column=runny_columns())
@settings(max_examples=40, deadline=None)
def test_rle_constituents_invariants(column):
    """RLE invariants: lengths sum to n, lengths positive, values have no adjacent repeats."""
    form = RunLengthEncoding(narrow_lengths=False).compress(column)
    lengths = form.constituent("lengths").values
    values = form.constituent("values").values
    assert int(lengths.sum()) == len(column)
    assert (lengths > 0).all()
    assert not (values[1:] == values[:-1]).any()


@given(column=runny_columns())
@settings(max_examples=40, deadline=None)
def test_rpe_positions_strictly_increasing(column):
    form = RunPositionEncoding(narrow_positions=False).compress(column)
    positions = form.constituent("run_positions").values
    assert (np.diff(positions) > 0).all()
    assert positions[-1] == len(column)


@given(column=runny_columns())
@settings(max_examples=30, deadline=None)
def test_rle_rpe_identity_holds(column):
    """§II-A: RLE's lengths are the differences of DELTA of RPE's positions
    (its deltas with base restored at index 0), on arbitrary run data."""
    rle = RunLengthEncoding(narrow_lengths=False).compress(column)
    rpe = RunPositionEncoding(narrow_positions=False).compress(column)
    deltas = Delta(narrow=False).compress(rpe.constituent("run_positions"))
    assert rle.constituent("lengths").equals(Delta.differences(deltas), check_dtype=True)


@given(column=int_columns(min_size=1), segment_length=st.integers(min_value=1, max_value=70))
@settings(max_examples=30, deadline=None)
def test_for_model_plus_residual_identity(column, segment_length):
    """§II-B: refs[segment(i)] + offset[i] == value[i] for every element."""
    form = FrameOfReference(segment_length=segment_length,
                            offsets_layout="aligned").compress(column)
    refs = form.constituent("refs").values
    offsets = form.constituent("offsets").values.astype(np.int64)
    seg = np.arange(len(column)) // segment_length
    assert np.array_equal(refs[seg] + offsets, column.values)


@given(column=int_columns(values=SMALL_VALUE, min_size=1))
@settings(max_examples=30, deadline=None)
def test_compressed_size_is_positive_and_ratio_consistent(column):
    for scheme in (NullSuppression(), Delta(), RunLengthEncoding()):
        form = scheme.compress(column)
        assert form.compressed_size_bytes() > 0
        assert form.compression_ratio() == pytest.approx(
            form.uncompressed_size_bytes() / form.compressed_size_bytes())


@given(column=runny_columns())
@settings(max_examples=30, deadline=None)
def test_cascade_roundtrip_property(column):
    composite = Cascade(RunLengthEncoding(), {"values": Delta(), "lengths": NullSuppression()})
    assert composite.decompress(composite.compress(column)).equals(column)


@given(column=int_columns(values=SMALL_VALUE, min_size=1, max_size=200))
@settings(max_examples=30, deadline=None)
def test_delta_then_prefix_sum_is_identity(column):
    """DELTA's compression followed by its decompression plan is the identity."""
    scheme = Delta(narrow=False)
    form = scheme.compress(column)
    plan = scheme.decompression_plan(form)
    out = plan.evaluate(scheme.plan_inputs(form))  # deltas, and base as a binding
    assert np.array_equal(out.values, column.values)
