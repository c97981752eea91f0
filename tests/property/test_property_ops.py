"""Property-based tests (hypothesis): columnar operator algebra invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.columnar import Column
from repro.columnar import ops
from repro.columnar.ops.bitpack import packed_gather

SMALL_INTS = st.lists(st.integers(min_value=-10**6, max_value=10**6),
                      min_size=0, max_size=300)


def as_column(values):
    return Column(np.array(values, dtype=np.int64))


@given(values=SMALL_INTS)
@settings(max_examples=50, deadline=None)
def test_adjacent_difference_inverts_prefix_sum(values):
    col = as_column(values)
    assert ops.adjacent_difference(ops.prefix_sum(col)).equals(col)


@given(values=SMALL_INTS)
@settings(max_examples=50, deadline=None)
def test_prefix_sum_inverts_adjacent_difference(values):
    col = as_column(values)
    assert ops.prefix_sum(ops.adjacent_difference(col)).equals(col)


@given(values=SMALL_INTS)
@settings(max_examples=50, deadline=None)
def test_exclusive_scan_shift_relationship(values):
    col = as_column(values)
    inclusive = ops.prefix_sum(col).to_pylist()
    exclusive = ops.exclusive_prefix_sum(col).to_pylist()
    expected = [0] + inclusive[:-1] if inclusive else []
    assert exclusive == expected


@given(values=SMALL_INTS.filter(lambda v: len(v) > 0))
@settings(max_examples=50, deadline=None)
def test_runs_decomposition_reconstructs(values):
    col = as_column(values)
    run_values, run_lengths = ops.run_values(col), ops.run_lengths(col)
    assert ops.repeat(run_values, run_lengths).equals(col)
    assert int(run_lengths.values.sum()) == len(col)


@given(values=SMALL_INTS, mask_bits=st.data())
@settings(max_examples=50, deadline=None)
def test_compact_positions_gather_equivalence(values, mask_bits):
    """Compact(col, m) == Gather(col, positions of m) — two spellings of selection."""
    col = as_column(values)
    mask = Column(np.array(
        mask_bits.draw(st.lists(st.booleans(), min_size=len(col), max_size=len(col))),
        dtype=bool))
    compacted = ops.compact(col, mask)
    gathered = ops.gather(col, Column(np.flatnonzero(mask.values))) if len(col) else compacted
    assert compacted.equals(gathered)


@given(data=st.data(), width=st.integers(min_value=1, max_value=64),
       dtype=st.sampled_from([np.uint64, np.int64]))
@settings(max_examples=200, deadline=None)
def test_pack_unpack_roundtrip_at_every_width(data, width, dtype):
    values = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << width) - 1),
                                min_size=1, max_size=300))
    col = Column(np.array(values, dtype=np.uint64))
    packed = ops.pack_bits(col, width=width)
    assert packed.nbytes == (len(col) * width + 7) // 8
    out = ops.unpack_bits(packed, width=width, count=len(col), dtype=dtype)
    assert out.dtype == dtype
    assert np.array_equal(out.values, col.values.astype(dtype))
    # The positional read equals indexing the unpacked values, for any
    # positions (few scattered ones are read value by value) and for a dense
    # window walked at a small stride (read as one unpacked window): order
    # and duplicates preserved.
    last = len(col) - 1
    scattered = data.draw(st.lists(st.integers(0, last), min_size=0, max_size=40))
    start = data.draw(st.integers(0, last))
    window = np.arange(start, data.draw(st.integers(start, last)) + 1,
                       data.draw(st.integers(1, 6)))
    for positions in (np.array(scattered, dtype=np.int64), window, window[::-1]):
        gathered = packed_gather(packed, width, len(col), positions)
        assert gathered.dtype == np.uint64
        assert np.array_equal(gathered, col.values[positions])


@given(values=SMALL_INTS)
@settings(max_examples=50, deadline=None)
def test_zigzag_roundtrip_and_nonnegativity(values):
    col = as_column(values)
    encoded = ops.zigzag_encode(col)
    if len(col):
        assert int(encoded.values.min()) >= 0
    assert ops.zigzag_decode(encoded).equals(col)


@given(values=SMALL_INTS.filter(lambda v: len(v) > 0), data=st.data())
@settings(max_examples=50, deadline=None)
def test_gather_scatter_inverse_on_permutations(values, data):
    """Scattering values to a permutation then gathering through it is the identity."""
    col = as_column(values)
    permutation = np.array(data.draw(st.permutations(range(len(col)))), dtype=np.int64)
    perm_col = Column(permutation)
    scattered = ops.scatter(col, perm_col, ops.zeros(len(col)))
    assert ops.gather(scattered, perm_col).equals(col)
