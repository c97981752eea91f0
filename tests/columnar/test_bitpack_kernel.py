"""The width-specialised unpack and pack kernels against their per-bit references.

Every width, the counts around one alignment period and around the
in-place/padded-tail split, every output dtype the width fits, and the
buffer shapes the callers hand it: a plain array, a read-only one, an
odd-address slice of a larger allocation (what an mmap'd segment looks
like), and a buffer one byte too short (which must raise, never read).

``pack_bits`` must write, byte for byte, the stream the per-bit expansion
writes: every width × the counts around a period and around the two sizes
ingest packs at (a sample of 8 192, a chunk of 65 536), the all-ones value
first and last, from every input dtype and a strided input.

``packed_gather`` is held to the same reference, indexed: every width ×
position sets on both sides of its density rule (a consecutive set is the
unpacked window itself, a dense one indexes that window, a sparse one reads
one byte window per value) × the same buffer shapes, a read-only memmap
included.  ``packed_compare_range`` is held to NumPy's own comparison at
every width, on the bounds at both ends of the stored domain.
"""

from math import gcd

import numpy as np
import pytest

from repro.columnar import Column
from repro.columnar.ops import pack_bits
from repro.columnar.ops.bitpack import (
    SPARSE_RATIO,
    _pack_bits_reference,
    _unpack_bits_reference,
    _unpack_bits_values,
    _unpack_periods,
    contiguous,
    packed_compare_range,
    packed_gather,
)
from repro.errors import OperatorError


def _contiguous(packed):
    return packed.copy()


def _read_only(packed):
    buf = packed.copy()
    buf.setflags(write=False)
    return buf


def _odd_offset(packed):
    backing = np.full(packed.size + 3, 0xFF, dtype=np.uint8)
    backing[3:] = packed
    backing.setflags(write=False)
    return backing[3:]


BUFFERS = [_contiguous, _read_only, _odd_offset]


def _dtypes(width):
    fitting = [dtype for dtype, bits in ((np.uint8, 8), (np.uint16, 16), (np.uint32, 32))
               if width <= bits]
    return [np.uint64, np.int64] + fitting


def _counts(width):
    period = 8 // gcd(width, 8)
    return sorted({0, 1, period - 1, period, period + 1, 4096, 65539})


@pytest.mark.parametrize("width", range(1, 65))
def test_kernel_matches_per_bit_reference(width):
    rng = np.random.default_rng(width)
    for count in _counts(width):
        values = rng.integers(0, (1 << width) - 1, count, dtype=np.uint64, endpoint=True)
        packed = pack_bits(Column(values), width).values
        if count:
            assert np.array_equal(_unpack_bits_reference(packed, width, count), values)
        for make_buffer in BUFFERS:
            for dtype in _dtypes(width):
                out = _unpack_bits_values(make_buffer(packed), width, count, dtype)
                assert out.dtype == dtype
                assert np.array_equal(out, values.astype(dtype)), \
                    (width, count, make_buffer.__name__, dtype)
        if count:
            with pytest.raises(OperatorError, match="buffer holds"):
                _unpack_bits_values(packed[:-1], width, count)


@pytest.mark.parametrize("width", [1, 3, 10, 25, 26, 57, 63])
def test_surplus_bytes_after_the_values_are_ignored(width):
    """A constituent may be longer than count*width bits (a shared segment)."""
    values = np.random.default_rng(0).integers(0, 1 << width, 1000, dtype=np.uint64)
    packed = pack_bits(Column(values), width).values
    padded = np.concatenate([packed, np.full(40, 0xFF, dtype=np.uint8)])
    assert np.array_equal(_unpack_bits_values(padded, width, 1000), values)


def test_kernel_reads_a_memmap_slice(tmp_path):
    values = np.random.default_rng(1).integers(0, 1 << 10, 5000, dtype=np.uint64)
    packed = pack_bits(Column(values), 10).values
    path = tmp_path / "segment.bin"
    path.write_bytes(b"\xff" * 5 + packed.tobytes())
    mapped = np.memmap(path, dtype=np.uint8, mode="r")[5:]
    assert np.array_equal(_unpack_bits_values(mapped, 10, 5000, np.int64),
                          values.astype(np.int64))


def test_windows_cannot_be_laid_past_their_buffer():
    """The structural guarantee behind "never reads past the caller's
    buffer": NumPy refuses a window array that does not fit."""
    with pytest.raises(ValueError):
        _unpack_periods(np.zeros(10, dtype=np.uint8), 3, np.empty(64, dtype=np.int64))


def test_kernel_rejects_what_unpack_bits_rejects():
    byte = np.zeros(8, dtype=np.uint8)
    with pytest.raises(OperatorError, match="bit width"):
        _unpack_bits_values(byte, 0, 1)
    with pytest.raises(OperatorError, match="bit width"):
        _unpack_bits_values(byte, 65, 1)
    with pytest.raises(OperatorError, match="non-negative"):
        _unpack_bits_values(byte, 8, -1)
    with pytest.raises(OperatorError, match="uint8"):
        _unpack_bits_values(np.zeros(8, dtype=np.int64), 8, 1)


# --------------------------------------------------------------------------- #
# pack_bits: the same bytes the per-bit expansion writes
# --------------------------------------------------------------------------- #

def _pack_counts(width):
    period = 8 // gcd(width, 8)
    return sorted({0, 1, period - 1, period, period + 1,
                   8191, 8192, 8193, 65535, 65536, 65537})


def _strided(values):
    backing = np.repeat(values, 2)
    backing.setflags(write=False)
    return Column.wrap_readonly(backing[::2])


@pytest.mark.parametrize("width", range(1, 65))
def test_pack_matches_per_bit_reference(width):
    rng = np.random.default_rng(width)
    top = (1 << width) - 1
    narrower = [dtype for dtype, bits in ((np.int64, 63), (np.uint32, 32), (np.int32, 31),
                                          (np.uint16, 16), (np.uint8, 8), (np.int8, 7))
                if width <= bits]
    for count in _pack_counts(width):
        values = rng.integers(0, top, count, dtype=np.uint64, endpoint=True)
        values[:1] = values[-1:] = top
        expected = _pack_bits_reference(values, width)
        assert expected.size == -(-count * width // 8)
        packed = pack_bits(Column(values), width).values
        assert packed.dtype == np.uint8 and not packed.flags.writeable
        assert packed.flags.c_contiguous  # readers lay word views over it
        assert np.array_equal(packed, expected), (width, count)
        for dtype in narrower:
            assert np.array_equal(pack_bits(Column(values.astype(dtype)), width).values,
                                  expected), (width, count, dtype)
        strided = _strided(values)
        assert count < 2 or not strided.values.flags.c_contiguous
        assert np.array_equal(pack_bits(strided, width).values, expected), (width, count)


def test_pack_rejects_what_it_cannot_pack():
    small = Column(np.arange(8))
    for width in (0, 65):
        with pytest.raises(OperatorError, match="bit width"):
            pack_bits(small, width)
    with pytest.raises(OperatorError, match="integer data"):
        pack_bits(Column(np.linspace(0.0, 1.0, 8)), 8)
    with pytest.raises(OperatorError, match="non-negative"):
        pack_bits(Column(np.array([3, -1, 2])), 8)
    for width, value in ((3, 8), (10, 1 << 10), (63, 1 << 63)):
        with pytest.raises(OperatorError, match="cannot hold"):
            pack_bits(Column(np.array([0, value], dtype=np.uint64)), width)


# --------------------------------------------------------------------------- #
# packed_gather: the same bytes, read at positions
# --------------------------------------------------------------------------- #

GATHER_COUNT = 1_543  # odd, so no width ends on a word boundary by accident


def _surplus(packed):
    return np.concatenate([packed, np.full(40, 0xFF, dtype=np.uint8)])


def _position_sets(count):
    """``{name: positions}`` over ``[0, count)``: dense and sparse strides,
    a contiguous window at an odd start, and the orders a caller may ask in."""
    sets = {f"every-{step}": np.arange(0, count, step) for step in (2, 3, 4, 5, 64)}
    sets.update({
        "window-at-odd-start": np.arange(37, count - 5),
        "duplicates": np.array([7, 7, 8, 8, 8, 9, 7]),
        "descending": np.arange(count - 1, 200, -1),
        "one-value": np.array([count // 2]),
        "first-and-last": np.array([0, count - 1]),
        "first": np.array([0]),
        "last": np.array([count - 1]),
        "unsigned-positions": np.arange(3, 90, dtype=np.uint64),
        "unsorted": np.random.default_rng(count).permutation(count)[: count // 2],
        "sparse-unsorted": np.random.default_rng(count).permutation(count)[: count // 9],
    })
    return sets


def _is_dense(positions):
    return int(positions.max()) - int(positions.min()) < SPARSE_RATIO * positions.size


def test_the_position_sets_sit_on_both_sides_of_the_density_rule():
    dense = {name: _is_dense(positions)
             for name, positions in _position_sets(GATHER_COUNT).items()}
    assert dense["every-2"] and dense["every-3"] and dense["every-4"]
    assert not dense["every-5"] and not dense["every-64"]
    assert dense["window-at-odd-start"] and dense["descending"] and dense["duplicates"]
    assert not dense["first-and-last"] and not dense["sparse-unsorted"]
    runs = {name for name, positions in _position_sets(GATHER_COUNT).items()
            if contiguous(positions) is not None}
    assert runs == {"window-at-odd-start", "unsigned-positions", "one-value", "first", "last"}


def test_contiguous_is_the_slice_the_positions_equal():
    assert contiguous(np.arange(5, 9)) == slice(5, 9)
    assert contiguous(np.array([0])) == slice(0, 1)
    for positions in ([], [1, 3, 2, 4], [2, 3, 3, 4], [4, 3, 2, 1], [-2, -1, 0], [0, 2, 4]):
        assert contiguous(np.array(positions, dtype=np.int64)) is None, positions


@pytest.mark.parametrize("width", range(1, 65))
def test_packed_gather_matches_the_indexed_reference(width):
    rng = np.random.default_rng(width)
    values = rng.integers(0, (1 << width) - 1, GATHER_COUNT, dtype=np.uint64, endpoint=True)
    packed = pack_bits(Column(values), width).values
    assert packed.size == -(-GATHER_COUNT * width // 8)  # not a byte to spare
    reference = _unpack_bits_reference(packed, width, GATHER_COUNT)
    assert np.array_equal(reference, values)
    for make_buffer in BUFFERS + [_surplus]:
        buffer = Column.wrap_readonly(make_buffer(packed))
        for name, positions in _position_sets(GATHER_COUNT).items():
            out = packed_gather(buffer, width, GATHER_COUNT, positions)
            assert out.dtype == np.uint64
            assert np.array_equal(out, reference[positions]), \
                (width, make_buffer.__name__, name)


@pytest.mark.parametrize("width", range(1, 65))
def test_packed_gather_reads_a_memmap_slice(tmp_path, width):
    values = np.random.default_rng(width).integers(
        0, (1 << width) - 1, GATHER_COUNT, dtype=np.uint64, endpoint=True)
    packed = pack_bits(Column(values), width).values
    path = tmp_path / "segment.bin"
    path.write_bytes(b"\xff" * 5 + packed.tobytes())
    mapped = Column.wrap_readonly(np.memmap(path, dtype=np.uint8, mode="r")[5:])
    for name, positions in _position_sets(GATHER_COUNT).items():
        assert np.array_equal(packed_gather(mapped, width, GATHER_COUNT, positions),
                              values[positions]), (width, name)


@pytest.mark.parametrize("width", [1, 3, 10, 17, 57, 63, 64])
def test_packed_gather_refuses_a_buffer_shorter_than_its_count(width):
    """Dense or sparse, in range of the bytes present or not: the buffer is
    checked against ``count * width`` bits before anything is read (the
    positional read zero-pads its last words and used to answer ``0``)."""
    values = np.random.default_rng(0).integers(
        0, (1 << width) - 1, 1000, dtype=np.uint64, endpoint=True)
    packed = Column.wrap_readonly(pack_bits(Column(values), width).values[:-1])
    for positions in (np.arange(1000), np.arange(10, 20), np.array([5, 500, 999]),
                      np.array([0])):
        with pytest.raises(OperatorError, match="buffer holds"):
            packed_gather(packed, width, 1000, positions)


def test_packed_gather_rejects_what_it_cannot_read():
    packed = pack_bits(Column(np.arange(8, dtype=np.uint64)), 4)
    assert packed_gather(packed, 4, 8, np.empty(0, dtype=np.int64)).dtype == np.uint64
    with pytest.raises(OperatorError, match="out of range"):
        packed_gather(packed, 4, 8, np.array([8]))
    with pytest.raises(OperatorError, match="out of range"):
        packed_gather(packed, 4, 8, np.array([-1, 2]))
    with pytest.raises(OperatorError, match="bit width"):
        packed_gather(packed, 65, 8, np.array([0]))
    with pytest.raises(OperatorError, match="uint8"):
        packed_gather(Column(np.zeros(8, dtype=np.int64)), 8, 8, np.array([0]))


# --------------------------------------------------------------------------- #
# packed_compare_range: NumPy's comparison, at the stream's own width
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("width", range(1, 65))
def test_packed_compare_range_matches_numpy(width):
    rng = np.random.default_rng(width)
    top = (1 << width) - 1
    period = 8 // gcd(width, 8)
    for count in (1, 37 * period + 1, 1_003, 4_099):  # odd: no period divides them
        values = rng.integers(0, top, count, dtype=np.uint64, endpoint=True)
        values[:2] = (0, top)[:count]
        packed = pack_bits(Column(values), width)
        drawn = sorted(int(bound) for bound in rng.integers(0, top, 2, dtype=np.uint64,
                                                            endpoint=True))
        for lo, hi in [(0, 0), (0, top), (top, top), tuple(drawn)]:
            mask = packed_compare_range(packed, width, count, lo, hi)
            assert mask.dtype == bool and mask.shape == (count,)
            assert np.array_equal(mask, (values >= np.uint64(lo)) & (values <= np.uint64(hi))), \
                (width, count, lo, hi)
        with pytest.raises(OperatorError, match="buffer holds"):
            packed_compare_range(Column(packed.values[:-1]), width, count, 0, top)
