"""The width-specialised unpack kernel against the per-bit reference.

Every width, the counts around one alignment period and around the
in-place/padded-tail split, every output dtype the width fits, and the
buffer shapes the callers hand it: a plain array, a read-only one, an
odd-address slice of a larger allocation (what an mmap'd segment looks
like), and a buffer one byte too short (which must raise, never read).
"""

from math import gcd

import numpy as np
import pytest

from repro.columnar import Column
from repro.columnar.ops import pack_bits
from repro.columnar.ops.bitpack import (
    _unpack_bits_reference,
    _unpack_bits_values,
    _unpack_periods,
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
