"""Bit-packing operators: the physical half of null suppression (NS).

Null suppression stores each value in ``w`` bits rather than its full
physical width.  To keep size accounting honest (a compression-scheme
library that counts a 3-bit value as one byte flatters nobody), the NS
scheme really does pack values at bit granularity into a ``uint8`` buffer,
and these operators are the pack/unpack kernels — and they are registered
columnar operators, so unpacking appears in decompression plans like any
other step.

The packing layout is little-endian within the buffer: value ``i`` occupies
bits ``[i*w, (i+1)*w)`` of the bit stream, least-significant bit first.

Unpacking (:func:`_unpack_bits_values`, the one kernel behind ``UnpackBits``,
the fused ``("unpack", …)`` instruction and the engine's code/residual
readers) is specialised by width.  A whole-byte width (8/16/32/64) is a
typed view of the buffer plus a cast.  Any other width repeats its bit
alignment every ``period = 8 / gcd(w, 8)`` values, which together fill
``stride = w * period / 8`` whole bytes; within a period, value ``phase``
starts at bit ``phase * w``.  Stepping to the next phase advances ``w // 8``
whole bytes and ``w % 8`` bits, so a run of consecutive phases starting at
phase ``a`` is *one* two-dimensional array of unaligned little-endian
*windows* laid straight over the packed bytes — ``w // 8`` bytes from row to
row, ``stride`` bytes from period to period, ``(a*w) // 8`` bytes in — whose
row ``i`` holds its values ``(a*w) % 8 + i * (w % 8)`` bits up.  One
``(windows >> shifts) & mask`` per run writes every ``period``-th slot of the
output in the requested dtype: no index arrays, no gathers.  A run extends
while its last shift plus ``w`` still fits 64 bits and reads through the
narrowest window that holds that many (1, 2, 4 or 8 bytes: width 4 unpacks
through bytes); most widths are a single run.  A lone phase
needs ``shift + w <= 7 + w`` bits, which 8 bytes hold up to ``w = 57``; the
widths 58–63 OR in their top bits from a ninth *spill* byte.  Windows never
extend past the caller's buffer: the periods whose windows fit are read in
place, the last few values from a small zero-padded private copy.

Packing (:func:`_pack_bits_values`, behind ``PackBits``) is the mirror image,
in the same periods.  A whole-byte width is a cast and a byte view, width 1
is ``np.packbits`` alone.  A period of at most 8 bytes (every width up to 7,
and 10, 12, 14, 20, 24, 28, 40, 48, 56) is gathered into one 64-bit
word — value ``phase`` shifted up ``phase * w`` bits and OR-ed in, one pass
per phase — whose low ``stride`` bytes are the period's bytes.  A longer
period is written where the unpack kernel would read it: per phase, the
values shifted up ``(phase * w) % 8`` bits are OR-ed into unaligned
little-endian 64-bit windows laid over the zeroed output ``stride`` bytes
apart (more than 8, so one phase's windows never overlap), and the phases
whose ``shift + w`` exceeds 64 (widths 59 and 61–63) OR their top bits into
the ninth, *spill* byte.  At most 8 phases whatever the width, so a sample of
8 192 values gains as a chunk of 65 536 does; the last period is zero-padded
and the stream cut to ``ceil(n * w / 8)`` bytes.  The per-bit expansion
(an ``n × w`` bit matrix through ``np.packbits``) survives as
:func:`_pack_bits_reference`, the big-endian fallback and the tests' reference.

Comparisons (:func:`packed_compare_range`) unpack into the narrowest
unsigned dtype that holds ``w`` bits and compare once.  Positional reads
(:func:`packed_gather`) read at the stream's width too: consecutive positions
are an unpacked window, returned as it is; positions whose covering window
holds at most :data:`SPARSE_RATIO` values each unpack that window and index
it; sparser ones read each value from one unaligned 2-, 4- or 8-byte window
at its first byte (the two words around it at widths 58–64).
"""

from __future__ import annotations

import sys
from math import gcd
from typing import Optional

import numpy as np

from ...errors import OperatorError
from ..column import Column
from .registry import register_operator

_LITTLE_ENDIAN = sys.byteorder == "little"

#: Reading values of a compressed chunk positionally beats reading it whole up
#: to one value in this many: the one density threshold of :func:`packed_gather`,
#: the FOR straddle decode and :func:`repro.engine.operators.sparse_hits`.
SPARSE_RATIO = 4


def _require_width(width: int) -> None:
    if not 1 <= width <= 64:
        raise OperatorError(f"bit width must be in [1, 64], got {width}")


def _window(bits: int) -> str:
    """The narrowest little-endian unsigned dtype that holds *bits* (<= 64) bits."""
    return next(f"<u{size}" for size in (1, 2, 4, 8) if bits <= 8 * size)


def _unpack_periods(src: np.ndarray, width: int, out: np.ndarray) -> None:
    """Shift-and-mask whole periods of *width*-bit values from *src* into *out*.

    ``out.size`` is a multiple of the period, and *src* covers ``stride + 8``
    bytes from the start of every period (the caller guarantees both;
    ``np.ndarray`` refuses a window array that would not fit its buffer).
    """
    period = 8 // gcd(width, 8)
    stride = width * period // 8
    step_bytes, step_bits = divmod(width, 8)
    lanes = out.reshape(-1, period).T  # lanes[phase] = every period-th slot
    mask = (1 << width) - 1
    phase = 0
    while phase < period:
        byte, shift = divmod(phase * width, 8)
        phases = 1
        while phase + phases < period and shift + phases * step_bits + width <= 64:
            phases += 1
        last_shift = shift + (phases - 1) * step_bits
        window = _window(min(last_shift + width, 64))
        values = np.ndarray(
            (phases, lanes.shape[1]), window, src, offset=byte, strides=(step_bytes, stride)
        )
        if last_shift:
            shifts = shift + step_bits * np.arange(phases, dtype=window)
            # The C-ordered temporary keeps the inner loop along the periods;
            # left to choose, NumPy would walk the few phases innermost.
            values = np.right_shift(
                values, shifts[:, None], out=np.empty(values.shape, dtype=window)
            )
            if shift + width > 64:
                spill = np.ndarray(
                    values.shape, np.uint8, src, offset=byte + 8, strides=(0, stride)
                )
                values |= spill.astype(np.uint64) << (64 - shift)
        np.bitwise_and(values, mask, out=lanes[phase : phase + phases], casting="unsafe")
        phase += phases


def _unpack_bits_reference(buf: np.ndarray, width: int, count: int) -> np.ndarray:
    """Per-bit unpack (uint64): the big-endian fallback and the tests' reference."""
    bits = np.unpackbits(buf, count=count * width, bitorder="little").reshape(count, width)
    weights = np.uint64(1) << np.arange(width, dtype=np.uint64)
    return (bits.astype(np.uint64) * weights[None, :]).sum(axis=1, dtype=np.uint64)


def _unpack_bits_values(buf: np.ndarray, width: int, count: int, dtype=np.uint64) -> np.ndarray:
    """Raw-array unpack kernel: *count* ``width``-bit values of *buf* as *dtype*.

    Every unpack in the library goes through here, so the checks live here
    too: a buffer shorter than ``count * width`` bits raises
    :class:`OperatorError` for the plain, fused and engine callers alike.
    The result is a fresh array (never a view of *buf*); values that do not
    fit *dtype* wrap as ``astype`` would.
    """
    _require_width(width)
    if count < 0:
        raise OperatorError(f"UnpackBits() count must be non-negative, got {count}")
    out = np.empty(count, dtype=dtype)
    if count == 0:
        return out
    if buf.dtype != np.uint8:
        raise OperatorError(f"UnpackBits() requires a uint8 buffer, got dtype {buf.dtype}")
    needed_bits = count * width
    if buf.size * 8 < needed_bits:
        raise OperatorError(f"UnpackBits() buffer holds {buf.size * 8} bits, needs {needed_bits}")
    if not _LITTLE_ENDIAN:
        out[...] = _unpack_bits_reference(buf, width, count)
        return out
    buf = np.ascontiguousarray(buf)
    if width in (8, 16, 32, 64):
        out[...] = buf[: needed_bits // 8].view(f"<u{width // 8}")
        return out
    # Periods whose windows end inside *buf* are read in place ...
    period = 8 // gcd(width, 8)
    stride = width * period // 8
    in_place = min(max((buf.size - 8) // stride, 0), count // period)
    if in_place:
        _unpack_periods(buf, width, out[: in_place * period])
    # ... the rest from a zero-padded copy of just the bytes that hold them.
    rest = out[in_place * period :]
    if rest.size:
        periods = -(-rest.size // period)
        tail = np.zeros(periods * stride + 8, dtype=np.uint8)
        held = buf[in_place * stride : (in_place + periods) * stride]
        tail[: held.size] = held
        values = np.empty(periods * period, dtype=dtype)
        _unpack_periods(tail, width, values)
        rest[...] = values[: rest.size]
    return out


def _pack_periods(values: np.ndarray, width: int) -> np.ndarray:
    """OR whole periods of *width*-bit *values* (uint64) into their bytes.

    ``values.size`` is a multiple of the period (the caller zero-pads the
    last one); the result holds ``stride`` bytes per period.
    """
    period = 8 // gcd(width, 8)
    stride = width * period // 8
    lanes = values.reshape(-1, period).T  # lanes[phase] = every period-th value
    periods = lanes.shape[1]
    if stride <= 8:
        # The period fits one word: gather it there, keep its low bytes.
        words = lanes[0].astype("<u8")
        for phase in range(1, period):
            words |= lanes[phase] << np.uint64(phase * width)
        return np.ascontiguousarray(words.view(np.uint8).reshape(-1, 8)[:, :stride]).reshape(-1)
    # One unaligned window per period and phase, as the unpack kernel reads
    # them; a phase's windows are `stride` > 8 bytes apart, so they never
    # overlap each other, and the 8 bytes of slack hold the last ones.
    out = np.zeros(periods * stride + 8, dtype=np.uint8)
    for phase in range(period):
        byte, shift = divmod(phase * width, 8)
        windows = np.ndarray(periods, "<u8", out, offset=byte, strides=(stride,))
        windows |= lanes[phase] << np.uint64(shift)
        if shift + width > 64:
            spill = np.ndarray(periods, np.uint8, out, offset=byte + 8, strides=(stride,))
            spill |= (lanes[phase] >> np.uint64(64 - shift)).astype(np.uint8)
    return out[: periods * stride]


def _pack_bits_reference(values: np.ndarray, width: int) -> np.ndarray:
    """Per-bit pack of uint64 *values*: the big-endian fallback and the tests' reference."""
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((values[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little")


def _pack_bits_values(values: np.ndarray, width: int) -> np.ndarray:
    """Raw-array pack kernel: uint64 *values*, each below ``2**width``, as
    the ``ceil(size * width / 8)`` bytes of their bit stream (a fresh array)."""
    if not _LITTLE_ENDIAN:
        return _pack_bits_reference(values, width)
    if width == 1:
        return np.packbits(values.astype(np.uint8), bitorder="little")
    if width in (8, 16, 32, 64):
        return values.astype(f"<u{width // 8}").view(np.uint8)
    stream_bytes = -(-values.size * width // 8)
    padding = -values.size % (8 // gcd(width, 8))
    if padding:
        values = np.concatenate([values, np.zeros(padding, dtype=np.uint64)])
    return _pack_periods(values, width)[:stream_bytes]


@register_operator(
    "PackBits",
    1,
    "bit-pack non-negative integers at a fixed width",
    cost_weight=1.5,
    category="bitpack",
)
def pack_bits(col: Column, width: int, name: Optional[str] = None) -> Column:
    """Pack the non-negative integers of *col* at *width* bits per value.

    Returns a ``uint8`` column holding the packed bit stream (padded with
    zero bits up to a whole number of bytes).

    >>> from repro.columnar.ops.generate import sequence
    >>> packed = pack_bits(sequence([1, 2, 3]), width=2)
    >>> unpack_bits(packed, width=2, count=3).to_pylist()
    [1, 2, 3]
    """
    _require_width(width)
    values = col.values
    if len(values) == 0:
        return Column.adopt(np.empty(0, dtype=np.uint8), name=name)
    if not np.issubdtype(values.dtype, np.integer):
        raise OperatorError(f"PackBits() requires integer data, got dtype {values.dtype}")
    if int(values.min()) < 0:
        raise OperatorError(
            "PackBits() requires non-negative values "
            "(apply zig-zag encoding first for signed data)"
        )
    if width < 64 and int(values.max()) >= (1 << width):
        raise OperatorError(
            f"PackBits() width {width} cannot hold maximum value {int(values.max())}"
        )
    packed = _pack_bits_values(values.astype(np.uint64, copy=False), width)
    return Column.adopt(packed, name=name or col.name)


@register_operator(
    "UnpackBits", 1, "unpack a fixed-width bit-packed buffer", cost_weight=1.5, category="bitpack"
)
def unpack_bits(
    packed: Column, width: int, count: int, dtype=np.uint64, name: Optional[str] = None
) -> Column:
    """Unpack *count* values of *width* bits each from a packed ``uint8`` column.

    The inverse of :func:`pack_bits`.
    """
    values = _unpack_bits_values(packed.values, width, count, dtype)
    return Column.adopt(values, name=name or packed.name)


def _fetch(buf: np.ndarray, window: str, at: np.ndarray, last: int) -> np.ndarray:
    """The little-endian *window* starting at each byte offset of *at* (all at
    most *last*), read from a zero-copy view of *buf* where it ends inside it
    and from a zero-padded copy of the last bytes elsewhere: O(offsets), never
    O(buffer), and nothing is read past *buf*."""
    size = np.dtype(window).itemsize
    in_place = max(buf.size - size + 1, 0)
    windows = np.ndarray(in_place, window, buf, strides=(1,))
    if last < in_place:
        return windows[at]
    tail = np.zeros(2 * size, dtype=np.uint8)
    tail[: buf.size - in_place] = buf[in_place:]
    out = np.empty(at.size, dtype=window)
    inside = at < in_place
    out[inside] = windows[at[inside]]
    out[~inside] = np.ndarray(size, window, tail, strides=(1,))[at[~inside] - in_place]
    return out


def contiguous(positions: np.ndarray) -> Optional[slice]:
    """*positions* as the slice they equal when they run consecutively
    upwards from a non-negative start, else ``None``: an O(1) first/last/size
    test, confirmed by one pass only when it passes."""
    if positions.size == 0 or positions[0] < 0:
        return None
    first, last = int(positions[0]), int(positions[-1])
    if last - first + 1 != positions.size or not (positions[1:] > positions[:-1]).all():
        return None
    return slice(first, last + 1)


def compares_word_parallel(width: int) -> bool:
    """Whether :func:`packed_compare_range` runs the period kernel
    (:func:`_unpack_periods`) to compare *width*-bit values: every width but
    the whole-byte ones, which compare through a typed view of the buffer."""
    return width not in (8, 16, 32, 64)


def range_mask(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``lo <= x <= hi`` over unsigned *values* in one comparison: ``x - lo``
    wraps for every ``x < lo``, far past ``hi - lo``."""
    kind = values.dtype.type
    return (values - kind(lo) if lo else values) <= kind(hi - lo)


def packed_compare_range(packed: Column, width: int, count: int, lo: int, hi: int) -> np.ndarray:
    """``lo <= x <= hi`` per packed value, at the stream's own width.

    *lo*/*hi* are inclusive bounds in the stored unsigned domain; the caller
    clamps them into ``[0, 2**width - 1]`` (use an empty-range short-circuit
    for provably empty predicates).  The values unpack into the narrowest
    unsigned dtype that holds *width* bits and compare once
    (:func:`range_mask`), faster in NumPy than comparing inside 64-bit words.
    """
    _require_width(width)
    if not 0 <= lo <= hi <= (1 << width) - 1:
        raise OperatorError(f"packed_compare_range bounds [{lo}, {hi}] do not fit width {width}")
    return range_mask(_unpack_bits_values(packed.values, width, count, _window(width)), lo, hi)


def packed_gather(packed: Column, width: int, count: int, positions: np.ndarray) -> np.ndarray:
    """Extract the packed values at *positions* (uint64), touching only them.

    The positional generalisation of :func:`unpack_bits`.  Consecutive
    positions (:func:`contiguous`) are the unpacked window itself, never
    indexed.  Dense positions — their covering window ``[first, last]``
    holds at most :data:`SPARSE_RATIO` values per position — unpack that
    window, widened down to a period boundary (a whole byte), and index it.
    Sparse positions each read one unaligned little-endian window at byte
    ``(i * width) >> 3``, two bytes wide up to width 9, four up to 25 and
    eight up to 57; the widths 58–64 may straddle nine bytes and fetch the
    two words around the value.  *positions* must lie in ``[0, count)``;
    order is preserved and duplicates are allowed.  A buffer shorter than
    ``count * width`` bits raises :class:`OperatorError` on every read, as
    :func:`unpack_bits` does.
    """
    _require_width(width)
    positions = np.asarray(positions)
    if positions.size == 0:
        return np.empty(0, dtype=np.uint64)
    run = contiguous(positions)
    first, last = (run.start, run.stop - 1) if run else (int(positions.min()), int(positions.max()))
    if first < 0 or last >= count:
        raise OperatorError(f"packed_gather positions out of range [0, {count})")
    buf = packed.values
    if buf.dtype != np.uint8:
        raise OperatorError(f"packed_gather requires a uint8 buffer, got {buf.dtype}")
    if buf.size * 8 < count * width:
        raise OperatorError(
            f"packed_gather buffer holds {buf.size * 8} bits, needs {count * width}"
        )
    if run or last - first < SPARSE_RATIO * positions.size:
        start = first - first % (8 // gcd(width, 8))
        window = _unpack_bits_values(buf[start * width // 8 :], width, last + 1 - start)
        return window[first - start :] if run else window[positions - start]
    buf = np.ascontiguousarray(buf)
    bits = positions.astype(np.int64) * width
    if width <= 57:
        window = _window(width + 7)
        values = _fetch(buf, window, bits >> 3, (last * width) >> 3)
        values >>= (bits & 7).astype(window)
        return (values & values.dtype.type((1 << width) - 1)).astype(np.uint64)
    words, last_word = bits >> 6 << 3, (last * width) >> 6 << 3
    bit = (bits & 63).astype(np.uint64)
    low = _fetch(buf, "<u8", words, last_word) >> bit
    high = (_fetch(buf, "<u8", words + 8, last_word + 8) << (np.uint64(63) - bit)) << np.uint64(1)
    values = low | high
    if width < 64:
        values &= np.uint64((1 << width) - 1)
    return values


@register_operator(
    "ZigZagEncode", 1, "map signed integers to non-negative integers", category="bitpack"
)
def zigzag_encode(col: Column, name: Optional[str] = None) -> Column:
    """Zig-zag encode signed integers: 0, -1, 1, -2, 2, ... → 0, 1, 2, 3, 4, ...

    Small-magnitude values (of either sign) map to small non-negative values,
    so DELTA residuals become NS-packable.
    """
    values = col.values
    if not np.issubdtype(values.dtype, np.integer):
        raise OperatorError(f"ZigZagEncode() requires integer data, got dtype {values.dtype}")
    as_i64 = values.astype(np.int64, copy=False)
    encoded = (as_i64 << 1) ^ (as_i64 >> 63)
    return Column.adopt(encoded.astype(np.uint64), name=name or col.name)


def _zigzag_decode_values(values: np.ndarray) -> np.ndarray:
    """Raw-array zig-zag decode kernel (shared with the fused-kernel path)."""
    unsigned = values.astype(np.uint64, copy=False)
    magnitude = (unsigned >> np.uint64(1)).astype(np.int64)
    return magnitude ^ -(unsigned & np.uint64(1)).astype(np.int64)


@register_operator("ZigZagDecode", 1, "inverse of zig-zag encoding", category="bitpack")
def zigzag_decode(col: Column, name: Optional[str] = None) -> Column:
    """Invert :func:`zigzag_encode`."""
    return Column.adopt(_zigzag_decode_values(col.values), name=name or col.name)
