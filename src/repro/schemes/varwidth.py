"""Variable-width null suppression: the paper's bit-cost-metric extension.

Section II-B's second metric proposal: measure the distance between a column
and a model by the *total number of bits* needed to write down each
deviation (``d(x, y) = Σ ceil(log2 |x_i - y_i| + 1)``), and encode the
residuals with a per-element variable-width encoding.  (The paper elides the
encoding of the per-element widths "for simplicity of presentation"; a real
scheme must store them, and this implementation does — one byte-width field
per value — so its sizes are honest and the fixed-vs-variable comparison of
experiment E7 is fair.)

The layout is byte-granular (each value occupies 1–8 bytes), which keeps
both compression and decompression fully vectorisable: the per-value byte
offsets are a prefix sum of the widths, and each of the at-most-8 byte lanes
is moved with one gather/scatter.

The decompression is still expressible as a columnar plan thanks to a
dedicated ``VarWidthUnpack`` operator registered by this module — schemes
are allowed to extend the operator algebra, mirroring how real engines grow
their kernel libraries.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..columnar.column import Column
from ..columnar.ops import bitpack as _bitpack
from ..columnar.ops.registry import DEFAULT_REGISTRY
from ..columnar.plan import Plan, PlanBuilder
from ..errors import OperatorError
from .base import BOOL, CompressedForm, CompressionScheme


def _bytes_needed(values: np.ndarray) -> np.ndarray:
    """Bytes (1–8) needed for every non-negative value of *values*."""
    if values.size == 0:
        return np.empty(0, dtype=np.uint8)
    widths = np.ones(values.size, dtype=np.uint8)
    v = values.astype(np.uint64, copy=False)
    for extra_byte in range(1, 8):
        widths[v >= (np.uint64(1) << np.uint64(8 * extra_byte))] = extra_byte + 1
    return widths


def var_width_pack(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pack non-negative integers into (data_bytes, widths) arrays."""
    widths = _bytes_needed(values)
    total = int(widths.sum())
    data = np.zeros(total, dtype=np.uint8)
    if values.size == 0:
        return data, widths
    offsets = np.zeros(values.size, dtype=np.int64)
    np.cumsum(widths[:-1], out=offsets[1:])
    v = values.astype(np.uint64, copy=False)
    for byte_lane in range(8):
        lane_mask = widths > byte_lane
        if not lane_mask.any():
            break
        lane_positions = offsets[lane_mask] + byte_lane
        lane_bytes = (v[lane_mask] >> np.uint64(8 * byte_lane)) & np.uint64(0xFF)
        data[lane_positions] = lane_bytes.astype(np.uint8)
    return data, widths


def var_width_unpack_arrays(data: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`var_width_pack`; returns uint64 values."""
    count = widths.size
    values = np.zeros(count, dtype=np.uint64)
    if count == 0:
        return values
    offsets = np.zeros(count, dtype=np.int64)
    np.cumsum(widths[:-1].astype(np.int64), out=offsets[1:])
    for byte_lane in range(8):
        lane_mask = widths > byte_lane
        if not lane_mask.any():
            break
        lane_positions = offsets[lane_mask] + byte_lane
        values[lane_mask] |= data[lane_positions].astype(np.uint64) << np.uint64(8 * byte_lane)
    return values


def _var_width_unpack_operator(data: Column, widths: Column,
                               name: Optional[str] = None) -> Column:
    """Registered operator wrapper around :func:`var_width_unpack_arrays`."""
    if data.dtype != np.uint8 or widths.dtype != np.uint8:
        raise OperatorError("VarWidthUnpack() requires uint8 data and widths columns")
    return Column.adopt(var_width_unpack_arrays(data.values, widths.values), name=name)


if "VarWidthUnpack" not in DEFAULT_REGISTRY:
    DEFAULT_REGISTRY.register(
        "VarWidthUnpack",
        _var_width_unpack_operator,
        arity=2,
        description="unpack a byte-granular variable-width encoded buffer",
        cost_weight=2.0,
        category="bitpack",
    )


class VariableWidth(CompressionScheme):
    """Per-value variable-width (byte-granular) encoding.

    Negative values are handled by zig-zag encoding, so the scheme applies
    directly to DELTA deltas and model residuals — its intended role in the
    paper's re-composition story.
    """

    name = "VARWIDTH"
    computes_output = True
    scalars = {"zigzag": BOOL}

    def parameters(self) -> Dict[str, Any]:
        return {}

    def expected_constituents(self) -> Tuple[str, ...]:
        return ("data", "widths")

    # ------------------------------------------------------------------ #

    def compress(self, column: Column) -> CompressedForm:
        """Zig-zag (if needed) and pack every value at its own byte width."""
        self.validate(column)
        values = column.values
        zigzag = bool(values.size and int(values.min()) < 0)
        transformed = (_bitpack.zigzag_encode(column).values if zigzag
                       else values.astype(np.uint64, copy=False))
        data, widths = var_width_pack(transformed)
        return CompressedForm(
            scheme=self.name,
            columns={
                "data": Column(data, name="data"),
                "widths": Column(widths, name="widths"),
            },
            parameters={"zigzag": zigzag},
            original_length=len(column),
            original_dtype=column.dtype,
        )

    def stored_bytes_bound(self, profile) -> int:
        """Every value costs its width byte and at least one data byte."""
        return 2 * profile.count

    @staticmethod
    def shape_problem(parameters: Dict[str, Any], lengths: Dict[str, int],
                      rows: int) -> Optional[str]:
        """One width per row."""
        widths = lengths.get("widths", 0)
        return f"{widths} widths for {rows} rows" if widths != rows else None

    def decompression_plan(self, form: CompressedForm) -> Plan:
        """One ``VarWidthUnpack`` step, plus zig-zag decoding when needed."""
        builder = PlanBuilder(["data", "widths"], description="VARWIDTH decompression")
        builder.step("unpacked", "VarWidthUnpack", data="data", widths="widths")
        current = "unpacked"
        if form.parameters["zigzag"]:
            builder.step("decoded", "ZigZagDecode", col=current)
            current = "decoded"
        return builder.build(current)
