"""Shared helpers for storing model residuals ("offsets") compactly.

Every model+residual scheme — FOR, patched FOR, piecewise-linear,
piecewise-polynomial — faces the same sub-problem: given an integer residual
column (non-negative for min-referenced models, signed otherwise), store it
narrowly and emit the plan steps that recover it.  This module centralises
that logic so each scheme stays focused on its model.

Residuals can be stored in two layouts:

* ``packed`` — bit-packed at the exact required width (signed residuals are
  zig-zag encoded first); this is the honest-size layout, and it makes the
  "… + NS" in the paper's ``FOR ≡ STEPFUNCTION + NS`` identity literally
  visible as the NS unpack step at the head of the decompression plan;
* ``aligned`` — the narrowest physical power-of-two dtype, which many
  engines prefer for alignment; decompression is a cast.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..columnar import dtypes as _dt
from ..columnar.column import Column
from ..columnar.ops import bitpack as _bitpack
from ..columnar.plan import PlanBuilder
from ..errors import SchemeParameterError


def encode_residuals(residuals: np.ndarray, layout: str = "packed",
                     name: str = "offsets") -> Tuple[Column, Dict[str, Any]]:
    """Encode an integer residual array, returning (column, parameters).

    The returned parameters record everything :func:`add_decode_steps` and
    :func:`decode_residuals` need: the layout, the bit width, the element
    count, and whether zig-zag was applied.
    """
    if layout not in ("packed", "aligned"):
        raise SchemeParameterError(f"residual layout must be 'packed' or 'aligned', got {layout!r}")
    residuals = np.asarray(residuals)
    count = int(residuals.size)
    signed = bool(count and int(residuals.min()) < 0)

    if signed:
        transformed = _bitpack.zigzag_encode(Column.adopt(residuals.astype(np.int64))).values
    else:
        transformed = residuals.astype(np.uint64)  # a copy: the caller keeps its array

    width = _dt.bits_needed_unsigned(transformed) if count else 1
    params: Dict[str, Any] = {
        "offsets_layout": layout,
        "offsets_width": width,
        "offsets_count": count,
        "offsets_zigzag": signed,
    }

    if layout == "aligned":
        stored = Column(transformed.astype(_dt.narrowest_unsigned_dtype(width)), name=name)
        return stored, params

    if count == 0:
        return Column(np.empty(0, dtype=np.uint8), name=name), params
    packed = _bitpack.pack_bits(Column.adopt(transformed), width=width, name=name)
    return packed, params


def decode_residuals(column: Column, params: Dict[str, Any]) -> np.ndarray:
    """Decode residuals previously encoded by :func:`encode_residuals` (int64 result).

    The NumPy counterpart of the plan steps :func:`add_decode_steps` emits,
    for callers that work on a form directly: the compressed-domain kernels,
    approximate aggregation and the FOR ≡ STEPFUNCTION + NS split.
    """
    layout = params["offsets_layout"]
    count = params["offsets_count"]
    width = params["offsets_width"]
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if layout == "aligned":
        values = column.values.astype(np.uint64)
    else:
        values = _bitpack.unpack_bits(column, width=width, count=count).values
    if params["offsets_zigzag"]:
        return _bitpack.zigzag_decode(Column(values)).values
    return values.astype(np.int64)


def decode_residuals_at(column: Column, params: Dict[str, Any],
                        positions: np.ndarray) -> np.ndarray:
    """Decode only the residuals at *positions* (int64 result).

    The positional counterpart of :func:`decode_residuals`: packed layouts
    extract just the requested values' bits
    (:func:`repro.columnar.ops.bitpack.packed_gather`), aligned layouts
    fancy-index — either way the element-wise arithmetic matches
    :func:`decode_residuals` exactly, so gathering then decoding equals
    decoding then gathering.  The result is a fresh, writable array.
    """
    positions = np.asarray(positions)
    if positions.size == 0:
        return np.empty(0, dtype=np.int64)
    if params["offsets_layout"] == "aligned":
        values = column.values[positions].astype(np.uint64)
    else:
        values = _bitpack.packed_gather(column, width=params["offsets_width"],
                                        count=params["offsets_count"],
                                        positions=positions)
    if params["offsets_zigzag"]:
        return _bitpack._zigzag_decode_values(values)
    return values.view(np.int64)  # astype's wrap, without the copy


def decode_parameters(form, default_layout: str) -> Dict[str, Any]:
    """The residual layout *form* records: what :func:`add_decode_steps` reads
    (an aligned, unsigned layout needs no step and gets none)."""
    return {
        "offsets_layout": form.parameter("offsets_layout", default_layout),
        "offsets_width": form.parameter("offsets_width", 64),
        "offsets_count": form.parameter("offsets_count", form.original_length),
        "offsets_zigzag": form.parameter("offsets_zigzag", False),
    }


def aligned_problem(form, default_layout: str) -> Optional[str]:
    """What is wrong with *form*'s stored aligned residuals (``None``: nothing):
    each must fit the recorded width, as a packed one does by construction,
    since the kernels bound a segment's values by that width."""
    params, stored = decode_parameters(form, default_layout), form.columns.get("offsets")
    width = int(params["offsets_width"])
    if stored is None or params["offsets_layout"] != "aligned" or width >= 64:
        return None
    values = stored.values
    top = int(values.view(f"u{values.dtype.itemsize}").max(initial=0))
    return f"aligned offset {top} does not fit {width} bits" if top >> width else None


def add_decode_steps(builder: PlanBuilder, params: Dict[str, Any],
                     input_name: str = "offsets", output_name: str = "offsets_decoded") -> str:
    """Append the residual-decoding steps to *builder*; return the binding name
    of the decoded (signed, int64-ranged) residual column."""
    current = input_name
    if params["offsets_layout"] == "packed":
        # Unpack straight into int64 (when the width allows it) so that the
        # subsequent integer arithmetic stays in the signed domain — mixing
        # uint64 with int64 would silently promote to float64 in NumPy.
        unpack_dtype = np.int64 if params["offsets_width"] < 64 else np.uint64
        builder.step(f"{output_name}_unpacked", "UnpackBits", packed=current,
                     width=params["offsets_width"], count=params["offsets_count"],
                     dtype=unpack_dtype)
        current = f"{output_name}_unpacked"
    if params["offsets_zigzag"]:
        builder.step(output_name, "ZigZagDecode", col=current)
        current = output_name
    return current
