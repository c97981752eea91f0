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

The form records three scalars for them, :data:`SCALARS`, which each of
those schemes declares beside its own: the layout, the bit width and
whether zig-zag was applied.  How many there are is the form's rows, never
a scalar: the decoders and the kernels read ``form.original_length``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..columnar import dtypes as _dt
from ..columnar.column import Column
from ..columnar.ops import bitpack as _bitpack
from ..columnar.plan import PlanBuilder
from ..errors import SchemeParameterError
from .base import BOOL, LAYOUTS, WIDTH, stream_problem

#: The residual scalars every model+residual form declares.
SCALARS = {"offsets_layout": LAYOUTS, "offsets_width": WIDTH, "offsets_zigzag": BOOL}


def encode_residuals(residuals: np.ndarray, layout: str = "packed",
                     name: str = "offsets") -> Tuple[Column, Dict[str, Any]]:
    """Encode an integer residual array, returning (column, parameters).

    The returned parameters are the :data:`SCALARS` :func:`add_decode_steps`
    and :func:`decode_residuals` read beside the form's rows.
    """
    if layout not in LAYOUTS:
        raise SchemeParameterError(f"residual layout must be 'packed' or 'aligned', got {layout!r}")
    residuals = np.asarray(residuals)
    count = int(residuals.size)
    signed = bool(count and int(residuals.min()) < 0)

    if signed:
        transformed = _bitpack.zigzag_encode(Column.adopt(residuals.astype(np.int64))).values
    else:
        transformed = residuals.astype(np.uint64)  # a copy: the caller keeps its array

    width = _dt.bits_needed_unsigned(transformed)
    params = {"offsets_layout": layout, "offsets_width": width, "offsets_zigzag": signed}
    if layout == "aligned":
        stored = Column(transformed.astype(_dt.narrowest_unsigned_dtype(width)), name=name)
        return stored, params
    return _bitpack.pack_bits(Column.adopt(transformed), width=width, name=name), params


def decode_residuals(form, positions: Optional[np.ndarray] = None) -> np.ndarray:
    """Decode the residuals :func:`encode_residuals` stored in *form*'s
    ``offsets``, one per row, all of them or only those at *positions*, as a
    fresh int64 array.

    The NumPy counterpart of the plan steps :func:`add_decode_steps` emits,
    for callers that work on a form directly: the compressed-domain kernels,
    approximate aggregation and the FOR ≡ STEPFUNCTION + NS split.  At
    *positions*, packed layouts extract just those values' bits
    (:func:`repro.columnar.ops.bitpack.packed_gather`) and aligned layouts
    fancy-index, so gathering then decoding equals decoding then gathering.
    """
    column, params, count = form.constituent("offsets"), form.parameters, form.original_length
    width = params["offsets_width"]
    if (count if positions is None else np.size(positions)) == 0:
        return np.empty(0, dtype=np.int64)
    if params["offsets_layout"] == "aligned":
        stored = column.values if positions is None else column.values[positions]
        values = stored.astype(np.uint64)
    elif positions is None:
        values = _bitpack.unpack_bits(column, width=width, count=count).values
    else:
        values = _bitpack.packed_gather(column, width=width, count=count, positions=positions)
    if params["offsets_zigzag"]:
        return _bitpack._zigzag_decode_values(values)
    # An unpacked stream is the frozen output of an operator; a gather is fresh.
    return values.astype(np.int64) if positions is None else values.view(np.int64)


def aligned_problem(stored: Optional[Column], width: int, what: str = "offset") -> Optional[str]:
    """What is wrong with an aligned stream *stored* (``None``: nothing):
    each value must fit the recorded *width*, as a packed one does by
    construction, since the kernels bound the stream's values by it."""
    if stored is None or width >= 64:
        return None
    values = stored.values
    top = int(values.view(f"u{values.dtype.itemsize}").max(initial=0))
    return f"aligned {what} {top} does not fit {width} bits" if top >> width else None


def offsets_problem(form) -> Optional[str]:
    """:func:`aligned_problem` of *form*'s residuals, where they are aligned."""
    if form.parameters["offsets_layout"] != "aligned":
        return None
    return aligned_problem(form.columns.get("offsets"), form.parameters["offsets_width"])


def shape_problem(parameters: Dict[str, Any], lengths: Dict[str, int],
                  rows: int) -> Optional[str]:
    """What is wrong with residuals that are not one per row (``None``:
    nothing): :func:`~repro.schemes.base.stream_problem` of ``offsets``."""
    return stream_problem(rows, parameters["offsets_width"], lengths.get("offsets", 0),
                          parameters["offsets_layout"] == "packed")


def add_decode_steps(builder: PlanBuilder, form, input_name: str = "offsets",
                     output_name: str = "offsets_decoded") -> str:
    """Append the steps decoding *form*'s residuals to *builder*; return the
    binding name of the decoded (signed, int64-ranged) residual column."""
    params = form.parameters
    current, width = input_name, params["offsets_width"]
    packed = params["offsets_layout"] == "packed"
    if packed:
        # Unpack straight into int64 (when the width allows it) so that the
        # subsequent integer arithmetic stays in the signed domain — mixing
        # uint64 with int64 would silently promote to float64 in NumPy.
        unpack_dtype = np.int64 if width < 64 else np.uint64
        builder.step(f"{output_name}_unpacked", "UnpackBits", packed=current,
                     width=width, count=form.original_length, dtype=unpack_dtype)
        current = f"{output_name}_unpacked"
    if params["offsets_zigzag"]:
        builder.step(output_name, "ZigZagDecode", col=current)
        current = output_name
    elif width > (63 if packed else 32):
        # A uint64 stream, for the same reason: reinterpret it as int64,
        # modulo 2**64 as the offsets were taken.
        builder.step(output_name, "Cast", col=current, dtype=np.int64)
        current = output_name
    return current
