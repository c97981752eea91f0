"""Null suppression (NS): discard redundant high-order bits.

NS is the paper's "discarding redundant bits" scheme: values that never need
more than ``w`` bits are stored in exactly ``w`` bits each.  Two physical
layouts are provided:

* ``mode="packed"`` (default) — true bit packing into a ``uint8`` buffer via
  the ``PackBits``/``UnpackBits`` operators; compressed size is honest to the
  bit (rounded up to whole bytes per column).
* ``mode="aligned"`` — round the width up to the next power-of-two physical
  dtype (8/16/32/64 bits); decompression is a cast, which is how many
  engines trade a little space for alignment.

Signed data is handled by zig-zag encoding before packing (``signed="zigzag"``)
or by biasing with the column minimum (``signed="bias"``, which is really a
degenerate single-segment FOR and is provided to make that relationship easy
to demonstrate).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..columnar import dtypes as _dt
from ..columnar.column import Column
from ..columnar.ops import bitpack as _bitpack
from ..columnar.plan import Plan, PlanBuilder
from ..errors import CompressionError, SchemeParameterError
from . import _residuals
from .base import INT64, LAYOUTS, WIDTH, CompressedForm, CompressionScheme, stream_problem


class NullSuppression(CompressionScheme):
    """Fixed-width null suppression (bit packing).

    Parameters
    ----------
    width:
        Bits per value.  ``None`` (default) chooses the narrowest width that
        fits the data being compressed.
    mode:
        ``"packed"`` for bit-level packing, ``"aligned"`` for narrowest
        power-of-two dtype.
    signed:
        How to handle negative values: ``"zigzag"`` (default), ``"bias"``
        (subtract the minimum), or ``"reject"`` (raise on negative data —
        the behaviour expected when NS is used as the residual encoder of a
        min-referenced FOR, whose offsets are non-negative by construction).
    """

    name = "NS"
    scalars = {"width": WIDTH, "mode": LAYOUTS, "transform": ("none", "zigzag", "bias"),
               "bias": INT64}

    @property
    def computes_output(self) -> bool:  # type: ignore[override]
        """A packed form is always unpacked; an aligned one may be stored as is."""
        return self.mode == "packed"

    def __init__(self, width: Optional[int] = None, mode: str = "packed",
                 signed: str = "zigzag"):
        if mode not in LAYOUTS:
            raise SchemeParameterError(f"NS mode must be 'packed' or 'aligned', got {mode!r}")
        if signed not in ("zigzag", "bias", "reject"):
            raise SchemeParameterError(
                f"NS signed handling must be 'zigzag', 'bias' or 'reject', got {signed!r}"
            )
        if width is not None and not 1 <= width <= 64:
            raise SchemeParameterError(f"NS width must be in [1, 64], got {width}")
        self.width = width
        self.mode = mode
        self.signed = signed

    # ------------------------------------------------------------------ #

    def parameters(self) -> Dict[str, Any]:
        return {"width": self.width, "mode": self.mode, "signed": self.signed}

    def expected_constituents(self) -> Tuple[str, ...]:
        return ("packed",) if self.mode == "packed" else ("values",)

    def validate(self, column: Column) -> None:
        super().validate(column)
        if self.signed == "reject" and len(column) and int(column.values.min()) < 0:
            raise CompressionError("NS(signed='reject') cannot compress negative values")

    # ------------------------------------------------------------------ #
    # Compression
    # ------------------------------------------------------------------ #

    def _transform(self, column: Column) -> Tuple[np.ndarray, Dict[str, Any]]:
        """Map the data to non-negative integers, returning (array, parameters)."""
        values = column.values
        params: Dict[str, Any] = {"transform": "none", "bias": 0}
        if len(values) == 0 or int(values.min()) >= 0:
            return values.astype(np.uint64, copy=False), params
        if self.signed == "reject":
            raise CompressionError("NS(signed='reject') cannot compress negative values")
        if self.signed == "zigzag":
            params["transform"] = "zigzag"
            return _bitpack.zigzag_encode(column).values, params
        bias = int(values.min())
        params["transform"] = "bias"
        params["bias"] = bias
        return (values.astype(np.int64) - bias).astype(np.uint64), params

    def compress(self, column: Column) -> CompressedForm:
        """Pack *column* at the configured (or inferred) width."""
        self.validate(column)
        transformed, transform_params = self._transform(column)
        count = len(column)
        if count == 0:
            width = self.width or 1
        else:
            needed = _dt.bits_needed_unsigned(transformed)
            width = self.width if self.width is not None else needed
            if needed > width:
                raise CompressionError(
                    f"NS width {width} is too narrow: data needs {needed} bits"
                )

        parameters = {"width": width, "mode": self.mode, **transform_params}

        if self.mode == "aligned":
            aligned = _dt.narrowest_unsigned_dtype(width)
            stored = Column(transformed.astype(aligned), name="values")
            return CompressedForm(
                scheme=self.name,
                columns={"values": stored},
                parameters=parameters,
                original_length=count,
                original_dtype=column.dtype,
            )

        # The column's own (read-only) values or a fresh array.
        packed = _bitpack.pack_bits(Column.adopt(transformed), width=width, name="packed")
        return CompressedForm(
            scheme=self.name,
            columns={"packed": packed},
            parameters=parameters,
            original_length=count,
            original_dtype=column.dtype,
        )

    def stored_bytes_bound(self, profile) -> int:
        """Exact: the width follows from the extrema alone."""
        low, high = profile.minimum, profile.maximum
        if low >= 0:
            needed = _dt.bits_for_unsigned(high)
        elif self.signed == "bias":
            needed = _dt.bits_for_unsigned(high - low)
        else:  # zig-zag maps v >= 0 to 2v and v < 0 to -2v - 1
            needed = _dt.bits_for_unsigned(max(2 * high, -2 * low - 1))
        width = self.width if self.width is not None else needed
        return _dt.stored_size_bytes(profile.count, width, self.mode)

    # ------------------------------------------------------------------ #
    # Decompression
    # ------------------------------------------------------------------ #

    def decompression_plan(self, form: CompressedForm) -> Plan:
        """Unpack (or cast), then undo the signedness transform."""
        width, transform = form.parameters["width"], form.parameters["transform"]
        aligned = form.parameters["mode"] == "aligned"
        if aligned:
            builder = PlanBuilder(["values"], description="NS decompression (aligned)")
            current = "values"
        else:
            builder = PlanBuilder(["packed"], description="NS decompression (bit-unpack)")
            # Unpack into int64 when the width allows, so subsequent signed
            # arithmetic (bias re-addition) stays in the integer domain.
            unpack_dtype = np.int64 if width < 64 else np.uint64
            builder.step("unpacked", "UnpackBits", packed="packed", width=width,
                         count=form.original_length, dtype=unpack_dtype)
            current = "unpacked"

        if transform == "zigzag":
            builder.step("decoded", "ZigZagDecode", col=current)
            current = "decoded"
        elif transform == "bias":
            if aligned or width == 64:
                # The stored column is unsigned and the bias negative: the
                # add must happen in int64 (modulo 2**64, as when packing),
                # not be refused as a negative operand of an unsigned dtype.
                builder.step("signed", "Cast", col=current, dtype=np.int64)
                current = "signed"
            builder.step("biased", "Elementwise", op="+", left=current,
                         right=form.parameters["bias"])
            current = "biased"
        return builder.build(current)

    @staticmethod
    def shape_problem(parameters: Dict[str, Any], lengths: Dict[str, int],
                      rows: int) -> Optional[str]:
        """The stream against the rows (:func:`~repro.schemes.base.stream_problem`):
        the packed buffer's bytes or the aligned values' count."""
        packed = parameters["mode"] == "packed"
        return stream_problem(rows, parameters["width"],
                              lengths.get("packed" if packed else "values", 0), packed)

    def value_problem(self, form: CompressedForm) -> Optional[str]:
        """Aligned values within their width, as packed ones are by
        construction; and under a ``bias``, every stored value plus it within
        the column's dtype.  The filter kernel bounds the stream by its width
        and compares stored values with bounds less the bias, where decoding
        reads them as stored and wraps.  Only an aligned stream, or one as
        wide as the dtype, has its values read."""
        width, bias = form.parameters["width"], form.parameters["bias"]
        packed = form.parameters["mode"] == "packed"
        stored = form.columns.get("packed" if packed else "values")
        problem = None if packed else _residuals.aligned_problem(stored, width, "value")
        if problem is not None or form.parameters["transform"] != "bias":
            return problem
        limits, top = np.iinfo(form.original_dtype), (1 << width) - 1
        if bias + top > limits.max and stored is not None:
            values = (_bitpack.unpack_bits(stored, width, form.original_length).values
                      if packed else stored.values)
            top = int(values.max(initial=0))
        if not limits.min <= bias <= limits.max - top:
            return f"bias {bias} takes a stored value past {limits.dtype}"
        return None

    def decompress(self, form: CompressedForm) -> Column:
        self._check_form(form)
        inputs = self.plan_inputs(form)
        result = self.compiled_decompression_plan(form).run(inputs)
        if len(result) == 0 and form.original_length == 0:
            result = Column.empty(form.original_dtype)
        # Unsigned intermediate values must be reinterpreted as signed before
        # the final cast when the original dtype is signed but no transform
        # was applied (non-negative signed data packs directly).
        if np.issubdtype(np.dtype(form.original_dtype), np.signedinteger) \
                and np.issubdtype(result.dtype, np.unsignedinteger):
            result = result.astype(np.int64)
        return self._restore(result, form)
