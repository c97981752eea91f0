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
from .base import CompressedForm, CompressionScheme, stream_problem


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

    @property
    def computes_output(self) -> bool:  # type: ignore[override]
        """A packed form is always unpacked; an aligned one may be stored as is."""
        return self.mode == "packed"

    def __init__(self, width: Optional[int] = None, mode: str = "packed",
                 signed: str = "zigzag"):
        if mode not in ("packed", "aligned"):
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

        parameters = {"width": width, "count": count, "mode": self.mode}
        parameters.update(transform_params)

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

        if count:
            # The column's own (read-only) values or a fresh array.
            packed = _bitpack.pack_bits(Column.adopt(transformed), width=width, name="packed")
        else:
            packed = Column(np.empty(0, dtype=np.uint8), name="packed")
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
        width = form.parameter("width")
        count = form.parameter("count")
        transform = form.parameter("transform", "none")

        aligned = form.parameter("mode", self.mode) == "aligned"
        if aligned:
            builder = PlanBuilder(["values"], description="NS decompression (aligned)")
            current = "values"
        else:
            builder = PlanBuilder(["packed"], description="NS decompression (bit-unpack)")
            # Unpack into int64 when the width allows, so subsequent signed
            # arithmetic (bias re-addition) stays in the integer domain.
            unpack_dtype = np.int64 if width < 64 else np.uint64
            builder.step("unpacked", "UnpackBits", packed="packed", width=width,
                         count=count, dtype=unpack_dtype)
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
                         right=int(form.parameter("bias", 0)))
            current = "biased"
        return builder.build(current)

    def plan_inputs(self, form: CompressedForm) -> Dict[str, Column]:
        """The constituents, once the form passes :meth:`form_problem` (a
        cascade over NS binds the same)."""
        self.stored(form)
        return dict(form.columns)

    @staticmethod
    def stored(form: CompressedForm) -> Column:
        """The form's packed buffer or aligned values, once :meth:`form_problem`
        finds nothing wrong; else :class:`~repro.errors.OperatorError`."""
        packed = form.parameter("mode", "packed") == "packed"
        stored = form.constituent("packed" if packed else "values")
        form.refuse(NullSuppression.form_problem(form.original_length, form.parameter("count"),
                                                 form.parameter("width"), len(stored), packed))
        return stored

    @staticmethod
    def form_problem(rows: int, count: Any, width: Any, stored: int,
                     packed: bool) -> Optional[str]:
        """What is wrong with an NS form (``None``: nothing), from scalars
        alone: *stored* is the packed buffer's bytes or the aligned values'
        count.  Both decompress paths, the NS kernels and ``repro.io.verify``
        ask here."""
        if not isinstance(width, (int, np.integer)) or not 1 <= width <= 64:
            return f"width {width!r} is not in [1, 64]"
        return stream_problem(rows, count, width, stored, packed)

    def decompress(self, form: CompressedForm) -> Column:
        self._check_form(form)
        compiled = self.compiled_decompression_plan(form)
        result = compiled.run(self.plan_inputs(form))
        if len(result) == 0 and form.original_length == 0:
            result = Column.empty(form.original_dtype)
        # Unsigned intermediate values must be reinterpreted as signed before
        # the final cast when the original dtype is signed but no transform
        # was applied (non-negative signed data packs directly).
        if np.issubdtype(np.dtype(form.original_dtype), np.signedinteger) \
                and np.issubdtype(result.dtype, np.unsignedinteger):
            result = result.astype(np.int64)
        return self._restore(result, form)
