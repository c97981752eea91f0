"""Patched frame-of-reference: the paper's L0-metric model extension.

Section II-B proposes enriching the model+residual view with *patches*: for
the L0 metric — "columns whose data is 'really' a step function, but with
the occasional divergent arbitrary-value element" — the few divergent
elements are stored verbatim (position + value) while everybody else keeps a
narrow offset.  This is the decomposed-scheme reading of PFOR-style patching
(the paper cites Zukowski et al. [1] and the author's own GPU library [8]).

The offset width is chosen from a quantile of the offset distribution rather
than its maximum, so a handful of outliers no longer dictates the width of
every element — that is precisely the effect experiment E6 measures against
plain FOR while sweeping the outlier fraction.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..columnar import dtypes as _dt
from ..columnar.column import Column
from ..columnar.ops.movement import replicate_values
from ..columnar.plan import Plan, PlanBuilder
from ..columnar.profile import bit_length_histogram
from ..errors import SchemeParameterError
from . import _residuals
from .base import CompressedForm, CompressionScheme
from .for_ import FrameOfReference, build_for_decompression_plan, segment_references


class PatchedFrameOfReference(CompressionScheme):
    """FOR with exception patches (PFOR-style), as a model + L0 residuals.

    Parameters
    ----------
    segment_length:
        Elements per segment (as in FOR).
    offset_width:
        Fixed offset width in bits.  ``None`` (default) chooses the width
        automatically: by total-cost minimisation (each patch is charged what
        it stores: its value plus an int64 position) unless *width_quantile*
        is given, in which case the width is the one that fits that fraction
        of the offsets.
    width_quantile:
        Optional quantile-based width rule (e.g. ``0.99`` → at most 1 % of
        elements become patches).  ``None`` (default) uses the cost-based
        choice.
    offsets_layout:
        ``"packed"`` or ``"aligned"``, as for FOR.
    """

    name = "PFOR"
    computes_output = True

    def __init__(self, segment_length: int = 128, offset_width: Optional[int] = None,
                 width_quantile: Optional[float] = None, offsets_layout: str = "packed"):
        if segment_length <= 0:
            raise SchemeParameterError(
                f"PFOR segment_length must be positive, got {segment_length}"
            )
        if offset_width is not None and not 1 <= offset_width <= 64:
            raise SchemeParameterError(f"PFOR offset_width must be in [1, 64], got {offset_width}")
        if width_quantile is not None and not 0.0 < width_quantile <= 1.0:
            raise SchemeParameterError(
                f"PFOR width_quantile must be in (0, 1], got {width_quantile}"
            )
        self.segment_length = segment_length
        self.offset_width = offset_width
        self.width_quantile = width_quantile
        self.offsets_layout = offsets_layout

    def parameters(self) -> Dict[str, Any]:
        return {
            "segment_length": self.segment_length,
            "offset_width": self.offset_width,
            "width_quantile": self.width_quantile,
            "offsets_layout": self.offsets_layout,
        }

    def expected_constituents(self) -> Tuple[str, ...]:
        return ("refs", "offsets", "patch_positions", "patch_values")

    # ------------------------------------------------------------------ #

    @staticmethod
    def _patch_bytes(itemsize: int) -> int:
        """What one patch stores: an int64 position and the value itself."""
        return 8 + itemsize

    def _choose_width(self, histogram: np.ndarray, itemsize: int) -> int:
        """The offset width, from the offsets' ``bit_length_histogram`` (bin 64
        holds the offsets that wrapped int64: patches at any width) and the
        *itemsize* of the column's values."""
        if self.offset_width is not None:
            return self.offset_width
        if self.width_quantile is not None:
            # the bit length np.quantile(method="lower") picks; wrapped offsets sort first
            rank = np.floor((int(histogram.sum()) - 1) * self.width_quantile)
            below = np.cumsum(np.roll(histogram, 1))
            return max(1, int(np.searchsorted(below, rank, side="right")) - 1)
        # Cost-based choice: w bits per element plus, per element whose offset
        # does not fit in w bits, what a patch stores.
        widths = np.arange(1, max(1, int(np.flatnonzero(histogram[:64]).max(initial=1))) + 1)
        exceeding = np.cumsum(histogram[::-1])[::-1]  # exceeding[b]: offsets of >= b bits
        cost = widths * histogram.sum() + exceeding[widths + 1] * 8 * self._patch_bytes(itemsize)
        return int(widths[np.argmin(cost)])

    def compress(self, column: Column) -> CompressedForm:
        """Min-referenced FOR with out-of-width offsets stored as patches."""
        self.validate(column)
        if len(column) == 0:
            return self._empty_form(column, segment_length=self.segment_length)

        refs = segment_references(column.values, self.segment_length, "min")
        offsets = column.values.astype(np.int64) - replicate_values(
            refs, self.segment_length, len(column))

        width = self._choose_width(bit_length_histogram(offsets.view(np.uint64)),
                                   column.values.itemsize)
        limit = (1 << width) - 1 if width < 64 else np.iinfo(np.int64).max
        # A negative offset under a min reference is one that wrapped: the
        # segment's spread does not fit int64.  Its row is a patch like any
        # other out-of-width value, so the stored offsets stay non-negative
        # and the segment bounds the kernels reason with stay true.
        exceptional = (offsets > limit) | (offsets < 0)
        patch_positions = np.flatnonzero(exceptional).astype(np.int64)
        patch_values = column.values[exceptional]
        clipped = np.where(exceptional, 0, offsets)

        offsets_column, offsets_params = _residuals.encode_residuals(
            clipped, layout=self.offsets_layout, name="offsets"
        )
        parameters: Dict[str, Any] = {
            "segment_length": self.segment_length,
            "num_segments": len(refs),
            "patch_count": int(patch_positions.size),
            "configured_width": width,
        }
        parameters.update(offsets_params)
        return CompressedForm(
            scheme=self.name,
            columns={
                "refs": Column(refs, name="refs"),
                "offsets": offsets_column,
                "patch_positions": Column(patch_positions, name="patch_positions"),
                "patch_values": Column(patch_values, name="patch_values"),
            },
            parameters=parameters,
            original_length=len(column),
            original_dtype=column.dtype,
        )

    def stored_bytes_bound(self, profile) -> int:
        """Exact: the references, the offsets as wide as the widest one the
        chosen width keeps, and a position and a value per patch."""
        histogram = profile.offset_bit_lengths(self.segment_length)
        kept = histogram[:min(self._choose_width(histogram, profile.values.itemsize), 63) + 1]
        width = max(1, int(np.flatnonzero(kept).max(initial=0)))
        segments = -(-profile.count // self.segment_length)
        return (8 * segments + _dt.stored_size_bytes(profile.count, width, self.offsets_layout)
                + (profile.count - int(kept.sum())) * self._patch_bytes(profile.values.itemsize))

    @staticmethod
    def form_problem(parameters: Dict[str, Any], lengths: Dict[str, int],
                     rows: int) -> Optional[str]:
        """FOR's shape, and a position and a value for each of the patches."""
        positions, values = lengths.get("patch_positions", 0), lengths.get("patch_values", 0)
        count = parameters.get("patch_count", positions)
        if not count == positions == values:
            return f"{count!r} patches, {positions} positions and {values} values"
        return FrameOfReference.form_problem(parameters, lengths, rows)

    def value_problem(self, form: CompressedForm) -> Optional[str]:
        """Patch positions strictly increasing within the rows (the gather
        kernel binary-searches them), and FOR's aligned offsets."""
        stored, rows = form.columns.get("patch_positions"), form.original_length
        if stored is not None and (np.diff(stored.values, prepend=-1, append=rows) <= 0).any():
            return f"its patch positions do not rise strictly within its {rows} rows"
        return _residuals.offsets_problem(form, self.offsets_layout)

    def decompression_plan(self, form: CompressedForm) -> Plan:
        """Algorithm 2, followed by scattering the patch values over the result."""
        for_plan = build_for_decompression_plan(
            form.parameter("segment_length", self.segment_length),
            _residuals.decode_parameters(form, self.offsets_layout),
            faithful_to_paper=False,
        )
        builder = PlanBuilder(
            list(for_plan.inputs) + ["patch_positions", "patch_values"],
            description=f"PFOR decompression (FOR + patches, l={form.parameter('segment_length')})",
        )
        for_output = builder.splice(for_plan)
        builder.step("patched", "Scatter", values="patch_values",
                     indices="patch_positions", base=for_output)
        return builder.build("patched")

    def patch_fraction(self, form: CompressedForm) -> float:
        """Fraction of elements stored as patches (the achieved L0 distance)."""
        if form.original_length == 0:
            return 0.0
        return form.parameter("patch_count", 0) / form.original_length
