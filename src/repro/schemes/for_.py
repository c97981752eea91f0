"""FOR: frame-of-reference encoding, with decompression as Algorithm 2.

FOR exploits *limited local variation despite potentially large global
variation*: the column is cut into fixed-length segments, each segment gets
a reference value, and only the (narrow) offsets from that reference are
stored per element.  In the paper's pure-columns view the compressed form is
the scalar segment length ``ℓ``, a ``refs`` column of length ``ceil(n/ℓ)``,
and an ``offsets`` column of length ``n``.

Decompression, expressed in columnar operators, is Algorithm 2:

1. ``ones         ← Constant(1, |offsets|)``
2. ``id           ← PrefixSum(ones)``           (position of every element)
3. ``ells         ← Constant(ℓ, |offsets|)``
4. ``ref_indices  ← Elementwise(÷, id, ells)``
5. ``replicated   ← Gather(refs, ref_indices)``
6. ``return Elementwise(+, replicated, offsets)``

As printed in the paper, step 2 produces a *1-based* position, which would
misassign the last element of every segment; the intended 0-based position
column is obtained here with ``Iota`` (equivalently, an exclusive prefix sum
of the ones column).  The deviation is recorded in EXPERIMENTS.md.

Keeping only steps 1–5 — dropping the final addition — leaves the *step
function* evaluation the paper builds its §II-B decomposition on; that
truncation is performed mechanically in :mod:`repro.schemes.decomposition`
and exercised by experiment E5.

Steps 1–5 read ``refs[i // ℓ]``: a run expansion with the constant run length
``ℓ``, not a random-access read.  The plan stays as written (the interpreter
runs it, the decomposition cuts it); the compiler re-composes it
(``optimizer.recompose_step_function``) into one fused kernel — unpack the
offsets, ``Replicate`` the references, add in place — and compression expands
its references with the same kernel (``movement.replicate_values``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..columnar import dtypes as _dt
from ..columnar.column import Column
from ..columnar.ops.movement import replicate_values
from ..columnar.plan import LengthOf, Plan, PlanBuilder
from ..errors import CompressionError, OperatorError, SchemeParameterError
from . import _residuals
from .base import CompressedForm, CompressionScheme


def build_for_decompression_plan(segment_length: int,
                                 offsets_params: Optional[Dict[str, Any]] = None,
                                 faithful_to_paper: bool = True) -> Plan:
    """Algorithm 2 as a plan, optionally preceded by residual decoding.

    With ``faithful_to_paper=True`` the position column is produced by the
    paper's ``Constant``/``PrefixSum`` pair (corrected to 0-based by an
    exclusive scan); otherwise a single ``Iota`` is used.  Both variants are
    kept so the structural-equivalence tests can show they evaluate
    identically while the cost model sees their different operator counts.
    """
    if segment_length < 1:
        raise OperatorError(f"FOR segment_length must be positive, got {segment_length}")
    builder = PlanBuilder(["refs", "offsets"],
                          description=f"FOR decompression (Algorithm 2, l={segment_length})")
    if offsets_params is not None:
        # A literal length: the optimizer recomposes the model half in either layout.
        offsets_binding = _residuals.add_decode_steps(builder, offsets_params,
                                                      input_name="offsets")
        length = offsets_params["offsets_count"]
    else:
        offsets_binding, length = "offsets", LengthOf("offsets")

    if faithful_to_paper:
        builder.step("ones", "Ones", length=length)
        builder.step("id", "ExclusivePrefixSum", col="ones")
        builder.step("ells", "Constant", value=segment_length, length=length)
        builder.step("ref_indices", "Elementwise", op="//", left="id", right="ells")
    else:
        builder.step("id", "Iota", length=length)
        builder.step("ref_indices", "Elementwise", op="//", left="id", right=segment_length)

    builder.step("replicated", "Gather", values="refs", indices="ref_indices")
    builder.step("decompressed", "Elementwise", op="+", left="replicated",
                 right=offsets_binding)
    return builder.build("decompressed")


def saturating_segment_bounds(refs: np.ndarray, width: int,
                              zigzag: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment ``[low, high]`` value bounds for offsets of *width* bits.

    Offsets span ``[0, 2**width - 1]``, or about ``±2**(width - 1)`` zig-zag
    decoded.  Where a reference plus that span leaves int64, decoding wraps
    the segment's values around the limits, so its bounds saturate to the
    whole int64 range and bound nothing: pushdown neither rejects nor
    accepts such a segment wholesale but compares its rows as decoded.
    """
    top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    half = 1 << (width - 1) if width else 0
    low_span, high_span = (-half, half) if zigzag else (0, (1 << width) - 1)
    if high_span > top:  # 64-bit offsets: nothing a reference adds them to is bounded
        return np.full(refs.shape, bottom, np.int64), np.full(refs.shape, top, np.int64)
    fits = (refs >= bottom - low_span) & (refs <= top - high_span)
    return np.where(fits, refs + low_span, bottom), np.where(fits, refs + high_span, top)


def segment_references(values: np.ndarray, segment_length: int, reference: str) -> np.ndarray:
    """Per-segment references of integer *values* as int64 (uint64 wraps, as
    the offsets taken from them do): the minimum, the midpoint ``min + (max -
    min) // 2`` — the span taken in uint64, where it cannot wrap — or the
    first value.  Integer arithmetic throughout: a fitted step function's
    float64 coefficients are not exact beyond ``2**53``."""
    starts = np.arange(0, values.size, segment_length)
    if reference == "first":
        return values[starts].astype(np.int64)
    low = np.minimum.reduceat(values, starts).astype(np.uint64)
    if reference == "mid":
        low += (np.maximum.reduceat(values, starts).astype(np.uint64) - low) // np.uint64(2)
    return low.astype(np.int64)


class FrameOfReference(CompressionScheme):
    """Segmented frame-of-reference encoding.

    Parameters
    ----------
    segment_length:
        Number of elements per segment (the paper's ``ℓ``).
    reference:
        Per-segment reference policy: ``"min"`` (offsets are non-negative,
        the classic choice), ``"mid"`` (offsets signed, half the magnitude),
        or ``"first"`` (reference is the segment's first element; note the
        paper's remark that the reference *need not* be the first element).
    offsets_layout:
        ``"packed"`` (bit-packed at exact width — the explicit "+ NS" of the
        paper's identity) or ``"aligned"`` (narrowest power-of-two dtype).
    faithful_plan:
        Build the decompression plan with the paper's Constant/PrefixSum
        position computation rather than a single Iota.
    """

    name = "FOR"
    computes_output = True

    def __init__(self, segment_length: int = 128, reference: str = "min",
                 offsets_layout: str = "packed", faithful_plan: bool = True):
        if segment_length <= 0:
            raise SchemeParameterError(
                f"FOR segment_length must be positive, got {segment_length}"
            )
        if reference not in ("min", "mid", "first"):
            raise SchemeParameterError(
                f"FOR reference must be 'min', 'mid' or 'first', got {reference!r}"
            )
        self.segment_length = segment_length
        self.reference = reference
        self.offsets_layout = offsets_layout
        self.faithful_plan = faithful_plan

    def parameters(self) -> Dict[str, Any]:
        return {
            "segment_length": self.segment_length,
            "reference": self.reference,
            "offsets_layout": self.offsets_layout,
        }

    def plan_key_parameters(self) -> Dict[str, Any]:
        # ``faithful_plan`` changes the shape of the decompression plan but is
        # not part of the reported configuration; the compiled-plan cache must
        # key on it.
        return {**self.parameters(), "faithful_plan": self.faithful_plan}

    def expected_constituents(self) -> Tuple[str, ...]:
        return ("refs", "offsets")

    # ------------------------------------------------------------------ #

    def compress(self, column: Column) -> CompressedForm:
        """Fit per-segment references and store narrow offsets."""
        self.validate(column)
        if len(column) == 0:
            return self._empty_form(column, segment_length=self.segment_length)

        refs = segment_references(column.values, self.segment_length, self.reference)
        offsets = column.values.astype(np.int64) - replicate_values(
            refs, self.segment_length, len(column))
        if self.reference == "min" and offsets.min(initial=0) < 0:
            raise CompressionError("FOR offsets from a min reference must fit 63 bits: "
                                   "a segment's spread wrapped int64")

        offsets_column, offsets_params = _residuals.encode_residuals(
            offsets, layout=self.offsets_layout, name="offsets"
        )
        parameters: Dict[str, Any] = {
            "segment_length": self.segment_length,
            "reference": self.reference,
            "num_segments": len(refs),
        }
        parameters.update(offsets_params)
        return CompressedForm(
            scheme=self.name,
            columns={"refs": Column(refs, name="refs"), "offsets": offsets_column},
            parameters=parameters,
            original_length=len(column),
            original_dtype=column.dtype,
        )

    def stored_bytes_bound(self, profile) -> int:
        """One int64 reference per segment plus the offsets at the width of
        the widest segment: exact for min references, unstated otherwise."""
        if self.reference != "min":
            return 0
        width = max(1, int(np.flatnonzero(profile.offset_bit_lengths(self.segment_length)).max()))
        segments = -(-profile.count // self.segment_length)
        return 8 * segments + _dt.stored_size_bytes(profile.count, width, self.offsets_layout)

    def decompression_plan(self, form: CompressedForm) -> Plan:
        """Algorithm 2, preceded by offset decoding when offsets are packed."""
        return build_for_decompression_plan(
            form.parameter("segment_length", self.segment_length),
            _residuals.decode_parameters(form, "aligned"),
            faithful_to_paper=self.faithful_plan,
        )

    @staticmethod
    def form_problem(parameters: Dict[str, Any], lengths: Dict[str, int],
                     rows: int) -> Optional[str]:
        """One reference per segment, one offset per row (PFOR's shape too),
        in a residual layout the decoders and the kernels read alike."""
        each, refs = int(parameters.get("segment_length", 0)), lengths.get("refs", 0)
        if each < 1 or refs != -(-rows // each):
            return f"{rows} rows in segments of {each}: {refs} refs"
        layout = parameters.get("offsets_layout", "packed")
        if layout not in ("packed", "aligned"):
            return f"offsets layout {layout!r} is not 'packed' or 'aligned'"
        zigzag = parameters.get("offsets_zigzag", False)
        if not isinstance(zigzag, bool):
            return f"offsets_zigzag {zigzag!r} is not a bool"
        return _residuals.count_problem(parameters, lengths, rows)

    def value_problem(self, form: CompressedForm) -> Optional[str]:
        """Aligned offsets within their width: :meth:`segment_bounds` read it."""
        return _residuals.offsets_problem(form, "aligned")

    # ------------------------------------------------------------------ #
    # Model-view helpers (used by repro.engine.kernels and the decomposition module)
    # ------------------------------------------------------------------ #

    @staticmethod
    def segment_bounds(form: CompressedForm) -> Tuple[np.ndarray, np.ndarray]:
        """Per-segment value bounds implied by the compressed form alone.

        For a min-referenced FOR the reference is a lower bound and
        ``ref + 2**width - 1`` an upper bound; a range selection can accept
        or reject whole segments from these bounds without touching the
        offsets — the paper's "speed up selections" argument (experiment E9).
        """
        refs = form.constituent("refs").values.astype(np.int64)
        width = int(form.parameter("offsets_width", 64))
        zigzag = bool(form.parameter("offsets_zigzag", False))
        return saturating_segment_bounds(refs, width, zigzag)
