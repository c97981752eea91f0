"""The paper's decomposition identities, made executable and checkable.

Section II states two identities:

* **§II-A**  ``RLE ≡ (ID for values, DELTA for run_positions) ∘ RPE``
  — storing run lengths is the same as storing DELTA-compressed run
  positions; equivalently, RPE is what remains of RLE when the first step of
  its decompression plan (the prefix sum over lengths) is dropped.

* **§II-B**  ``FOR ≡ STEPFUNCTION + NS``
  — the per-segment references are a (lossy) step-function model and the
  offsets are its NS-encoded residuals; equivalently, the step-function
  model is what remains of FOR when the last step of its decompression plan
  (the addition of offsets) is dropped.

This module provides three things for each identity:

1. **form converters** — functions mapping a compressed form of one side to
   a compressed form of the other (e.g. :func:`rle_form_to_rpe_form`);
2. **plan derivations** — the mechanical plan surgery (drop-prefix /
   truncate) that the paper describes in prose;
3. **equivalence checks** — :class:`DecompositionIdentity` instances whose
   ``verify(column)`` method confirms, on actual data, that both sides
   decompress to the same column and that the converted constituents match
   element for element.

The equivalence checks are exercised by unit tests, property-based tests and
experiment E4/E5 benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..columnar.column import Column
from ..columnar.compile import optimize
from ..columnar.ops import scan as _scan
from ..columnar.ops.elementwise import adjacent_difference
from ..columnar.plan import Plan
from ..errors import DecompressionError
from .base import CompressedForm
from .composite import Cascade
from .delta import Delta
from .for_ import FrameOfReference, build_for_decompression_plan
from .identity import Identity
from .ns import NullSuppression
from .rle import RunLengthEncoding, build_rle_decompression_plan
from .rpe import RunPositionEncoding, build_rpe_decompression_plan
from .stepfunction import StepFunctionModel
from . import _residuals


# --------------------------------------------------------------------------- #
# §II-A: RLE ≡ (ID, DELTA) ∘ RPE
# --------------------------------------------------------------------------- #

def rle_form_to_rpe_form(form: CompressedForm) -> CompressedForm:
    """Convert an RLE compressed form into the equivalent RPE form.

    The conversion *is* the first step of Algorithm 1: prefix-sum the run
    lengths into run end positions.  (This is "partial decompression":
    executing only a prefix of the decompression plan transforms the
    compressed form of one scheme into that of another.)
    """
    if form.scheme != RunLengthEncoding.name:
        raise DecompressionError(f"expected an RLE form, got {form.scheme!r}")
    positions = _scan.prefix_sum(form.constituent("lengths"), name="run_positions")
    return CompressedForm(
        scheme=RunPositionEncoding.name,
        columns={"values": form.constituent("values"), "run_positions": positions},
        parameters=dict(form.parameters),
        original_length=form.original_length,
        original_dtype=form.original_dtype,
    )


def rpe_form_to_rle_form(form: CompressedForm) -> CompressedForm:
    """Convert an RPE compressed form into the equivalent RLE form.

    The inverse direction applies DELTA *compression* (adjacent differences)
    to the run positions, recovering the run lengths — which is exactly why
    the paper writes the identity with a DELTA on the ``run_positions``
    constituent.
    """
    if form.scheme != RunPositionEncoding.name:
        raise DecompressionError(f"expected an RPE form, got {form.scheme!r}")
    lengths = adjacent_difference(form.constituent("run_positions"), name="lengths")
    return CompressedForm(
        scheme=RunLengthEncoding.name,
        columns={"values": form.constituent("values"), "lengths": lengths},
        parameters=dict(form.parameters),
        original_length=form.original_length,
        original_dtype=form.original_dtype,
    )


def derive_rpe_plan_from_rle() -> Plan:
    """The mechanical derivation: Algorithm 1 with its first step dropped."""
    return build_rle_decompression_plan().drop_prefix(
        ["run_positions"], description="RPE decompression (derived from Algorithm 1)"
    )


def rle_as_cascade_over_rpe() -> Cascade:
    """The identity's right-hand side as an actual scheme object.

    ``Cascade(RPE, {values: ID, run_positions: DELTA})`` compresses any
    column into what RLE stores: the DELTA form of the run end positions
    holds the lengths — its *differences* (:meth:`Delta.differences`:
    ``deltas`` with ``base`` restored at index 0) are the lengths column bit
    for bit, while its stored ``deltas`` repeat the second length first —
    and it decompresses through RPE.
    """
    return Cascade(RunPositionEncoding(narrow_positions=False),
                   {"values": Identity(), "run_positions": Delta(narrow=False)})


# --------------------------------------------------------------------------- #
# §II-B: FOR ≡ STEPFUNCTION + NS
# --------------------------------------------------------------------------- #

def for_form_to_model_and_residuals(form: CompressedForm) -> Dict[str, CompressedForm]:
    """Split a FOR form into a STEPFUNCTION form and an NS form of the offsets."""
    if form.scheme != FrameOfReference.name:
        raise DecompressionError(f"expected a FOR form, got {form.scheme!r}")
    step_form = CompressedForm(
        scheme=StepFunctionModel.name,
        columns={"refs": form.constituent("refs")},
        parameters={name: form.parameters[name] for name in StepFunctionModel.scalars},
        original_length=form.original_length,
        original_dtype=form.original_dtype,
    )
    offsets = _residuals.decode_residuals(form)
    ns = NullSuppression(signed="zigzag" if form.parameters["offsets_zigzag"] else "reject")
    ns_form = ns.compress(Column(offsets, name="offsets"))
    return {"model": step_form, "residuals": ns_form}


def reassemble_for_from_model_and_residuals(model_form: CompressedForm,
                                            residual_form: CompressedForm,
                                            offsets_layout: str = "packed") -> CompressedForm:
    """Rebuild a FOR form from its STEPFUNCTION model and NS residuals."""
    ns = NullSuppression(signed="zigzag")
    offsets = ns.decompress(residual_form).values.astype(np.int64)
    offsets_column, offsets_params = _residuals.encode_residuals(
        offsets, layout=offsets_layout, name="offsets"
    )
    return CompressedForm(
        scheme=FrameOfReference.name,
        columns={"refs": model_form.constituent("refs"), "offsets": offsets_column},
        parameters={**model_form.parameters, **offsets_params},
        original_length=model_form.original_length,
        original_dtype=model_form.original_dtype,
    )


def derive_stepfunction_plan_from_for(segment_length: int) -> Plan:
    """The mechanical derivation: Algorithm 2 truncated before the final addition."""
    full = build_for_decompression_plan(segment_length, faithful_to_paper=True)
    return full.truncate_at(
        "replicated",
        description=f"STEPFUNCTION evaluation (Algorithm 2 truncated, l={segment_length})",
    )


# --------------------------------------------------------------------------- #
# Surgery / optimizer commutation
# --------------------------------------------------------------------------- #

def surgery_commutes_with_optimization(plan: Plan, inputs, *,
                                       truncate_at: Optional[str] = None,
                                       drop_prefix: Optional[List[str]] = None) -> bool:
    """Check that plan surgery and the optimizer commute observationally.

    The paper's decomposition arguments are *surgery on uncompiled plans*
    (drop the first steps, keep only the initial steps); the plan compiler
    rewrites plans aggressively.  The two must not interfere: optimizing a
    surgered plan has to evaluate to exactly what the surgered plan
    evaluates to.  (The stronger syntactic property — surgering an
    *optimized* plan — is not required, since optimization may remove the
    very binding the surgery names; surgery is therefore always performed
    on the uncompiled specification.)
    """
    surgered = plan
    if truncate_at is not None:
        surgered = surgered.truncate_at(truncate_at)
    if drop_prefix is not None:
        surgered = surgered.drop_prefix(drop_prefix)
    reference = surgered.evaluate(inputs)
    optimized = optimize(surgered).evaluate(inputs)
    return optimized.equals(reference, check_dtype=True)


# --------------------------------------------------------------------------- #
# Machine-checkable identities
# --------------------------------------------------------------------------- #

@dataclass
class IdentityCheckResult:
    """Outcome of verifying a decomposition identity on one column."""

    identity: str
    holds: bool
    details: Dict[str, bool]

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


@dataclass
class DecompositionIdentity:
    """A named, executable decomposition identity.

    ``verify(column)`` runs the identity's individual checks on real data
    and reports which held.  The two paper identities are provided as module
    attributes :data:`RLE_VIA_RPE` and :data:`FOR_VIA_STEPFUNCTION`.
    """

    name: str
    checks: List[Callable[[Column], bool]]

    def verify(self, column: Column) -> IdentityCheckResult:
        details = {}
        for check in self.checks:
            details[check.__name__] = bool(check(column))
        return IdentityCheckResult(self.name, all(details.values()), details)


# -- RLE ≡ (ID, DELTA) ∘ RPE checks ----------------------------------------- #

def _check_rle_rpe_roundtrip_agreement(column: Column) -> bool:
    """Both sides decompress back to the original column."""
    rle = RunLengthEncoding()
    cascade = rle_as_cascade_over_rpe()
    return (rle.roundtrip(column).equals(column)
            and cascade.decompress(cascade.compress(column)).equals(column))


def _check_lengths_equal_delta_of_positions(column: Column) -> bool:
    """RLE's lengths column equals the differences of the DELTA compression of
    RPE's positions: its ``deltas`` with ``base`` restored at index 0."""
    rle_form = RunLengthEncoding(narrow_lengths=False).compress(column)
    rpe_form = RunPositionEncoding(narrow_positions=False).compress(column)
    delta_of_positions = Delta(narrow=False).compress(rpe_form.constituent("run_positions"))
    return rle_form.constituent("lengths").equals(Delta.differences(delta_of_positions),
                                                  check_dtype=True)


def _check_rpe_plan_is_truncated_rle_plan(column: Column) -> bool:
    """The derived RPE plan and the direct RPE plan compute the same result."""
    rpe_form = RunPositionEncoding(narrow_positions=False).compress(column)
    derived = derive_rpe_plan_from_rle()
    direct = build_rpe_decompression_plan(derive_from_rle=False)
    inputs = {"run_positions": rpe_form.constituent("run_positions"),
              "values": rpe_form.constituent("values")}
    if len(column) == 0:
        return True
    return derived.evaluate(inputs).equals(direct.evaluate(inputs)) and \
        derived.evaluate(inputs).equals(Column(column.values.astype(np.int64)))


def _check_rpe_derivation_commutes_with_optimizer(column: Column) -> bool:
    """Optimizing the prefix-dropped Algorithm 1 preserves its result."""
    if len(column) == 0:
        return True
    rpe_form = RunPositionEncoding(narrow_positions=False).compress(column)
    inputs = {"run_positions": rpe_form.constituent("run_positions"),
              "values": rpe_form.constituent("values")}
    return surgery_commutes_with_optimization(
        build_rle_decompression_plan(), inputs, drop_prefix=["run_positions"]
    )


RLE_VIA_RPE = DecompositionIdentity(
    name="RLE ≡ (ID values, DELTA run_positions) ∘ RPE",
    checks=[
        _check_rle_rpe_roundtrip_agreement,
        _check_lengths_equal_delta_of_positions,
        _check_rpe_plan_is_truncated_rle_plan,
        _check_rpe_derivation_commutes_with_optimizer,
    ],
)


# -- FOR ≡ STEPFUNCTION + NS checks ----------------------------------------- #

_IDENTITY_SEGMENT_LENGTH = 64


def _check_for_splits_into_model_plus_residuals(column: Column) -> bool:
    """model(x) + NS-decoded residuals == original, element for element."""
    if len(column) == 0:
        return True
    for_scheme = FrameOfReference(segment_length=_IDENTITY_SEGMENT_LENGTH, reference="min")
    form = for_scheme.compress(column)
    parts = for_form_to_model_and_residuals(form)
    model_eval = StepFunctionModel(
        segment_length=_IDENTITY_SEGMENT_LENGTH).decompress(parts["model"])
    residuals = NullSuppression(signed="reject").decompress(parts["residuals"]) \
        if not parts["residuals"].parameters["transform"] == "zigzag" \
        else NullSuppression(signed="zigzag").decompress(parts["residuals"])
    reconstructed = model_eval.values.astype(np.int64) + residuals.values.astype(np.int64)
    return bool(np.array_equal(reconstructed, column.values.astype(np.int64)))


def _check_for_reassembles(column: Column) -> bool:
    """Splitting a FOR form and reassembling it round-trips losslessly."""
    if len(column) == 0:
        return True
    for_scheme = FrameOfReference(segment_length=_IDENTITY_SEGMENT_LENGTH, reference="min")
    form = for_scheme.compress(column)
    parts = for_form_to_model_and_residuals(form)
    rebuilt = reassemble_for_from_model_and_residuals(parts["model"], parts["residuals"])
    return for_scheme.decompress(rebuilt).equals(column)


def _check_stepfunction_plan_is_truncated_for_plan(column: Column) -> bool:
    """Algorithm 2 truncated before its addition evaluates the step-function model."""
    if len(column) == 0:
        return True
    for_scheme = FrameOfReference(segment_length=_IDENTITY_SEGMENT_LENGTH, reference="min",
                                  offsets_layout="aligned")
    form = for_scheme.compress(column)
    truncated = derive_stepfunction_plan_from_for(_IDENTITY_SEGMENT_LENGTH)
    evaluated = truncated.evaluate({
        "refs": form.constituent("refs"),
        "offsets": form.constituent("offsets"),
    })
    model = StepFunctionModel(segment_length=_IDENTITY_SEGMENT_LENGTH)
    expected = model.decompress(model.compress(column))
    return Column(evaluated.values.astype(np.int64)).equals(
        Column(expected.values.astype(np.int64)))


def _check_stepfunction_derivation_commutes_with_optimizer(column: Column) -> bool:
    """Optimizing the truncated Algorithm 2 preserves the model evaluation."""
    if len(column) == 0:
        return True
    for_scheme = FrameOfReference(segment_length=_IDENTITY_SEGMENT_LENGTH, reference="min",
                                  offsets_layout="aligned")
    form = for_scheme.compress(column)
    inputs = {"refs": form.constituent("refs"),
              "offsets": form.constituent("offsets")}
    full = build_for_decompression_plan(_IDENTITY_SEGMENT_LENGTH, faithful_to_paper=True)
    return surgery_commutes_with_optimization(full, inputs, truncate_at="replicated")


FOR_VIA_STEPFUNCTION = DecompositionIdentity(
    name="FOR ≡ STEPFUNCTION + NS",
    checks=[
        _check_for_splits_into_model_plus_residuals,
        _check_for_reassembles,
        _check_stepfunction_plan_is_truncated_for_plan,
        _check_stepfunction_derivation_commutes_with_optimizer,
    ],
)


ALL_IDENTITIES = (RLE_VIA_RPE, FOR_VIA_STEPFUNCTION)
