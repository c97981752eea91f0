"""STEPFUNCTION: the coarse model hiding inside FOR.

Section II-B of the paper observes that if one keeps the initial steps of
FOR decompression (Algorithm 2) and *ignores the final addition of offsets*,
what remains evaluates a fixed-segment-length step function: the constant
``refs[i]`` over the whole *i*-th segment.  As a stand-alone scheme this
captures only a tiny fragment of possible columns — it is lossy for
everything else — "but it is quite useful conceptually", because it lets the
paper write

    ``FOR ≡ (STEPFUNCTION + NS)``

with NS encoding the residual offsets.  This module implements STEPFUNCTION
as a real (lossy, model) scheme so that identity can be stated, tested and
benchmarked (experiment E5), and so the query engine can evaluate range
predicates against the coarse model alone (experiment E9).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from ..columnar.column import Column
from ..columnar.plan import LengthOf, Plan, PlanBuilder
from ..errors import SchemeParameterError
from .base import POSITIVE, CompressedForm, CompressionScheme
from .for_ import REFERENCES, segment_references, segments_problem


def build_stepfunction_evaluation_plan(segment_length: int) -> Plan:
    """The model-evaluation plan: Algorithm 2 without its final addition.

    Note the plan still needs to know how many elements to produce; in FOR
    that length is carried by the offsets column, so the step-function plan
    takes a ``positions_template`` input whose only role is its length (the
    storage layer supplies any column of the right length, typically the
    selection vector being processed).
    """
    builder = PlanBuilder(["refs", "positions_template"],
                          description=f"STEPFUNCTION evaluation (l={segment_length})")
    builder.step("id", "Iota", length=LengthOf("positions_template"))
    builder.step("ref_indices", "Elementwise", op="//", left="id", right=segment_length)
    builder.step("evaluated", "Gather", values="refs", indices="ref_indices")
    return builder.build("evaluated")


class StepFunctionModel(CompressionScheme):
    """A lossy, fixed-segment-length step-function model of a column.

    ``decompress`` returns the *model evaluation*, not the original data —
    ``is_lossless`` is ``False``.  The residuals (what a composed scheme
    would need to store to become lossless) are available via
    :meth:`residuals`.  Its references are FOR's, taken in integers
    (:func:`~repro.schemes.for_.segment_references`).
    """

    name = "STEPFUNCTION"
    is_lossless = False
    scalars = {"segment_length": POSITIVE, "reference": REFERENCES}
    shape_problem = staticmethod(segments_problem)

    def __init__(self, segment_length: int = 128, reference: str = "min"):
        if segment_length <= 0:
            raise SchemeParameterError(
                f"STEPFUNCTION segment_length must be positive, got {segment_length}"
            )
        if reference not in REFERENCES:
            raise SchemeParameterError(
                f"STEPFUNCTION reference must be 'min', 'mid' or 'first', got {reference!r}"
            )
        self.segment_length = segment_length
        self.reference = reference

    def parameters(self) -> Dict[str, Any]:
        return {"segment_length": self.segment_length, "reference": self.reference}

    def expected_constituents(self) -> Tuple[str, ...]:
        return ("refs",)

    # ------------------------------------------------------------------ #

    def compress(self, column: Column) -> CompressedForm:
        """Keep only the per-segment references."""
        self.validate(column)
        refs = segment_references(column.values, self.segment_length, self.reference)
        return CompressedForm(
            scheme=self.name,
            columns={"refs": Column(refs, name="refs")},
            parameters={"segment_length": self.segment_length, "reference": self.reference},
            original_length=len(column),
            original_dtype=column.dtype,
        )

    def decompression_plan(self, form: CompressedForm) -> Plan:
        """Evaluate the step function at every original position."""
        return build_stepfunction_evaluation_plan(form.parameters["segment_length"])

    def plan_inputs(self, form: CompressedForm) -> Dict[str, Column]:
        self.check(form)
        refs = form.constituent("refs")
        # Any column of the original length works as the positions template.
        template = Column(np.empty(form.original_length, dtype=np.int8),
                          name="positions_template")
        return {"refs": refs, "positions_template": template}

    # ------------------------------------------------------------------ #
    # Model-scheme extras
    # ------------------------------------------------------------------ #

    def residuals(self, form: CompressedForm, original: Column) -> Column:
        """The offsets a residual scheme would need to store: ``original - model``."""
        evaluated = self.decompress(form)
        return Column(original.values.astype(np.int64) - evaluated.values.astype(np.int64),
                      name="residuals")

    def approximation_error(self, form: CompressedForm, original: Column) -> float:
        """L∞ reconstruction error of the model alone."""
        residuals = self.residuals(form, original).values
        return float(np.abs(residuals).max()) if len(residuals) else 0.0
