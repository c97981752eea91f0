"""Enriched-model schemes: piecewise-linear and piecewise-polynomial FOR.

Section II-B of the paper, having read FOR as "step-function model plus NS
residuals", immediately proposes enriching the model: *"keep an offset from
a diagonal line at some slope rather than the offset from a horizontal
'step'; more generally, we would replace step functions with stepwise
low-degree polynomials, or splines"* — noting that compression then requires
curve fitting "rather than taking the minimum or the middle of the range of
values".

These schemes are that proposal, made lossless the same way FOR is: store
the fitted per-segment coefficients plus the exact integer residuals.  The
decompression plans evaluate the model with ordinary columnar operators
(gathers of the coefficient columns, element-wise multiply/add in Horner
order, a final rounding) and then add the residuals — richer models, same
operator algebra, exactly the paper's "generalizing a compression scheme
means generalizing one of its subschemes".
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..columnar import dtypes as _dt
from ..columnar.column import Column
from ..columnar.plan import LengthOf, Plan, PlanBuilder
from ..errors import SchemeParameterError
from ..model.fitting import fit_piecewise_polynomial
from . import _residuals
from .base import POSITIVE, CompressedForm, CompressionScheme


def _residual_spread_floor(values: np.ndarray, length: int) -> int:
    """A lower bound on ``max r - min r`` over the residuals ``r`` that any
    line per *length*-long segment leaves.  ``v[i] = round(line(i)) + r[i]``
    bounds the second differences at a lag ``k`` within a segment,

        ``|v[i-k] - 2 v[i] + v[i+k]| <= 2 (max r - min r) + 3``

    (the line's own cancel; 2 is for the three roundings, 1 for their float64
    evaluation), and the stored residuals reach at least ``max r - min r``.
    One lag, a quarter segment: drift shows at a distance, noise at any."""
    lag = max(1, length // 4)
    full = values.size - values.size % length
    bend = 0
    for block in (values[:full].reshape(-1, length), values[None, full:]):
        if block.size and block.shape[1] > 2 * lag:
            second = block[:, 2 * lag:] - 2 * block[:, lag:-lag] + block[:, :-2 * lag]
            bend = max(bend, int(second.max()), -int(second.min()))
    return max(bend - 2, 0) // 2


class PiecewisePolynomial(CompressionScheme):
    """Lossless piecewise-polynomial model + residual scheme.

    Parameters
    ----------
    segment_length:
        Elements per segment.
    degree:
        Polynomial degree of the per-segment model (1 = the paper's
        "diagonal line at some slope").
    offsets_layout:
        Residual layout, ``"packed"`` or ``"aligned"`` (see FOR).
    """

    name = "POLY"
    computes_output = True
    scalars = {"segment_length": POSITIVE, "degree": POSITIVE, **_residuals.SCALARS}

    def __init__(self, segment_length: int = 128, degree: int = 1,
                 offsets_layout: str = "packed"):
        if segment_length <= 0:
            raise SchemeParameterError(
                f"POLY segment_length must be positive, got {segment_length}"
            )
        if degree < 1:
            raise SchemeParameterError(
                f"POLY degree must be at least 1 (use FOR/STEPFUNCTION for degree 0), "
                f"got {degree}"
            )
        self.segment_length = segment_length
        self.degree = degree
        self.offsets_layout = offsets_layout

    def parameters(self) -> Dict[str, Any]:
        return {
            "segment_length": self.segment_length,
            "degree": self.degree,
            "offsets_layout": self.offsets_layout,
        }

    def expected_constituents(self) -> Tuple[str, ...]:
        return tuple(f"coeff_{k}" for k in range(self.degree + 1)) + ("offsets",)

    # ------------------------------------------------------------------ #

    def compress(self, column: Column) -> CompressedForm:
        """Fit per-segment polynomials and store coefficients plus residuals."""
        self.validate(column)
        model = fit_piecewise_polynomial(column, self.segment_length, self.degree)
        prediction = model.predict(round_to_int=True)
        residuals = column.values.astype(np.int64) - prediction

        offsets_column, offsets_params = _residuals.encode_residuals(
            residuals, layout=self.offsets_layout, name="offsets"
        )
        columns: Dict[str, Column] = {"offsets": offsets_column}
        for k in range(model.degree + 1):
            columns[f"coeff_{k}"] = Column(model.coefficients[:, k].copy(), name=f"coeff_{k}")

        return CompressedForm(
            scheme=self.name,
            columns=columns,
            parameters={"segment_length": self.segment_length, "degree": model.degree,
                        **offsets_params},
            original_length=len(column),
            original_dtype=column.dtype,
        )

    def stored_bytes_bound(self, profile) -> int:
        """The float64 coefficients, and residuals at least as wide as a line
        leaves them (:func:`_residual_spread_floor`): a floor of one bit each
        for higher degrees, and beyond 2**40, where float64 evaluation of the
        fitted line adds more than the 1 that inequality allows it."""
        spread = 0
        if self.degree == 1 and -(1 << 40) < profile.minimum <= profile.maximum < 1 << 40:
            spread = _residual_spread_floor(profile.values.astype(np.int64), self.segment_length)
        segments = -(-profile.count // self.segment_length)
        return (8 * (self.degree + 1) * segments + _dt.stored_size_bytes(
            profile.count, _dt.bits_for_unsigned(spread), self.offsets_layout))

    def decompression_plan(self, form: CompressedForm) -> Plan:
        """Horner-evaluate the model columnar-ly, round, add residuals."""
        degree, segment_length = form.parameters["degree"], form.parameters["segment_length"]
        coefficient_inputs = [f"coeff_{k}" for k in range(degree + 1)]
        builder = PlanBuilder(
            coefficient_inputs + ["offsets"],
            description=f"POLY decompression (degree {degree}, l={segment_length})",
        )
        offsets_binding = _residuals.add_decode_steps(builder, form)

        builder.step("id", "Iota", length=LengthOf(offsets_binding))
        builder.step("segment_ids", "Elementwise", op="//", left="id", right=segment_length)
        builder.step("in_segment", "Elementwise", op="%", left="id", right=segment_length)

        # Horner: prediction = (((c_d) * x + c_{d-1}) * x + ...) + c_0
        builder.step("prediction_0", "Gather", values=f"coeff_{degree}",
                     indices="segment_ids")
        current = "prediction_0"
        for step_index, k in enumerate(range(degree - 1, -1, -1), start=1):
            builder.step(f"scaled_{step_index}", "Elementwise", op="*",
                         left=current, right="in_segment")
            builder.step(f"coeff_gathered_{step_index}", "Gather",
                         values=f"coeff_{k}", indices="segment_ids")
            builder.step(f"prediction_{step_index}", "Elementwise", op="+",
                         left=f"scaled_{step_index}", right=f"coeff_gathered_{step_index}")
            current = f"prediction_{step_index}"

        builder.step("prediction_rounded", "ElementwiseUnary", op="round", operand=current)
        builder.step("decompressed", "Elementwise", op="+",
                     left="prediction_rounded", right=offsets_binding)
        return builder.build("decompressed")

    @staticmethod
    def shape_problem(parameters: Dict[str, Any], lengths: Dict[str, int],
                      rows: int) -> Optional[str]:
        """The constituents are exactly ``coeff_0`` … ``coeff_<degree>``, one
        entry per segment each, and ``offsets``, one per row: the degree is
        held to the count of constituents before any list of them is built."""
        degree, each = parameters["degree"], parameters["segment_length"]
        coeffs = [f"coeff_{k}" for k in range(degree + 1)] if len(lengths) == degree + 2 else []
        if sorted(lengths) != sorted(coeffs + ["offsets"]):
            return f"constituents {sorted(lengths)} for degree {degree}"
        found = [lengths[name] for name in coeffs]
        if set(found) != {-(-rows // each)}:
            return f"{rows} rows in segments of {each}: coefficients {found}"
        return _residuals.shape_problem(parameters, lengths, rows)


class PiecewiseLinear(PiecewisePolynomial):
    """Degree-1 specialisation: "an offset from a diagonal line at some slope"."""

    name = "LINEAR"

    def __init__(self, segment_length: int = 128, offsets_layout: str = "packed"):
        super().__init__(segment_length=segment_length, degree=1,
                         offsets_layout=offsets_layout)

    def parameters(self) -> Dict[str, Any]:
        return {"segment_length": self.segment_length, "offsets_layout": self.offsets_layout}
