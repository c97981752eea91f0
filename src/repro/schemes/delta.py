"""DELTA: store differences between consecutive elements.

DELTA is the scheme the paper singles out in its decomposition of RLE:
the run-*position* column of RPE is nothing but the prefix sum of the run
*lengths* — i.e. the lengths column is the DELTA-compressed form of the
positions column.  Decompression is therefore a single ``PrefixSum``.

A form keeps the differences apart from where they start: a ``deltas``
column as long as the input, ``deltas[i] = col[i] - col[i-1]``, in which
``deltas[0]`` repeats ``deltas[1]`` (a stored 0 would be one more symbol for
an inner dictionary), and the scalar parameter ``base = col[0] - deltas[1]``,
taken modulo 2**64 into the int64 accumulator.  One large first value thus
sets the width of nothing: a monotone key with gaps of 1–4 narrows to one
byte per value wherever it starts.  Decompression stays one operator,
``PrefixSum(deltas, initial=base)``, which adds ``base`` into the widened
first element before the scan; ``base`` is a plan input, so every form
shares one compiled plan.  The form's *differences* — ``deltas`` with
``base`` restored at index 0 — are the column's adjacent differences (RLE's
lengths, when the column is RPE's positions: §II-A).

The deltas of a generic column are small but signed; on their own they are
narrowed to the physical width that holds them, and DELTA pays off most when
composed with a narrowing scheme (NS, FOR, DICT on ``deltas``) — exactly the
paper's point that composition is where the leverage is.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..columnar.column import Column
from ..columnar.compile.executor import lightest_step_weight
from ..columnar.plan import Plan, PlanBuilder, ScalarAt
from ..columnar.profile import ColumnProfile
from .base import INT64, CompressedForm, CompressionScheme

#: The dtype decompression accumulates in; ``base`` is one of its values.
ACCUMULATOR = np.dtype(np.int64)
_LIMITS = np.iinfo(ACCUMULATOR)


class Delta(CompressionScheme):
    """Adjacent-difference encoding; decompression is one prefix sum.

    Parameters
    ----------
    narrow:
        When true (default), store the deltas in the narrowest physical
        dtype that fits them, so that DELTA alone already shrinks
        well-behaved columns; when false keep 64-bit deltas (the "pure"
        columnar form, useful when a further scheme will narrow them anyway).
    """

    name = "DELTA"
    #: Decompression is always exactly one prefix sum.
    plan_depends_on_form = False
    scanned_constituents = ("deltas",)
    scalars = {"base": INT64}

    def __init__(self, narrow: bool = True):
        self.narrow = narrow

    def parameters(self) -> Dict[str, Any]:
        return {"narrow": self.narrow}

    def expected_constituents(self) -> Tuple[str, ...]:
        return ("deltas",)

    # ------------------------------------------------------------------ #

    def compress(self, column: Column) -> CompressedForm:
        """Store ``deltas`` (what :meth:`constituent_profiles` describes) and
        ``base = col[0] - deltas[0]`` modulo 2**64."""
        self.validate(column)
        if len(column) == 0:
            return self._empty_form(column, base=0)
        deltas = self.constituent_profiles(ColumnProfile(column.values))["deltas"].values
        base = (int(column.values[0]) - int(deltas[0]) - _LIMITS.min) % 2**64 + _LIMITS.min
        return CompressedForm(
            scheme=self.name,
            columns={"deltas": Column.adopt(deltas, name="deltas")},
            parameters={"base": base},
            original_length=len(column),
            original_dtype=column.dtype,
        )

    def constituent_profiles(self, profile):
        deltas = profile.deltas
        return {"deltas": deltas.narrowed() if self.narrow else deltas}

    def decompression_plan(self, form: CompressedForm) -> Plan:
        """Decompression is exactly one inclusive prefix sum, from ``base``."""
        builder = PlanBuilder(["deltas", "base"], description="DELTA decompression")
        builder.step("values", "PrefixSum", col="deltas", initial=ScalarAt("base", 0))
        return builder.build("values")

    def decompression_cost_floor(self, profile) -> float:
        """The prefix sum reads every delta and writes every value; its
        ``initial`` is bound at run time, so no rewrite removes it."""
        return 2 * lightest_step_weight()

    def plan_inputs(self, form: CompressedForm) -> Dict[str, Column]:
        """The plain constituents and, once the form passes :meth:`check`,
        ``base`` as a one-value column (a cascade over DELTA binds the same)."""
        inputs = super().plan_inputs(form)
        inputs["base"] = form.cached(("base",), lambda: Column.adopt(
            np.array([form.parameters["base"]], dtype=ACCUMULATOR), name="base"))
        return inputs

    @staticmethod
    def differences(form: CompressedForm) -> Column:
        """The column's adjacent differences, ``AdjacentDifference`` of it in
        the accumulator: the stored ``deltas`` with ``base`` restored at 0."""
        deltas = form.constituent("deltas").values.astype(ACCUMULATOR)
        deltas[:1] += form.parameters["base"]
        return Column.adopt(deltas, name="deltas")

    @staticmethod
    def shape_problem(parameters: Dict[str, Any], lengths: Dict[str, int],
                      rows: int) -> Optional[str]:
        """One delta per row."""
        deltas = lengths.get("deltas", 0)
        return f"{deltas} deltas for {rows} rows" if deltas != rows else None
