"""DELTA: store differences between consecutive elements.

DELTA is the scheme the paper singles out in its decomposition of RLE:
the run-*position* column of RPE is nothing but the prefix sum of the run
*lengths* — i.e. the lengths column is the DELTA-compressed form of the
positions column.  Decompression is therefore a single ``PrefixSum``.

The constituent layout is deliberately minimal: one ``deltas`` column of the
same length as the input, whose first element is the first value itself
(equivalently, the delta from an implicit reference of 0).  The deltas of a
generic column are small but signed; on their own they occupy the same
physical width as the input, so DELTA pays off only when composed with a
narrowing scheme (NS with zig-zag) — exactly the paper's point that
composition is where the leverage is.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..columnar.column import Column
from ..columnar.ops.elementwise import adjacent_difference
from ..columnar.plan import Plan, PlanBuilder
from .base import CompressedForm, CompressionScheme


class Delta(CompressionScheme):
    """Adjacent-difference encoding; decompression is one prefix sum.

    Parameters
    ----------
    narrow:
        When true (default), store the deltas in the narrowest physical
        signed dtype that fits them, so that DELTA alone already shrinks
        well-behaved columns; when false keep 64-bit deltas (the "pure"
        columnar form, useful when a further scheme will narrow them anyway).
    """

    name = "DELTA"
    #: Decompression is always exactly one prefix sum.
    plan_depends_on_form = False

    def __init__(self, narrow: bool = True):
        self.narrow = narrow

    def parameters(self) -> Dict[str, Any]:
        return {"narrow": self.narrow}

    def expected_constituents(self) -> Tuple[str, ...]:
        return ("deltas",)

    # ------------------------------------------------------------------ #

    def compress(self, column: Column) -> CompressedForm:
        """Store ``deltas[0] = col[0]``, ``deltas[i] = col[i] - col[i-1]``."""
        self.validate(column)
        if len(column) == 0:
            return self._empty_form(column)
        deltas = adjacent_difference(column, name="deltas")
        if self.narrow:
            deltas = deltas.astype(deltas.narrowest_dtype())
        return CompressedForm(
            scheme=self.name,
            columns={"deltas": deltas},
            parameters={},
            original_length=len(column),
            original_dtype=column.dtype,
        )

    def constituent_profiles(self, profile):
        deltas = profile.deltas
        return {"deltas": deltas.narrowed() if self.narrow else deltas}

    def decompression_plan(self, form: CompressedForm) -> Plan:
        """Decompression is exactly one inclusive prefix sum."""
        builder = PlanBuilder(["deltas"], description="DELTA decompression")
        builder.step("values", "PrefixSum", col="deltas")
        return builder.build("values")
