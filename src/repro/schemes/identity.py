"""The identity "scheme" (ID).

The paper introduces ID — *"the 'compression scheme' of not applying any
compression"* — because it is the unit of scheme composition: the identity
``RLE ≡ (ID for values, DELTA for run_positions) ∘ RPE`` needs a name for
"leave this constituent alone".  Having ID be a real scheme (rather than a
special case) keeps the composition algebra uniform.
"""

from __future__ import annotations

from typing import Tuple

from ..columnar.column import Column
from ..columnar.plan import Plan, PlanBuilder
from .base import CompressedForm, CompressionScheme


class Identity(CompressionScheme):
    """Store the column as-is; decompression is a no-op (an empty plan)."""

    name = "ID"
    #: The trivial plan never varies.
    plan_depends_on_form = False

    def compress(self, column: Column) -> CompressedForm:
        """Wrap *column* unchanged as the single constituent ``"values"``."""
        return CompressedForm(
            scheme=self.name,
            columns={"values": column.rename("values")},
            parameters={},
            original_length=len(column),
            original_dtype=column.dtype,
        )

    def constituent_profiles(self, profile):
        return {"values": profile}

    def decompression_plan(self, form: CompressedForm) -> Plan:
        """A zero-step plan that returns the stored values."""
        builder = PlanBuilder(["values"], description="ID decompression (no-op)")
        return builder.build("values")

    def validate(self, column: Column) -> None:
        """ID accepts any column, including floats."""

    def expected_constituents(self) -> Tuple[str, ...]:
        return ("values",)
