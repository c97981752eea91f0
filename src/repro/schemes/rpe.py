"""RPE: run-position encoding — what is left of RLE after dropping a step.

Section II-A of the paper observes that if, instead of the run *lengths*,
we store the (inclusive-prefix-summed) run *end positions*, Algorithm 1 can
be applied "sans its first operation" and still reproduce the column —
and that storing positions instead of lengths is itself a compression
scheme, Run Position Encoding (RPE, after Plattner §7.2).

The relationship the paper writes as

    ``RLE ≡ (ID for values, DELTA for run_positions) ∘ RPE``

is made executable in :mod:`repro.schemes.decomposition`; here we implement
RPE in its own right.  Its decompression plan is, literally, the RLE plan
with its first step dropped (see :func:`build_rpe_decompression_plan`),
which is the cheaper-decompression / weaker-compression trade the paper
describes: positions occupy a (slightly) wider dtype than lengths, but
decompression — and, importantly, *random access and selections* — skip the
prefix sum over the runs.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..columnar.column import Column
from ..columnar.ops import runs as _runs
from ..columnar.plan import LengthOf, Plan, PlanBuilder, ScalarAt
from .base import CompressedForm
from .rle import RunScheme, build_rle_decompression_plan


def build_rpe_decompression_plan(derive_from_rle: bool = True) -> Plan:
    """The RPE decompression plan.

    With ``derive_from_rle=True`` (default) the plan is obtained exactly the
    way the paper derives it: take Algorithm 1 and drop its first operation,
    promoting ``run_positions`` to an input.  With ``False`` an equivalent
    plan is built directly; the two are checked to coincide in the test
    suite (structural equality of steps).
    """
    if derive_from_rle:
        return build_rle_decompression_plan().drop_prefix(
            ["run_positions"], description="RPE decompression (Algorithm 1 sans PrefixSum)"
        )
    builder = PlanBuilder(["run_positions", "values"],
                          description="RPE decompression (direct)")
    builder.step("run_positions_trimmed", "PopBack", col="run_positions")
    builder.step("ones", "Ones", length=LengthOf("run_positions_trimmed"))
    builder.step("zeros", "Zeros", length=ScalarAt("run_positions", -1))
    builder.step("pos_delta", "Scatter", values="ones",
                 indices="run_positions_trimmed", base="zeros")
    builder.step("positions", "PrefixSum", col="pos_delta")
    builder.step("decompressed", "Gather", values="values", indices="positions")
    return builder.build("decompressed")


class RunPositionEncoding(RunScheme):
    """RPE: per-run values plus exclusive-of-the-run *end* positions.

    The ``run_positions`` constituent holds, for every run, the position one
    past its last element; its final entry is therefore the uncompressed
    column length (the ``n`` Algorithm 1 reads off it).
    """

    name = "RPE"
    ends = "run_positions"

    def __init__(self, narrow_positions: bool = True):
        self.narrow_positions = narrow_positions

    def parameters(self) -> Dict[str, Any]:
        return {"narrow_positions": self.narrow_positions}

    def expected_constituents(self) -> Tuple[str, ...]:
        return ("values", "run_positions")

    # ------------------------------------------------------------------ #

    def compress(self, column: Column) -> CompressedForm:
        """Split *column* into per-run ``values`` and ``run_positions``."""
        self.validate(column)
        if len(column) == 0:
            return self._empty_form(column)
        values = _runs.run_values(column, name="values")
        positions = _runs.run_end_positions(column, name="run_positions")
        if self.narrow_positions:
            positions = positions.astype(positions.narrowest_dtype())
        return CompressedForm(
            scheme=self.name,
            columns={"values": values, "run_positions": positions},
            original_length=len(column),
            original_dtype=column.dtype,
        )

    def constituent_profiles(self, profile):
        ends = profile.run_ends
        return {"values": profile.run_values,
                "run_positions": ends.narrowed() if self.narrow_positions else ends}

    def decompression_plan(self, form: CompressedForm) -> Plan:
        """Algorithm 1 with its first operation dropped."""
        return build_rpe_decompression_plan(derive_from_rle=True)
