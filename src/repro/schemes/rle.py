"""RLE: run-length encoding, with decompression as the paper's Algorithm 1.

A column with long runs of identical values is stored as two corresponding
columns — ``values`` (one entry per run) and ``lengths`` — whose common
length is the number of runs.  Decompression, expressed in columnar
operators, is Algorithm 1 of the paper:

1.  ``run_positions   ← PrefixSum(lengths)``
2.  ``n               ← run_positions[-1]``
3.  ``run_positions'  ← PopBack(run_positions)``
4.  ``ones            ← Constant(1, |run_positions'|)``
5.  ``zeros           ← Constant(0, n)``
6.  ``pos_delta       ← Scatter(ones, run_positions')``
7.  ``positions       ← PrefixSum(pos_delta)``
8.  ``return Gather(values, positions)``

(The paper's listing contains two obvious typos — it writes ``Constant(1, n)``
for the zero column and ``PrefixSum(|ones|)`` in Algorithm 2; the plan below
implements the evidently intended operations.)

The plan optimizer re-composes steps 1-8 into the single ``Repeat`` operator
(:func:`repro.columnar.compile.optimizer.recompose_run_expansion`), which is
what ``decompress`` runs; experiment E2 compares it, and the interpreted
plan, against a bare ``numpy.repeat``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..columnar.column import Column
from ..columnar.ops import runs as _runs
from ..columnar.plan import LengthOf, Plan, PlanBuilder, ScalarAt
from .base import CompressedForm, CompressionScheme


def build_rle_decompression_plan() -> Plan:
    """Algorithm 1 of the paper as a reusable, data-independent plan."""
    builder = PlanBuilder(["lengths", "values"],
                          description="RLE decompression (Algorithm 1)")
    builder.step("run_positions", "PrefixSum", col="lengths")
    builder.step("run_positions_trimmed", "PopBack", col="run_positions")
    builder.step("ones", "Ones", length=LengthOf("run_positions_trimmed"))
    builder.step("zeros", "Zeros", length=ScalarAt("run_positions", -1))
    builder.step("pos_delta", "Scatter", values="ones",
                 indices="run_positions_trimmed", base="zeros")
    builder.step("positions", "PrefixSum", col="pos_delta")
    builder.step("decompressed", "Gather", values="values", indices="positions")
    return builder.build("decompressed")


class RunScheme(CompressionScheme):
    """What RLE and RPE share: Algorithm 1, one plan for every form, over
    ``values`` and the run lengths or their prefix sum, the run ends."""

    computes_output = True
    plan_depends_on_form = False
    #: The constituent that fixes where the runs end.
    ends = "lengths"

    @classmethod
    def shape_problem(cls, parameters: Dict[str, Any], lengths: Dict[str, int],
                      rows: int) -> Optional[str]:
        """A run length or end for each run value."""
        values, ends = lengths.get("values", 0), lengths.get(cls.ends, 0)
        return f"{values} run values and {ends} run lengths or ends" if values != ends else None

    def run_bounds(self, form: CompressedForm) -> np.ndarray:
        """Where *form*'s runs start, then its rows: ``R + 1`` int64 bounds
        from its stored run ends (a prefix sum of RLE's lengths), memoised."""
        def bounds() -> np.ndarray:
            ends = form.constituent(self.ends).values.astype(np.int64)
            return np.concatenate(([0], np.cumsum(ends) if self.ends == "lengths" else ends))
        return form.cached(("run_bounds",), bounds)

    def value_problem(self, form: CompressedForm) -> Optional[str]:
        """Stored run ends rise strictly from 0 to the rows: the run kernels
        binary-search them, and an empty run decodes differently on each
        decompress path."""
        if self.ends not in form.columns:
            return None
        bounds, rows = self.run_bounds(form), form.original_length
        if np.any(np.diff(bounds) <= 0) or bounds[-1] != rows:
            return f"its run ends do not rise strictly from 0 to its {rows} rows"
        return None


class RunLengthEncoding(RunScheme):
    """Classic RLE over maximal runs of equal values.

    Parameters
    ----------
    narrow_lengths:
        Store run lengths in the narrowest unsigned physical dtype (default
        true); the values column always keeps the original dtype.
    """

    name = "RLE"

    def __init__(self, narrow_lengths: bool = True):
        self.narrow_lengths = narrow_lengths

    def parameters(self) -> Dict[str, Any]:
        return {"narrow_lengths": self.narrow_lengths}

    def expected_constituents(self) -> Tuple[str, ...]:
        return ("values", "lengths")

    # ------------------------------------------------------------------ #

    def compress(self, column: Column) -> CompressedForm:
        """Split *column* into per-run ``values`` and ``lengths`` columns."""
        self.validate(column)
        if len(column) == 0:
            return self._empty_form(column)
        values = _runs.run_values(column, name="values")
        lengths = _runs.run_lengths(column, name="lengths")
        if self.narrow_lengths:
            lengths = lengths.astype(lengths.narrowest_dtype())
        return CompressedForm(
            scheme=self.name,
            columns={"values": values, "lengths": lengths},
            original_length=len(column),
            original_dtype=column.dtype,
        )

    def constituent_profiles(self, profile):
        lengths = profile.run_lengths
        return {"values": profile.run_values,
                "lengths": lengths.narrowed() if self.narrow_lengths else lengths}

    def decompression_plan(self, form: CompressedForm) -> Plan:
        """The paper's Algorithm 1 (independent of the particular form)."""
        return build_rle_decompression_plan()
