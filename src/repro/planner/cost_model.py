"""Cost model: estimated size and decompression effort of a scheme on a column.

The paper's framing of compression in a DBMS is explicitly two-sided: the
ratio buys bandwidth, but "overly-demanding decompression would slow down
the speed of processing data below what the incoming bandwidth allows".  A
scheme choice therefore needs *both* numbers, and the planner scores
candidates by a weighted combination of:

* **estimated compressed bits per value**, derived from column statistics
  (and, when a sample is available, refined by actually compressing the
  sample); and
* **decompression effort**, measured hardware-agnostically from the scheme's
  decompression plan: weighted operator invocations and elements touched
  (random-access movement weighted above streaming arithmetic).

Both estimates are intentionally simple, monotone formulas — this is an
advisor that must be right about *which* scheme wins, not about absolute
milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..columnar.column import Column
from ..errors import PlanningError
from ..schemes.base import CompressedForm, CompressionScheme
from ..storage.statistics import ColumnStatistics


@dataclass(frozen=True)
class SchemeCostEstimate:
    """Estimated cost of using one scheme for one column.

    Attributes
    ----------
    scheme:
        The scheme description string.
    estimated_bits_per_value:
        Expected compressed size per value (lower is better).
    decompression_cost_per_value:
        Weighted operator cost per decompressed value (lower is better).
    feasible:
        Whether the scheme can represent the column at all / is worthwhile
        (e.g. DICT with an enormous dictionary is marked infeasible).
    """

    scheme: str
    estimated_bits_per_value: float
    decompression_cost_per_value: float
    feasible: bool = True

    def score(self, size_weight: float = 1.0, speed_weight: float = 0.25) -> float:
        """Single scalar used for ranking (lower is better)."""
        if not feasible_guard(self):
            return float("inf")
        return (size_weight * self.estimated_bits_per_value
                + speed_weight * self.decompression_cost_per_value)


def feasible_guard(estimate: "SchemeCostEstimate") -> bool:
    """True when the estimate refers to a usable scheme."""
    return estimate.feasible and np.isfinite(estimate.estimated_bits_per_value)


# --------------------------------------------------------------------------- #
# Size estimation from statistics
# --------------------------------------------------------------------------- #

def estimate_bits_per_value(scheme_name: str, stats: ColumnStatistics,
                            segment_length: int = 128) -> float:
    """Estimate compressed bits per value for *scheme_name* from statistics alone.

    The formulas mirror each scheme's actual layout:

    * ``NS``     — the column's value width.
    * ``FOR``    — range width within a segment is unknown from global stats,
      so the global range width is used as a pessimistic bound, plus the
      amortised reference.
    * ``DELTA``  — the width of the largest adjacent difference (zig-zag).
    * ``RLE``    — (value width + length width) per run, amortised over the
      average run length.
    * ``RPE``    — (value width + position width) per run, likewise.
    * ``DICT``   — ``log2(distinct)`` bits per code plus the amortised
      dictionary.
    * ``ID``     — the physical width of the dtype (8 × itemsize ≈ 64).
    """
    if stats.count == 0:
        return 1.0
    n = stats.count
    value_bits = stats.value_bits
    if scheme_name == "ID":
        return 64.0
    if scheme_name == "NS":
        return float(value_bits)
    if scheme_name == "FOR":
        refs_amortised = 64.0 / segment_length
        return float(stats.range_bits) + refs_amortised
    if scheme_name == "DELTA":
        return float(stats.max_delta_bits)
    if scheme_name in ("RLE", "RPE"):
        per_run = value_bits + (64 if scheme_name == "RPE" else stats.range_bits + 1)
        return per_run / max(stats.average_run_length, 1.0)
    if scheme_name == "DICT":
        if stats.distinct_count <= 1:
            code_bits = 1.0
        else:
            code_bits = float(int(stats.distinct_count - 1).bit_length())
        dictionary_amortised = 64.0 * stats.distinct_count / n
        if stats.distinct_fraction > 0.5:
            return float("inf")
        return code_bits + dictionary_amortised
    raise PlanningError(f"no size estimator for scheme {scheme_name!r}")


# --------------------------------------------------------------------------- #
# Decompression-effort estimation from the plan
# --------------------------------------------------------------------------- #

def decompression_cost(scheme: CompressionScheme, form: CompressedForm,
                       optimized: bool = True) -> float:
    """Weighted plan cost per value of decompressing *form*.

    The form's decompression plan is evaluated with cost accounting and the
    weighted cost normalised per output value.  Lossy model schemes are
    charged for their model evaluation.

    By default the cost is measured on the *optimized* plan — the one the
    compiled execution path actually runs (``optimized=False`` recovers the
    uncompiled plan's cost, which is what the operator-counting experiments
    report).  Since the advisor ranks schemes by this number, estimating
    from the unoptimized plan would systematically overcharge schemes whose
    plans the optimizer shrinks the most.
    """
    if optimized:
        compiled = scheme.compiled_decompression_plan(form)
        result = compiled.run_detailed(scheme.plan_inputs(form), collect_cost=True)
    else:
        plan = scheme.decompression_plan(form)
        result = plan.evaluate_detailed(scheme.plan_inputs(form))
    return result.cost.weighted_cost / max(form.original_length, 1)


def measure_decompression_cost(scheme: CompressionScheme, sample: Column,
                               optimized: bool = True) -> float:
    """:func:`decompression_cost` of *sample*'s compressed form (0 if empty)."""
    if len(sample) == 0:
        return 0.0
    return decompression_cost(scheme, scheme.compress(sample), optimized)


def measure_bits_per_value(scheme: CompressionScheme, sample: Column) -> float:
    """Actual compressed bits per value on a sample (refines the estimate)."""
    if len(sample) == 0:
        return 1.0
    form = scheme.compress(sample)
    return form.bits_per_value()
