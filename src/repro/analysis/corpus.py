"""Seeded regression corpus: the four historically-shipped hazard plans,
and the schemes whose plans must be hazard-free.

PR 2 fixed four wrong-result bugs, all of them dtype/value-range hazards
that were visible in the plan before any data ran.  Each entry here rebuilds
the *shape* of one of those bugs as a small plan plus entry facts, and names
the finding kind :func:`repro.analysis.intervals.analyze_plan` must emit for
it.  The analyzer gates on this corpus in CI: if a refactor of the interval
pass stops flagging any of the four, the `analysis` job fails — the corpus
is the analyzer's own regression test, exactly like a compiler's
known-miscompile suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..columnar.plan import Plan, PlanBuilder
from .intervals import Fact, PlanAnalysis, analyze_plan, entry_fact

__all__ = ["BadPlan", "KNOWN_BAD_PLANS", "run_corpus", "decodable_schemes"]


def decodable_schemes() -> List:
    """Every registered scheme and every cascade the advisor generates — what
    a stored table can hold (``DELTA∘[deltas: PFOR]`` and ``∘[deltas: DICT]``
    among them): the plans and rewrites ``python -m repro.analysis`` checks."""
    from ..planner.advisor import cascades_of
    from ..schemes import Delta, RunLengthEncoding, RunPositionEncoding, registry

    schemes = [registry.make_scheme(name) for name in registry.available_schemes()]
    for outer in (RunLengthEncoding(), RunPositionEncoding(), Delta(narrow=False)):
        schemes += cascades_of(outer)
    return schemes


@dataclass(frozen=True)
class BadPlan:
    """One known-bad plan: how to build it and what must be flagged."""

    name: str
    description: str
    expected_kind: str
    build: Callable[[], Tuple[Plan, Dict[str, Fact]]]


def _float_minmax_through_int64() -> Tuple[Plan, Dict[str, Fact]]:
    # PR 2 bug 1: grouped float min/max were accumulated through an int64
    # state, truncating fractional parts.  The plan shape: float64 values
    # folded through an integer accumulator.
    builder = PlanBuilder(["values"], description="float min/max via int64 state")
    builder.step("accumulated", "PrefixSum", col="values", dtype=np.int64)
    plan = builder.build("accumulated")
    facts = {"values": entry_fact(np.float64, lo=-1e6, hi=1e6, length=1000)}
    return plan, facts


def _int_sum_through_float64() -> Tuple[Plan, Dict[str, Fact]]:
    # PR 2 bug 2: integer sums whose partials exceed 2**53 were merged
    # through float64, rounding the low bits away.  The plan shape: a big
    # int64 quantity entering float64 arithmetic.
    builder = PlanBuilder(["partials", "weights"],
                          description="integer sum merged in float64")
    builder.step("merged", "Elementwise", left="partials", right="weights", op="*")
    plan = builder.build("merged")
    facts = {
        "partials": entry_fact(np.int64, lo=0, hi=2 ** 60, length=64),
        "weights": entry_fact(np.float64, lo=0.0, hi=1.0, length=64),
    }
    return plan, facts


def _uint64_delta_wrap() -> Tuple[Plan, Dict[str, Fact]]:
    # PR 2 bug 3: adjacent differences of uint64 columns wrap modulo 2**64
    # for any decreasing pair; the deltas were then treated as signed.
    builder = PlanBuilder(["values"], description="uint64 adjacent-difference wrap")
    builder.step("deltas", "AdjacentDifference", col="values")
    plan = builder.build("deltas")
    facts = {"values": entry_fact(np.uint64, lo=0, hi=2 ** 63, length=500)}
    return plan, facts


def _for_segment_bounds_saturation() -> Tuple[Plan, Dict[str, Fact]]:
    # PR 2 bug 4: FOR segment bounds with offsets_width >= 63 were computed
    # as reference + (2**width - 1) without saturation, overflowing int64.
    # The plan shape: width-63 unpacked offsets added to near-max references.
    builder = PlanBuilder(["refs", "offsets"],
                          description="FOR bounds, offsets_width=63, no saturation")
    builder.step("decoded", "UnpackBits", packed="offsets", width=63,
                 count=4096, dtype=np.int64)
    builder.step("bounds", "Elementwise", left="refs", right="decoded", op="+")
    plan = builder.build("bounds")
    facts = {
        "refs": entry_fact(np.int64, lo=0, hi=2 ** 62, length=32),
        "offsets": entry_fact(np.uint64, lo=0, hi=None, length=4032),
    }
    return plan, facts


KNOWN_BAD_PLANS: Tuple[BadPlan, ...] = (
    BadPlan(
        name="float-minmax-int64-accumulator",
        description="grouped float min/max truncated through an int64 state",
        expected_kind="narrowing-cast",
        build=_float_minmax_through_int64,
    ),
    BadPlan(
        name="int-sum-float64-rounding",
        description="integer sum partials beyond 2**53 merged through float64",
        expected_kind="precision-loss",
        build=_int_sum_through_float64,
    ),
    BadPlan(
        name="uint64-delta-wrap",
        description="adjacent differences of uint64 values wrap modulo 2**64",
        expected_kind="wrap",
        build=_uint64_delta_wrap,
    ),
    BadPlan(
        name="for-segment-bounds-overflow",
        description="FOR segment upper bounds overflow int64 at offsets_width 63",
        expected_kind="overflow",
        build=_for_segment_bounds_saturation,
    ),
)


def run_corpus() -> List[Tuple[BadPlan, PlanAnalysis, bool]]:
    """Analyze every seeded plan; the third element is "was it flagged"."""
    results = []
    for bad in KNOWN_BAD_PLANS:
        plan, facts = bad.build()
        analysis = analyze_plan(plan, facts)
        flagged = any(f.kind == bad.expected_kind for f in analysis.findings)
        results.append((bad, analysis, flagged))
    return results
