"""Partial-decompression planning.

Lessons-learned 1 of the paper: partial decompression of one scheme's
compressed form often *is* another scheme's compressed form, trading
compression ratio for decompression ease — and since decompression is made
of query operators, a query may not need to decompress at all.

This module decides, for a (query intent, compressed form) pair, how far to
decompress:

* ``"none"``      — answer directly on the compressed form (e.g. SUM over
  qualifying rows of an RLE/RPE column can stay in the run domain);
* ``"partial"``   — execute a prefix of the decompression plan and answer on
  the intermediate representation (e.g. convert RLE to RPE by one prefix
  sum to enable cheap positional access);
* ``"full"``      — materialise the values and proceed conventionally.

The decisions are intentionally rule-based and transparent: each returns a
:class:`PartialPlan` naming the strategy, the plan fragment to run, and the
reasoning, which the E10 benchmark prints alongside its measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..columnar.plan import Plan
from ..errors import PlanningError
from ..schemes.base import CompressedForm, CompressionScheme
from ..schemes.rle import build_rle_decompression_plan

#: Query intents the partial planner understands.
INTENTS = ("full_scan", "range_aggregate", "point_lookup", "range_filter")


@dataclass
class PartialPlan:
    """A decision about how far to decompress for a given query intent.

    Attributes
    ----------
    strategy:
        ``"none"``, ``"partial"`` or ``"full"``.
    plan:
        The operator-plan fragment to execute (``None`` when no columnar
        work is needed, e.g. run-domain aggregation handled by the pushdown
        kernels).
    stop_after:
        When *plan* is the scheme's full decompression plan, the binding to
        stop at (partial evaluation); ``None`` to run it to completion.
    reason:
        One-line human-readable justification (surfaced by benchmarks).
    """

    strategy: str
    plan: Optional[Plan]
    stop_after: Optional[str]
    reason: str

    def execute(self, scheme: CompressionScheme, form: CompressedForm):
        """Run the decided plan fragment through the compiled executor.

        Partial evaluation no longer relies on the interpreter's
        ``stop_after`` early-exit: the plan is *truncated* at the stop
        binding, and the truncated plan is optimized, compiled and cached in
        its own right (:mod:`repro.columnar.compile`), so e.g. "Algorithm 1
        up to the prefix sum" costs one compilation ever, then pure
        execution.  Returns the materialised column, or ``None`` for the
        ``"none"`` strategy (the pushdown kernels answer without any
        columnar work).
        """
        if self.plan is None:
            return None
        from ..columnar.compile import compiled_partial_plan, compiled_plan

        if self.stop_after is not None:
            compiled = compiled_partial_plan(self.plan, self.stop_after)
        else:
            compiled = compiled_plan(self.plan)
        return compiled.run(scheme.plan_inputs(form))


def plan_for_intent(scheme: CompressionScheme, form: CompressedForm,
                    intent: str) -> PartialPlan:
    """Decide a decompression strategy for *intent* over *form*.

    The rules encode the paper's examples:

    * run-compressed columns (RLE/RPE) answer range aggregates in the run
      domain and point lookups via RPE positions — RLE first converts itself
      to RPE by executing exactly the first step of Algorithm 1;
    * FOR-family columns answer range filters via segment bounds;
    * anything else, or a full scan, decompresses fully.
    """
    if intent not in INTENTS:
        raise PlanningError(f"unknown query intent {intent!r}; known: {INTENTS}")

    scheme_name = form.scheme

    if intent == "full_scan":
        return PartialPlan("full", scheme.decompression_plan(form), None,
                           "a full scan needs every value materialised")

    if scheme_name in ("RLE", "RPE"):
        if intent in ("range_aggregate", "range_filter"):
            return PartialPlan(
                "none", None, None,
                "run-compressed data answers range predicates and aggregates in "
                "the run domain (one verdict per run, lengths as weights)",
            )
        if intent == "point_lookup":
            if scheme_name == "RPE":
                return PartialPlan(
                    "none", None, None,
                    "RPE stores run end positions; a point lookup is one binary search",
                )
            rle_plan = build_rle_decompression_plan()
            return PartialPlan(
                "partial", rle_plan, "run_positions",
                "RLE converts to RPE by executing only Algorithm 1's first step "
                "(prefix sum of lengths); lookups then binary-search the positions",
            )

    if scheme_name in ("FOR", "PFOR", "STEPFUNCTION") and intent == "range_filter":
        return PartialPlan(
            "none", None, None,
            "segment reference bounds accept/reject whole segments; only "
            "straddling segments decode their offsets",
        )

    if scheme_name == "DICT" and intent in ("range_filter", "range_aggregate"):
        return PartialPlan(
            "none", None, None,
            "an order-preserving dictionary rewrites the range onto codes; the "
            "values column is never reconstructed",
        )

    return PartialPlan("full", scheme.decompression_plan(form), None,
                       f"no partial strategy applies to {scheme_name} for {intent}")
