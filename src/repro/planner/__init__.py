"""Compression planning: cost model, scheme advisor, partial-decompression rules.

The planner turns the paper's enlarged scheme space — stand-alone schemes
plus the composites its decomposition view suggests — into per-column
decisions (:mod:`repro.planner.advisor`), and decides how far a query needs
to decompress at all (:mod:`repro.planner.partial`).
"""

from .advisor import (
    AdvisorReport,
    CandidateEvaluation,
    advise,
    choose_scheme,
    default_candidates,
)
from .cost_model import decompression_cost
from .partial import INTENTS, PartialPlan, plan_for_intent

__all__ = [
    "AdvisorReport",
    "CandidateEvaluation",
    "advise",
    "choose_scheme",
    "default_candidates",
    "decompression_cost",
    "INTENTS",
    "PartialPlan",
    "plan_for_intent",
]
