"""Compression planning: cost model and scheme advisor.

The planner turns the paper's enlarged scheme space — stand-alone schemes
plus the composites its decomposition view suggests — into per-column
decisions (:mod:`repro.planner.advisor`).  How far a query decompresses is
not planned here: a query step appended to a decompression plan is what the
plan optimizer rewrites (:func:`repro.engine.kernels.query_plan`).
"""

from .advisor import (
    AdvisorReport,
    CandidateEvaluation,
    advise,
    choose_scheme,
    default_candidates,
)
from .cost_model import decompression_cost

__all__ = [
    "AdvisorReport",
    "CandidateEvaluation",
    "advise",
    "choose_scheme",
    "default_candidates",
    "decompression_cost",
]
