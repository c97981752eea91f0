"""The compression advisor: choose a scheme (or cascade) per column.

Given a column (or a sample of it), the advisor:

1. takes the column's statistics, once (:mod:`repro.storage.statistics`);
2. draws up a candidate list — the stand-alone schemes plus the cascades one
   composition rule generates over the decomposing ones (:func:`cascades_of`:
   RLE∘DELTA-on-values for sorted runs, DELTA under every width-, frame-,
   patch- or dictionary-based inner for smooth data);
3. asks every candidate for a lower bound on its stored size — the paper's
   decompositions make sizes closed-form in a few statistics, so schemes
   compute it from the sample's profile without compressing
   (:meth:`~repro.schemes.base.CompressionScheme.stored_bytes_bound`) — and
   for a floor under its decompression cost (the values its plan's steps
   must touch: :meth:`~repro.schemes.base.CompressionScheme.decompression_cost_floor`);
4. walks the candidates in ascending bound, trial-compressing each and
   costing its compiled decompression plan (computed from the plan's
   operator weights and lengths, not executed), and skips every one whose
   bound alone exceeds the best score so far: branch and bound, so the ranked
   :class:`AdvisorReport` names the winner an exhaustive evaluation would,
   and still lists the candidates that needed no trial.

The thing the paper contributes is the *space of candidates*, in particular
the composites; the advisor's job is to search that space cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..columnar.column import Column
from ..columnar.profile import ColumnProfile
from ..engine import kernels
from ..errors import CompressionError, PlanningError
from ..schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    Identity,
    NullSuppression,
    PatchedFrameOfReference,
    PiecewiseLinear,
    RunLengthEncoding,
    RunPositionEncoding,
    VariableWidth,
)
from ..schemes.base import CompressionScheme
from ..storage.statistics import ColumnStatistics, compute_statistics
from .cost_model import decompression_cost


@dataclass
class CandidateEvaluation:
    """One candidate scheme's performance on the sample.  One that its bound
    ruled out is kept with ``trialled=False``: ``bits_per_value`` is then its
    size bound, and no decompression cost was measured."""

    scheme: CompressionScheme
    bits_per_value: float = float("inf")
    decompression_cost_per_value: float = float("inf")
    error: Optional[str] = None
    #: Whether a range-filter kernel exists for the trial-compressed sample
    #: form (:func:`repro.engine.kernels.supports`), i.e. range predicates
    #: evaluate in the compressed domain.
    #: Query-time cost the size/decompression pair cannot see; used to break
    #: near-ties in the ranking.
    pushdown_capable: bool = False
    trialled: bool = True

    @property
    def feasible(self) -> bool:
        """Trialled and compressed without error, i.e. it has a score."""
        return self.trialled and self.error is None

    def score(self, size_weight: float = 1.0, speed_weight: float = 0.25) -> float:
        if not self.feasible:
            return float("inf")
        return (
            size_weight * self.bits_per_value + speed_weight * self.decompression_cost_per_value
        )


@dataclass
class AdvisorReport:
    """The advisor's ranked verdict for one column."""

    column_name: str
    statistics: ColumnStatistics
    evaluations: List[CandidateEvaluation] = field(default_factory=list)
    size_weight: float = 1.0
    speed_weight: float = 0.25
    #: Relative score margin within which two candidates count as tied; ties
    #: break toward pushdown-capable schemes (query-time cost the
    #: size/decompression score ignores).
    tie_margin: float = 0.02

    @property
    def best(self) -> CandidateEvaluation:
        """The winning candidate: lowest score, with near-ties (within
        ``tie_margin``, relative) broken toward pushdown-capable schemes.

        The size/decompression score is deliberately blind to *query-time*
        cost; when it cannot separate two schemes, the one whose forms can
        evaluate predicates without decompressing is strictly better to
        query and wins the tie.
        """
        feasible = [e for e in self.evaluations if e.feasible]
        if not feasible:
            raise PlanningError(f"no feasible scheme for column {self.column_name!r}")
        scores = {id(e): e.score(self.size_weight, self.speed_weight) for e in feasible}
        threshold = self._contender_threshold(min(scores.values()))
        contenders = [e for e in feasible if scores[id(e)] <= threshold]
        return min(contenders, key=lambda e: (not e.pushdown_capable, scores[id(e)]))

    def _contender_threshold(self, best_score: float) -> float:
        """The highest score that still ties with *best_score*."""
        return best_score * (1.0 + self.tie_margin) + 1e-12

    def ranked(self) -> List[CandidateEvaluation]:
        """All feasible evaluations, best first (pushdown breaks exact ties)."""
        feasible = [e for e in self.evaluations if e.feasible]
        return sorted(
            feasible,
            key=lambda e: (e.score(self.size_weight, self.speed_weight), not e.pushdown_capable),
        )

    def summary(self) -> str:
        """A small text table: the ranking (scheme, bits/value, cost), then
        the candidates whose size bound made a trial unnecessary."""
        lines = [
            f"Advisor report for {self.column_name!r} "
            f"(n={self.statistics.count}, runs={self.statistics.run_count}, "
            f"distinct={self.statistics.distinct_count})"
        ]
        for evaluation in self.ranked():
            lines.append(
                f"  {evaluation.scheme.describe():55s} "
                f"{evaluation.bits_per_value:8.2f} bits/value   "
                f"cost {evaluation.decompression_cost_per_value:8.2f}   "
                f"{'pushdown' if evaluation.pushdown_capable else '-'}"
            )
        pruned = [e for e in self.evaluations if not e.trialled]
        for evaluation in sorted(pruned, key=lambda e: e.bits_per_value):
            lines.append(
                f"  {evaluation.scheme.describe():55s} "
                f"{evaluation.bits_per_value:8.2f} bits/value   (lower bound; not trialled)"
            )
        return "\n".join(lines)


#: The one inner scheme a *short* constituent takes (run values, lengths,
#: positions: a few per run).  Their inners are near-ties that size bounds
#: cannot separate, so searching them would trial dozens of forms for
#: fractions of a bit; the paper's own examples fix them.
SHORT_INNER = {"values": Delta, "lengths": NullSuppression, "run_positions": Delta}


def bounded_schemes(segment_length: int = 128) -> List[CompressionScheme]:
    """The stand-alone integer schemes that state a size bound."""
    frame = FrameOfReference(segment_length=segment_length)
    patched = PatchedFrameOfReference(segment_length=segment_length)
    return [NullSuppression(), VariableWidth(), frame, patched, DictionaryEncoding()]


def cascades_of(outer: CompressionScheme, segment_length: int = 128) -> List[Cascade]:
    """Every cascade over *outer* the one composition rule generates: a short
    constituent keeps its fixed inner, a *full-length* one (DELTA's ``deltas``:
    as long as the column, so its inner decides the bytes) takes each of the
    :func:`bounded_schemes`, gated by its bound on the constituent's profile."""
    names = outer.expected_constituents()
    inners = [{name: SHORT_INNER[name]() for name in names if name in SHORT_INNER}]
    for name in names:
        if name not in SHORT_INNER:
            full_length = bounded_schemes(segment_length)
            inners = [{**inner, name: scheme} for inner in inners for scheme in full_length]
    return [Cascade(outer, inner) for inner in inners]


def default_candidates(
    stats: ColumnStatistics, segment_length: int = 128
) -> List[CompressionScheme]:
    """The candidate list for a column with the given statistics: the
    stand-alone schemes, and :func:`cascades_of` the decomposing ones.
    Statistics prune obvious non-starters (RLE when there are no runs, DICT
    when nearly every value is distinct, DELTA's cascades when differences
    are wider than values)."""
    *bounded, dictionary = bounded_schemes(segment_length)
    candidates = [Identity(), *bounded, PiecewiseLinear(segment_length=segment_length), Delta()]
    if stats.average_run_length >= 1.5:
        # The paper's §I example: runs whose values themselves form a smooth
        # (e.g. monotone) sequence compress much further when the run values
        # are DELTA'd and the lengths narrowed.
        candidates += [RunLengthEncoding(), RunPositionEncoding()]
        candidates += cascades_of(RunLengthEncoding()) + cascades_of(RunPositionEncoding())
    if 1 < stats.distinct_count and stats.distinct_fraction <= 0.5:
        candidates.append(dictionary)
    if stats.max_delta_bits <= stats.value_bits:
        candidates += cascades_of(Delta(narrow=False), segment_length)
    return candidates


def trial(scheme: CompressionScheme, sample: Column) -> CandidateEvaluation:
    """Compress *sample* with *scheme* and cost its compiled decompression
    plan: one candidate's exact evaluation."""
    if not scheme.is_lossless:
        return CandidateEvaluation(scheme, error="lossy model schemes are not stand-alone")
    try:
        form = scheme.compress(sample)
        capable = kernels.supports(scheme, form, kernels.KERNEL_FILTER_RANGE)
        cost = decompression_cost(scheme, form)
    except CompressionError as exc:
        return CandidateEvaluation(scheme, error=str(exc))
    return CandidateEvaluation(scheme, form.bits_per_value(), cost, pushdown_capable=capable)


def sample_of(column: Column, sample_size: int = 8192, seed: int = 0) -> Column:
    """The contiguous stretch of *column* the candidates are trialled on."""
    if len(column) <= sample_size:
        return column
    start = int(np.random.default_rng(seed).integers(0, len(column) - sample_size + 1))
    return Column(column.values[start : start + sample_size], name=column.name)


def advise(
    column: Column,
    candidates: Optional[Sequence[CompressionScheme]] = None,
    sample_size: int = 8192,
    size_weight: float = 1.0,
    speed_weight: float = 0.25,
    seed: int = 0,
) -> AdvisorReport:
    """Rank candidate schemes for *column* and return an :class:`AdvisorReport`.

    A contiguous sample (plus the column's head) of about *sample_size*
    values stands for the column; contiguity matters because run- and
    locality-exploiting schemes would be destroyed by random-row sampling.

    Candidates are visited in ascending ``size_weight × size bound +
    speed_weight × cost floor``, and one whose figure exceeds what still ties
    with the best score trialled is not trialled: both halves being lower
    bounds, it could not have been a contender, so ``best`` is the exhaustive
    answer.  Schemes that state neither bound (0) are always trialled.
    """
    if len(column) == 0:
        raise PlanningError("cannot advise on an empty column")
    stats = compute_statistics(column)
    if candidates is None:
        candidates = default_candidates(stats)

    sample = sample_of(column, sample_size, seed)
    report = AdvisorReport(
        column_name=column.name or "<unnamed>",
        statistics=stats,
        size_weight=size_weight,
        speed_weight=speed_weight,
    )
    sizes = floors = [0.0] * len(candidates)
    if np.issubdtype(sample.dtype, np.integer):  # the only columns bounds are stated for
        profile = ColumnProfile(sample.values)
        sizes = [8.0 * scheme.stored_bytes_bound(profile) / len(sample) for scheme in candidates]
        floors = [size_weight * size + speed_weight * scheme.decompression_cost_floor(profile)
                  for scheme, size in zip(candidates, sizes)]
    evaluations: List[Optional[CandidateEvaluation]] = [None] * len(candidates)
    best_score = float("inf")
    for index in sorted(range(len(candidates)), key=floors.__getitem__):
        if floors[index] > report._contender_threshold(best_score):
            evaluations[index] = CandidateEvaluation(
                candidates[index], sizes[index], trialled=False
            )
        else:
            evaluations[index] = trial(candidates[index], sample)
            best_score = min(best_score, evaluations[index].score(size_weight, speed_weight))
    report.evaluations = evaluations
    return report


def choose_scheme(column: Column, **advise_kwargs) -> CompressionScheme:
    """Convenience wrapper: return only the best scheme for *column*.

    This is the callable the storage layer accepts as a per-chunk scheme
    chooser: ``StoredColumn.from_column(col, scheme=choose_scheme)``.
    """
    return advise(column, **advise_kwargs).best.scheme
