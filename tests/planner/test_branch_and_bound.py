"""The advisor's branch and bound reaches the exhaustive verdict, with fewer
trials and one statistics pass per column chunk."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.columnar.profile import ColumnProfile
from repro.errors import PlanningError
from repro.planner import advise, default_candidates
from repro.planner import advisor as advisor_module
from repro.schemes import DictionaryEncoding, NullSuppression
from repro.storage import Table, compute_statistics
from repro.storage import statistics as statistics_module

ROWS, CHUNK = 131_072, 65_536
INGEST_INDEX = 5  # perf/workloads.py: the ingest workload's place in WORKLOADS


def make_columns(rng, rows):
    """perf/workloads.make_columns: the five columns of the benchmark's tables."""
    return {
        "mode": rng.integers(0, 16, rows) * 5,
        "date": np.sort(rng.integers(0, 2_000, rows)),
        "price": np.cumsum(rng.integers(-4, 5, rows)) + 100_000,
        "qty": rng.integers(0, 1 << 10, rows),
        "oid": np.cumsum(rng.integers(1, 5, rows)),
    }


def exhaustive(column, candidates=None, sample_size=8192, seed=0, **weights):
    """The report an exhaustive evaluation writes: every candidate handed to
    the advisor's own per-candidate function, none walked past."""
    stats = compute_statistics(column)
    if candidates is None:
        candidates = default_candidates(stats)
    sample = advisor_module.sample_of(column, sample_size, seed)
    return advisor_module.AdvisorReport(
        column.name or "<unnamed>", stats,
        [advisor_module.trial(scheme, sample) for scheme in candidates], **weights)


def assert_same_verdict(pruning, full):
    """Same winner and score; every trial the walk made is the exhaustive
    one, and every candidate it skipped could not have been a contender."""
    assert pruning.best.scheme.describe() == full.best.scheme.describe()
    weights = (pruning.size_weight, pruning.speed_weight)
    assert pruning.best.score(*weights) == full.best.score(*weights)
    assert len(pruning.evaluations) == len(full.evaluations)
    threshold = full.ranked()[0].score(*weights) * (1.0 + full.tie_margin)
    for walked, reference in zip(pruning.evaluations, full.evaluations):
        assert walked.scheme.describe() == reference.scheme.describe()
        if walked.trialled:
            assert walked.error == reference.error
            assert walked.bits_per_value == reference.bits_per_value
            assert walked.decompression_cost_per_value == \
                reference.decompression_cost_per_value
        else:
            assert walked.bits_per_value <= reference.bits_per_value
            assert reference.score(*weights) > threshold


def ingest_sweep():
    """PR 15's 200-call sweep: 5 seeds × 4 tables × 5 columns × 2 chunks."""
    for seed in (20180416, 7, 1, 2, 3):
        for slot in range(4):
            table = make_columns(np.random.default_rng([seed, INGEST_INDEX, slot]), ROWS)
            for name, values in table.items():
                for start in range(0, ROWS, CHUNK):
                    yield Column(values[start:start + CHUNK], name=name)


def test_ingest_sweep_matches_exhaustive_evaluation():
    """Over the generated list (three cascades longer per smooth column than
    the listed one) the walk still needs no more trials than it did: 560.
    With DELTA's base apart the four bounded cascades under DELTA store
    within half a bit of each other on ``price`` and ``oid``; the cost floor
    (a prefix sum reads and writes every value, the inner writes every
    delta) rules out all but one or two per chunk: 360 trials in all."""
    trials = 0
    for column in ingest_sweep():
        report = advise(column)
        assert_same_verdict(report, exhaustive(column))
        trials += sum(e.trialled for e in report.evaluations)
    assert trials <= 360


def test_listed_candidates_pick_what_they_picked(listed_candidates):
    """Given the four-cascade candidate list the advisor had before it
    generated cascades, computed costs and bounds reach the exhaustive
    verdict.  With DELTA's base apart ``DELTA∘[deltas=NS]`` takes ``price``
    and ``oid`` from FOR and LINEAR: 6 961 457 bytes over the sweep, where
    the first value stored among the deltas left 9 234 260."""
    winners = {"mode": "DICT", "date": "RLE∘[lengths=NS,values=DELTA]",
               "price": "DELTA∘[deltas=NS]", "qty": "NS", "oid": "DELTA∘[deltas=NS]"}
    stored = trials = 0
    for column in ingest_sweep():
        candidates = listed_candidates(compute_statistics(column))
        report = advise(column, candidates=candidates)
        assert_same_verdict(report, exhaustive(column, candidates))
        assert report.best.scheme.name == winners[column.name]
        stored += report.best.scheme.compress(column).compressed_size_bytes()
        trials += sum(e.trialled for e in report.evaluations)
    assert stored == 6_961_457
    assert trials < 560


@pytest.mark.parametrize("weights", [
    {"size_weight": 0.0, "speed_weight": 1.0},
    {"size_weight": 1.0, "speed_weight": 0.0},
    {"size_weight": 3.0, "speed_weight": 0.01},
])
def test_weights_do_not_change_exactness(weights, dates_data, smooth_data,
                                         categorical_data, random_data):
    for column in (dates_data, smooth_data, categorical_data, random_data):
        assert_same_verdict(advise(column, seed=1, **weights),
                            exhaustive(column, seed=1, **weights))


def test_size_weight_zero_prunes_by_the_cost_floor_alone(dates_data):
    """Unweighted, size bounds rule nothing out: every candidate left
    untrialled has a cost floor above the winner's score."""
    report = advise(dates_data, size_weight=0.0)
    profile = ColumnProfile(advisor_module.sample_of(dates_data).values)
    threshold = report._contender_threshold(report.best.score(0.0, report.speed_weight))
    pruned = [e.scheme for e in report.evaluations if not e.trialled]
    assert pruned
    for scheme in pruned:
        assert report.speed_weight * scheme.decompression_cost_floor(profile) > threshold


def test_single_candidate_is_trialled(smooth_data):
    report = advise(smooth_data, candidates=[NullSuppression()])
    assert [e.trialled for e in report.evaluations] == [True]
    assert report.best.scheme.name == "NS"


def test_all_infeasible_list_trials_everything_and_has_no_best(random_data):
    candidates = [DictionaryEncoding(max_dictionary_fraction=0.01),
                  DictionaryEncoding(max_dictionary_fraction=0.02)]
    report = advise(random_data, candidates=candidates)
    assert all(e.trialled and not e.feasible for e in report.evaluations)
    with pytest.raises(PlanningError):
        _ = report.best


def test_pruned_candidates_stay_in_the_report(dates_data):
    report = advise(dates_data)
    pruned = [e for e in report.evaluations if not e.trialled]
    assert pruned and all(not e.feasible for e in pruned)
    assert [e.scheme.describe() for e in report.evaluations] == \
        [s.describe() for s in default_candidates(compute_statistics(dates_data))]
    assert all(e.trialled for e in report.ranked())
    assert "not trialled" in report.summary()


def test_lossy_scheme_is_rejected_before_it_is_compressed(smooth_data, monkeypatch):
    from repro.schemes import StepFunctionModel

    def refuse(self, column):
        raise AssertionError("a lossy candidate must not be compressed")

    monkeypatch.setattr(StepFunctionModel, "compress", refuse)
    report = advise(smooth_data, candidates=[StepFunctionModel(), NullSuppression()])
    lossy, lossless = report.evaluations
    assert not lossy.feasible and "lossy" in lossy.error
    assert report.best is lossless


def test_each_trialled_candidate_is_compressed_exactly_once(dates_data):
    candidates = default_candidates(compute_statistics(dates_data))
    calls = [0] * len(candidates)
    for index, scheme in enumerate(candidates):
        def counted(column, index=index, compress=scheme.compress):
            calls[index] += 1
            return compress(column)
        scheme.compress = counted
    report = advise(dates_data, candidates=candidates)
    assert calls == [int(e.trialled) for e in report.evaluations]
    assert 0 < sum(calls) < len(candidates)


def test_one_statistics_pass_per_chunk_and_few_trials(monkeypatch):
    """``Table.from_pydict(schemes="auto")``: the advisor and the chunk's
    zone map share one statistics scan, and one benchmark table (five
    65 536-row columns, 58 candidates) needs at most 12 trials."""
    scans, trials = [], []
    scan, trial = statistics_module._from_profile, advisor_module.trial
    monkeypatch.setattr(statistics_module, "_from_profile",
                        lambda column: scans.append(len(column)) or scan(column))
    monkeypatch.setattr(advisor_module, "trial",
                        lambda scheme, sample: trials.append(scheme) or trial(scheme, sample))
    data = make_columns(np.random.default_rng([20180416, INGEST_INDEX, 0]), CHUNK)
    table = Table.from_pydict(data, schemes="auto", chunk_size=CHUNK)
    assert scans == [CHUNK] * len(data)
    assert len(trials) <= 12
    candidates = 0
    for name, values in data.items():
        chunk, = table.column(name).chunks
        fresh = compute_statistics(Column(values))
        assert chunk.statistics == fresh
        candidates += len(default_candidates(fresh))
    assert candidates == 58
