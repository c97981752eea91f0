"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.columnar import Column
from repro.workloads import (
    monotone_identifiers,
    runs_column,
    shipping_dates,
    smooth_measure,
    step_with_outliers,
    trending_sensor,
    uniform_random,
    zipfian_categories,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _run_in_threads(fn, jobs, timeout=120):
    """``[fn(job) for job in jobs]`` with every call on its own thread, all
    started together; re-raises the first failure."""
    results = [None] * len(jobs)
    errors = []

    def work(index, job):
        try:
            results[index] = fn(job)
        except BaseException as error:  # re-raised on the calling thread
            errors.append(error)

    threads = [threading.Thread(target=work, args=(index, job))
               for index, job in enumerate(jobs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), "thread did not finish in time"
    if errors:
        raise errors[0]
    return results


@pytest.fixture
def run_in_threads():
    """Callers' own threads — what the engine's locks exist for."""
    return _run_in_threads


@pytest.fixture
def listed_candidates():
    """The advisor's candidate list as PR 21 hard-coded it: four listed
    cascades.  A member-for-member subset of what ``default_candidates``
    generates now, kept so tests can pin that the costing and bound changes
    alone moved no choice."""
    from repro import schemes as s

    def listed(stats, segment_length=128):
        candidates = [s.Identity(), s.NullSuppression(), s.VariableWidth(),
                      s.FrameOfReference(segment_length=segment_length),
                      s.PatchedFrameOfReference(segment_length=segment_length),
                      s.PiecewiseLinear(segment_length=segment_length), s.Delta()]
        if stats.average_run_length >= 1.5:
            candidates += [
                s.RunLengthEncoding(), s.RunPositionEncoding(),
                s.Cascade(s.RunLengthEncoding(),
                          {"values": s.Delta(), "lengths": s.NullSuppression()}),
                s.Cascade(s.RunPositionEncoding(),
                          {"values": s.Delta(), "run_positions": s.Delta()})]
        if 1 < stats.distinct_count and stats.distinct_fraction <= 0.5:
            candidates.append(s.DictionaryEncoding())
        if stats.max_delta_bits <= stats.value_bits:
            candidates += [s.Cascade(s.Delta(narrow=False), {"deltas": s.NullSuppression()}),
                           s.Cascade(s.Delta(narrow=False), {"deltas": s.VariableWidth()})]
        return candidates

    return listed


@pytest.fixture
def small_column():
    """A small, hand-checkable column with runs."""
    return Column([7, 7, 7, 9, 9, 5, 5, 5, 5], name="small")


@pytest.fixture
def empty_column():
    return Column.empty(np.int64, name="empty")


@pytest.fixture
def runs_data():
    """Run-structured data of moderate size."""
    return runs_column(5_000, average_run_length=25.0, num_distinct_values=200, seed=7)


@pytest.fixture
def dates_data():
    """The paper's shipping-dates column (monotone, long runs)."""
    return shipping_dates(10_000, orders_per_day_mean=150.0, seed=11)


@pytest.fixture
def smooth_data():
    """Locally-smooth measure data (FOR territory)."""
    return smooth_measure(6_000, seed=13)


@pytest.fixture
def outlier_data():
    """Step data with injected outliers (PFOR territory)."""
    return step_with_outliers(4_096, segment_length=128, outlier_fraction=0.02, seed=17)


@pytest.fixture
def trending_data():
    """Per-segment trending data (LINEAR territory)."""
    return trending_sensor(4_096, segment_length=128, seed=19)


@pytest.fixture
def categorical_data():
    """Zipf-skewed categorical data (DICT territory)."""
    return zipfian_categories(5_000, num_categories=50, seed=23)


@pytest.fixture
def random_data():
    """Incompressible uniform-random data."""
    return uniform_random(4_000, seed=29)


@pytest.fixture
def monotone_data():
    """Monotone identifiers with small gaps (DELTA territory)."""
    return monotone_identifiers(5_000, seed=31)
