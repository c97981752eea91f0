"""End-to-end tests for compressed-domain execution (the PR's acceptance
scenario): selective filter+aggregate over a FOR/DICT/RLE-cascade table runs
in the compressed domain, bit-identically to the decompress-then-compute
path, with the new ScanStats counters accounting for the avoided work."""

import numpy as np
import pytest

from repro.api import col, dataset
from repro.engine import ExecutionContext, scan_table
from repro.errors import QueryError
from repro.planner.advisor import AdvisorReport, CandidateEvaluation, advise
from repro.columnar import Column
from repro.schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage import Table


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    n = 40_000
    return {
        "mode": (rng.integers(0, 16, n) * 5).astype(np.int64),
        "date": np.sort(rng.integers(0, 500, n)).astype(np.int64),
        "price": (np.cumsum(rng.integers(-3, 4, n)) + 10_000).astype(np.int64),
        "qty": rng.integers(0, 512, n).astype(np.int64),
    }


@pytest.fixture(scope="module")
def table(data):
    return Table.from_pydict(
        data,
        schemes={
            "mode": DictionaryEncoding(),
            "date": Cascade(RunLengthEncoding(),
                            {"values": Delta(), "lengths": NullSuppression()}),
            "price": FrameOfReference(segment_length=128),
            "qty": NullSuppression(),
        },
        chunk_size=4_096,
    )


def assert_identical_results(left, right):
    assert left.scalars == right.scalars
    assert left.row_count == right.row_count
    assert sorted(left.columns) == sorted(right.columns)
    for name in left.columns:
        assert left.columns[name].dtype == right.columns[name].dtype, name
        assert np.array_equal(left.columns[name].values,
                              right.columns[name].values), name


class TestAcceptanceScenario:
    def test_selective_filter_sum_runs_compressed_and_bit_identical(
            self, table, data):
        query = (dataset(table)
                 .filter(col("mode").between(20, 25)
                         & col("date").between(100, 160))
                 .agg(col("price").sum().alias("total"),
                      col("price").min().alias("lowest")))
        compressed = query.collect()
        baseline = query.without_pushdown().without_compressed_execution() \
            .collect()
        assert_identical_results(compressed, baseline)

        mask = ((data["mode"] >= 20) & (data["mode"] <= 25)
                & (data["date"] >= 100) & (data["date"] <= 160))
        assert compressed.scalars["total"] == int(data["price"][mask].sum())
        assert compressed.scalars["lowest"] == int(data["price"][mask].min())

        stats = compressed.scan_stats
        assert stats.rows_computed_compressed > 0
        assert stats.bytes_decompressed_saved > 0
        assert stats.chunks_pushed_down > 0
        base_stats = baseline.scan_stats
        assert base_stats.rows_computed_compressed == 0
        assert base_stats.bytes_decompressed_saved == 0

    def test_cascaded_column_gets_pushdown_for_the_first_time(self, table):
        """A Between over the RLE∘DELTA cascade pushes down (pre-capability
        dispatch, composite forms always decompressed)."""
        result = scan_table(table, [col("date").between(100, 160)])
        assert result.stats.chunks_pushed_down > 0
        assert result.stats.rows_computed_compressed > 0

    def test_grouped_aggregate_on_dict_codes(self, table, data):
        query = (dataset(table)
                 .filter(col("date").between(50, 400))
                 .group_by("mode")
                 .agg(col("price").sum().alias("total"),
                      col("qty").max().alias("peak")))
        compressed = query.collect()
        baseline = query.without_compressed_execution().collect()
        assert_identical_results(compressed, baseline)
        assert compressed.scan_stats.rows_computed_compressed > 0

    def test_empty_selection_raises_like_materialised_path(self, table):
        query = (dataset(table)
                 .filter(col("mode").between(1, 2))  # between dict values
                 .agg(col("price").sum()))
        with pytest.raises(QueryError, match="zero rows"):
            query.collect()
        with pytest.raises(QueryError, match="zero rows"):
            query.without_compressed_execution().collect()

    def test_count_star_and_count_column(self, table, data):
        query = (dataset(table)
                 .filter(col("qty").between(100, 200))
                 .agg(col("price").count().alias("c1")))
        compressed = query.collect()
        baseline = query.without_compressed_execution().collect()
        assert_identical_results(compressed, baseline)
        expected = int(((data["qty"] >= 100) & (data["qty"] <= 200)).sum())
        assert compressed.scalars["c1"] == expected

    def test_explain_reports_execution_domains(self, table):
        query = (dataset(table)
                 .filter(col("mode").between(20, 25))
                 .agg(col("price").sum().alias("total")))
        plan = query.explain()
        assert "agg total [compressed]" in plan
        assert "[native, compressed" in plan
        baseline_plan = query.without_compressed_execution().explain()
        assert "agg total [decompress]" in baseline_plan

    def test_mean_falls_back_but_matches(self, table, data):
        query = (dataset(table)
                 .filter(col("date").between(100, 160))
                 .agg(col("price").mean().alias("m")))
        compressed = query.collect()
        baseline = query.without_compressed_execution().collect()
        assert compressed.scalars == baseline.scalars


class TestScanGatherCompressed:
    def test_sparse_materialisation_avoids_decompression(self, table, data):
        """A selective predicate plus projection gathers the projected
        columns positionally: fewer decompressions than the baseline."""
        fast = scan_table(table, [col("mode").between(35, 35)],
                          materialize=["price", "qty"])
        slow = scan_table(
            table, [col("mode").between(35, 35)], materialize=["price", "qty"],
            context=ExecutionContext(
                use_pushdown=False, use_compressed_exec=False))
        assert np.array_equal(fast.selection.positions.values,
                              slow.selection.positions.values)
        for name in ("price", "qty"):
            assert np.array_equal(fast.columns[name].values,
                                  slow.columns[name].values)
        assert fast.stats.chunks_decompressed < slow.stats.chunks_decompressed
        assert fast.stats.bytes_decompressed_saved > 0


class TestAdvisorPushdownTieBreak:
    def test_near_tie_breaks_toward_pushdown_capable(self):
        report = AdvisorReport(column_name="c", statistics=None)
        slow_but_capable = CandidateEvaluation(
            RunLengthEncoding(), bits_per_value=10.05,
            decompression_cost_per_value=0.0, pushdown_capable=True)
        fast_but_opaque = CandidateEvaluation(
            Delta(), bits_per_value=10.0,
            decompression_cost_per_value=0.0, pushdown_capable=False)
        report.evaluations = [fast_but_opaque, slow_but_capable]
        assert report.best is slow_but_capable

    def test_clear_winner_still_wins_without_capability(self):
        report = AdvisorReport(column_name="c", statistics=None)
        capable = CandidateEvaluation(
            RunLengthEncoding(), bits_per_value=20.0,
            decompression_cost_per_value=0.0, pushdown_capable=True)
        winner = CandidateEvaluation(
            Delta(), bits_per_value=10.0,
            decompression_cost_per_value=0.0, pushdown_capable=False)
        report.evaluations = [capable, winner]
        assert report.best is winner

    def test_advise_records_capability(self):
        column = Column(np.repeat(np.arange(50, dtype=np.int64), 10))
        # Weighing neither size nor speed, no bound rules a candidate out, so
        # the report holds a trial (and its capability flag) for every scheme.
        report = advise(column, size_weight=0.0, speed_weight=0.0)
        by_scheme = {e.scheme.describe(): e for e in report.evaluations
                     if e.feasible}
        assert any(e.pushdown_capable for e in by_scheme.values())
        rle = next(e for name, e in by_scheme.items() if name.startswith("RLE("))
        assert rle.pushdown_capable
        delta = next(e for name, e in by_scheme.items() if name.startswith("DELTA("))
        assert not delta.pushdown_capable
