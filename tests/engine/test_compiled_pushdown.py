"""Tests for partial evaluation through the compiled executor in the engine."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.engine import ExecutionContext, scan_table
from repro.engine.predicates import Between
from repro.engine.kernels import run_positions_of
from repro.planner.partial import plan_for_intent
from repro.schemes import RunLengthEncoding, RunPositionEncoding
from repro.storage.table import Table
from repro.workloads import runs_column


@pytest.fixture
def runs(runs_data):
    return runs_data


class TestRunPositions:
    def test_rle_positions_match_rpe(self, runs):
        rle_form = RunLengthEncoding(narrow_lengths=False).compress(runs)
        rpe_form = RunPositionEncoding(narrow_positions=False).compress(runs)
        assert np.array_equal(run_positions_of(rle_form),
                              run_positions_of(rpe_form))

class TestPartialPlanExecution:
    def test_rle_point_lookup_strategy_runs_one_step(self, runs):
        scheme = RunLengthEncoding()
        form = scheme.compress(runs)
        decision = plan_for_intent(scheme, form, "point_lookup")
        assert decision.strategy == "partial"
        positions = decision.execute(scheme, form)
        assert positions.to_pylist() == \
            np.cumsum(form.constituent("lengths").values).tolist()

    def test_full_strategy_executes_whole_plan(self, runs):
        scheme = RunLengthEncoding()
        form = scheme.compress(runs)
        decision = plan_for_intent(scheme, form, "full_scan")
        assert decision.execute(scheme, form).equals(
            Column(runs.values.astype(np.int64)))

    def test_none_strategy_returns_none(self, runs):
        scheme = RunLengthEncoding()
        form = scheme.compress(runs)
        decision = plan_for_intent(scheme, form, "range_aggregate")
        assert decision.strategy == "none"
        assert decision.execute(scheme, form) is None


class TestScanCacheAccounting:
    def test_scan_reports_plan_cache_reuse(self):
        column = runs_column(50_000, average_run_length=4.0,
                             num_distinct_values=5000, seed=21)
        table = Table.from_columns({"v": column}, schemes={"v": RunLengthEncoding()},
                                   chunk_size=4096)
        lo = int(np.quantile(column.values, 0.2))
        hi = int(np.quantile(column.values, 0.8))
        # Disable pushdown so every chunk actually decompresses.
        scan = scan_table(table, [Between("v", lo, hi)],
                          context=ExecutionContext(use_pushdown=False,
                                                   use_zone_maps=False))
        selection, stats = scan.selection, scan.stats
        assert stats.chunks_decompressed == stats.chunks_total > 1
        # All chunks share one compiled plan: at most one miss.
        assert stats.plan_cache_hits >= stats.chunks_total - 1
        mask = (column.values >= lo) & (column.values <= hi)
        assert len(selection) == int(mask.sum())
