"""Tests for the compiled plans the engine runs on compressed forms."""

import numpy as np
import pytest

from repro.api import col
from repro.engine import ExecutionContext, kernels, scan_table
from repro.schemes import RunLengthEncoding, RunPositionEncoding
from repro.storage.table import Table
from repro.workloads import runs_column


@pytest.fixture
def runs(runs_data):
    return runs_data


class TestRunPositions:
    def test_rle_and_rpe_gather_plans_find_the_same_runs(self, runs):
        """RLE's gather plan searches ``PrefixSum(lengths)``, RPE's its stored
        run ends: the same ends, so the same run for every position."""
        positions = np.arange(len(runs))
        found = {}
        for scheme in (RunLengthEncoding(narrow_lengths=False),
                       RunPositionEncoding(narrow_positions=False)):
            form = scheme.compress(runs)
            search = kernels.run_domain_plan(scheme, form, kernels.KERNEL_GATHER)
            assert [step.op for step in search.plan.steps][-1] == "SearchSorted"
            found[scheme.name] = search.run(kernels.query_inputs(scheme, form, positions))
        assert found["RLE"].equals(found["RPE"])
        assert found["RLE"].values[-1] == form.constituent_length("values") - 1


class TestScanCacheAccounting:
    def test_scan_reports_plan_cache_reuse(self):
        column = runs_column(50_000, average_run_length=4.0,
                             num_distinct_values=5000, seed=21)
        table = Table.from_columns({"v": column}, schemes={"v": RunLengthEncoding()},
                                   chunk_size=4096)
        lo = int(np.quantile(column.values, 0.2))
        hi = int(np.quantile(column.values, 0.8))
        # Disable pushdown so every chunk actually decompresses.
        scan = scan_table(table, [col("v").between(lo, hi)],
                          context=ExecutionContext(use_pushdown=False,
                                                   use_zone_maps=False))
        selection, stats = scan.selection, scan.stats
        assert stats.chunks_decompressed == stats.chunks_total > 1
        # All chunks share one compiled plan: at most one miss.
        assert stats.plan_cache_hits >= stats.chunks_total - 1
        mask = (column.values >= lo) & (column.values <= hi)
        assert len(selection) == int(mask.sum())
