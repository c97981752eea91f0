"""End-to-end integration tests: workload → advisor → storage → queries."""

import numpy as np
import pytest
from repro.api import col, dataset
from repro.planner import advise, choose_scheme
from repro.schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    NullSuppression,
    RunLengthEncoding,
    make_scheme,
)
from repro.storage import Table
from repro.workloads import generate_orders_workload, shipping_dates


@pytest.fixture(scope="module")
def workload():
    return generate_orders_workload(num_orders=4_000, num_days=500, seed=10)


@pytest.fixture(scope="module")
def compressed_lineitem(workload):
    """The lineitem table stored with advisor-chosen per-chunk schemes."""
    return Table.from_columns(
        workload.lineitem,
        schemes={name: choose_scheme for name in workload.lineitem},
        chunk_size=8192,
    )


class TestAdvisorDrivenStorage:
    def test_table_compresses_substantially(self, compressed_lineitem):
        assert compressed_lineitem.compression_ratio() > 2.0

    def test_date_column_gets_run_based_scheme(self, compressed_lineitem):
        encodings = set(compressed_lineitem.column("ship_date").encodings())
        assert any(e.startswith(("RLE", "RPE")) for e in encodings)

    def test_every_column_materialises_back_exactly(self, compressed_lineitem, workload):
        for name, original in workload.lineitem.items():
            assert compressed_lineitem.column(name).materialize().equals(original), name

    def test_summary_renders(self, compressed_lineitem):
        assert "ship_date" in compressed_lineitem.summary()


class TestQueriesOnCompressedData:
    def test_range_aggregate_matches_uncompressed_execution(self, compressed_lineitem,
                                                            workload):
        plain = Table.from_columns(workload.lineitem, chunk_size=8192)
        lo = workload.date_range.start + 100
        hi = workload.date_range.start + 200

        def run(table):
            return (dataset(table)
                    .filter(col("ship_date").between(lo, hi))
                    .agg(col("price").sum(), col("quantity").mean())
                    .collect())

        compressed_result = run(compressed_lineitem)
        plain_result = run(plain)
        assert compressed_result.scalars["sum(price)"] == plain_result.scalars["sum(price)"]
        assert compressed_result.scalars["mean(quantity)"] == \
            pytest.approx(plain_result.scalars["mean(quantity)"])
        assert compressed_result.row_count == plain_result.row_count

    def test_group_by_on_compressed(self, compressed_lineitem, workload):
        result = (dataset(compressed_lineitem)
                  .group_by("discount")
                  .agg(col("price").sum())
                  .collect())
        data = workload.lineitem
        totals = {int(k): int(v) for k, v in zip(result.columns["discount"].values,
                                                 result.columns["sum(price)"].values)}
        for code in np.unique(data["discount"].values):
            expected = int(data["price"].values[data["discount"].values == code].sum())
            assert totals[int(code)] == expected


class TestPaperNarrativeEndToEnd:
    def test_shipping_dates_composition_story(self):
        """The §I story: compose RLE with DELTA on the run values and win big."""
        dates = shipping_dates(100_000, orders_per_day_mean=800, seed=3)
        report = advise(dates, seed=0)
        best = report.best.scheme
        assert "∘" in best.name
        baseline = min(RunLengthEncoding().compression_ratio(dates),
                       Delta().compression_ratio(dates))
        assert best.compression_ratio(dates) > 3 * baseline

    def test_partial_decompression_story(self):
        """The Lessons-1 story: an aggregate over RLE data never materialises rows."""
        dates = shipping_dates(50_000, orders_per_day_mean=500, seed=4)
        table = Table.from_columns({"d": dates}, schemes={"d": RunLengthEncoding()},
                                   chunk_size=8192)
        lo, hi = int(dates.min()) + 5, int(dates.min()) + 25
        result = dataset(table).filter(col("d").between(lo, hi)).agg(col("d").sum()).collect()
        mask = (dates.values >= lo) & (dates.values <= hi)
        assert result.scalars["sum(d)"] == int(dates.values[mask].sum())
        assert result.scan_stats.chunks_decompressed == 0
        assert result.scan_stats.chunks_pushed_down > 0

    def test_registry_reconstructs_advisor_choice(self):
        """Scheme choices survive a name/parameters round trip (as a catalog would store them)."""
        dates = shipping_dates(20_000, orders_per_day_mean=300, seed=5)
        chosen = advise(dates, seed=0).best.scheme
        if isinstance(chosen, Cascade):
            rebuilt = Cascade(
                make_scheme(chosen.outer.name, **chosen.outer.parameters()),
                {name: make_scheme(inner.name, **inner.parameters())
                 for name, inner in chosen.inner.items()},
            )
        else:
            rebuilt = make_scheme(chosen.name, **chosen.parameters())
        assert rebuilt.name == chosen.name
        assert rebuilt.decompress(rebuilt.compress(dates)).equals(dates)

    def test_mixed_encodings_in_one_table(self, workload):
        """Different columns of one table can use wildly different schemes and still agree."""
        table = Table.from_columns(
            workload.lineitem,
            schemes={
                "ship_date": Cascade(RunLengthEncoding(), {"values": Delta()}),
                "discount": DictionaryEncoding(),
                "quantity": NullSuppression(),
                "order_id": Delta(),
            },
            chunk_size=16384,
        )
        lo = workload.date_range.start + 50
        hi = workload.date_range.start + 300
        result = (dataset(table)
                  .filter(col("ship_date").between(lo, hi))
                  .agg(col("quantity").sum())
                  .collect())
        data = workload.lineitem
        mask = (data["ship_date"].values >= lo) & (data["ship_date"].values <= hi)
        assert result.scalars["sum(quantity)"] == int(data["quantity"].values[mask].sum())
