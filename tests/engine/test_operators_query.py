"""Tests for the physical operators and the queries built on them."""

import numpy as np
import pytest

from repro.api import col, count, dataset
from repro.columnar import Column
from repro.engine import (
    Between,
    Equals,
    ExecutionContext,
    aggregate,
    grouped_reduce,
    hash_join,
    scan_table,
)
from repro.errors import QueryError
from repro.schemes import DictionaryEncoding, FrameOfReference, NullSuppression, RunLengthEncoding
from repro.storage import Table
from repro.workloads import generate_orders_workload


@pytest.fixture(scope="module")
def workload():
    return generate_orders_workload(num_orders=3_000, num_days=400, seed=4)


@pytest.fixture(scope="module")
def lineitem_table(workload):
    return Table.from_columns(
        workload.lineitem,
        schemes={
            "ship_date": RunLengthEncoding(),
            "quantity": NullSuppression(),
            "discount": DictionaryEncoding(),
            "price": FrameOfReference(segment_length=256),
        },
        chunk_size=4096,
    )


@pytest.fixture(scope="module")
def lineitem_plain(workload):
    return {name: column.values for name, column in workload.lineitem.items()}


class TestSinglePredicateScan:
    def test_matches_reference(self, lineitem_table, lineitem_plain, workload):
        lo = workload.date_range.start + 50
        hi = workload.date_range.start + 120
        scan = scan_table(lineitem_table, [Between("ship_date", lo, hi)])
        expected = np.flatnonzero((lineitem_plain["ship_date"] >= lo)
                                  & (lineitem_plain["ship_date"] <= hi))
        assert np.array_equal(scan.selection.positions.values, expected)
        assert scan.stats.rows_selected == expected.size

    def test_zone_maps_skip_chunks(self, lineitem_table, workload):
        lo = workload.date_range.start
        hi = lo + 10  # very selective on a date-clustered column
        scan = scan_table(lineitem_table, [Between("ship_date", lo, hi)])
        assert scan.stats.chunks_skipped > 0

    def test_pushdown_and_plain_paths_agree(self, lineitem_table, workload):
        lo = workload.date_range.start + 30
        hi = workload.date_range.start + 90
        predicates = [Between("ship_date", lo, hi)]
        pushed = scan_table(lineitem_table, predicates)
        plain = scan_table(lineitem_table, predicates,
                           context=ExecutionContext(use_pushdown=False,
                                                    use_zone_maps=False))
        assert np.array_equal(pushed.selection.positions.values,
                              plain.selection.positions.values)
        assert plain.stats.chunks_decompressed > 0

    def test_equals_predicate(self, lineitem_table, lineitem_plain):
        scan = scan_table(lineitem_table, [Equals("discount", 5)])
        expected = int((lineitem_plain["discount"] == 5).sum())
        assert len(scan.selection) == expected


class TestAggregates:
    def test_scalar_aggregates(self):
        col = Column([1, 2, 3, 4])
        assert aggregate(col, "sum") == 10
        assert aggregate(col, "count") == 4
        assert aggregate(col, "min") == 1
        assert aggregate(col, "max") == 4
        assert aggregate(col, "mean") == pytest.approx(2.5)

    def test_unknown_aggregate(self):
        with pytest.raises(QueryError):
            aggregate(Column([1]), "median")

    def test_empty_aggregate(self):
        assert aggregate(Column.empty(), "count") == 0
        with pytest.raises(QueryError):
            aggregate(Column.empty(), "sum")

    def test_grouped_sum(self):
        codes = np.array([0, 1, 0, 1, 2])  # keys 1, 2, 1, 2, 3
        values = Column([10, 20, 30, 40, 50])
        assert grouped_reduce(codes, 3, values, "sum").to_pylist() == [40, 60, 50]

    def test_grouped_count_min_max_mean(self):
        codes = np.array([0, 0, 1])
        values = Column([5, 7, 9])
        assert grouped_reduce(codes, 2, None, "count").to_pylist() == [2, 1]
        assert grouped_reduce(codes, 2, values, "min").to_pylist() == [5, 9]
        assert grouped_reduce(codes, 2, values, "max").to_pylist() == [7, 9]
        assert grouped_reduce(codes, 2, values, "mean").to_pylist() == [6, 9]

    def test_grouped_length_mismatch(self):
        with pytest.raises(QueryError):
            grouped_reduce(np.array([0]), 1, Column([1, 2]), "sum")

    def test_grouped_unknown_aggregate(self):
        with pytest.raises(QueryError):
            grouped_reduce(np.array([0]), 1, Column([1]), "median")

    def test_grouped_min_max_float_values(self):
        """Regression: min/max used an int64 accumulator, truncating floats —
        min of [0.5, 0.25] came back as 0."""
        codes = np.array([0, 0, 1])
        values = Column(np.array([0.5, 0.25, -1.75]))
        low = grouped_reduce(codes, 2, values, "min")
        high = grouped_reduce(codes, 2, values, "max")
        assert low.to_pylist() == [0.25, -1.75]
        assert high.to_pylist() == [0.5, -1.75]
        assert np.issubdtype(low.dtype, np.floating)

    def test_grouped_min_max_preserves_value_dtype(self):
        out = grouped_reduce(np.array([0, 0]), 1,
                             Column(np.array([3, 9], dtype=np.int32)), "max")
        assert out.to_pylist() == [9]
        assert np.issubdtype(out.dtype, np.integer)

    def test_grouped_sum_large_integers_exact(self):
        """Regression: integer sums were routed through float64 bincount
        weights + rint, losing precision above 2^53 — sum of [2^60, 1]
        came back as 2^60."""
        values = Column(np.array([1 << 60, 1], dtype=np.int64))
        out = grouped_reduce(np.array([0, 0]), 1, values, "sum")
        assert out.to_pylist() == [(1 << 60) + 1]
        assert np.issubdtype(out.dtype, np.integer)

    def test_grouped_sum_large_unsigned_exact(self):
        values = Column(np.array([1 << 63, 3, 5], dtype=np.uint64))
        out = grouped_reduce(np.array([0, 0, 1]), 2, values, "sum")
        assert out.to_pylist() == [(1 << 63) + 3, 5]

    def test_grouped_sum_float_values(self):
        out = grouped_reduce(np.array([0, 0]), 1,
                             Column(np.array([0.5, 0.25])), "sum")
        assert out.to_pylist() == [0.75]

    def test_grouped_min_max_booleans(self):
        codes = np.array([0, 0, 1, 2])
        values = Column(np.array([False, False, True, False]))
        assert grouped_reduce(codes, 3, values, "max").to_pylist() \
            == [False, True, False]
        assert grouped_reduce(codes, 3, values, "min").to_pylist() \
            == [False, True, False]

    def test_boolean_sum_counts_in_int64(self):
        """NumPy's answer to ``sum`` of booleans is an int64 count, not a
        float — scalar and grouped, and through the query API."""
        flags = np.array([True, False, True, True, False])
        scalar = aggregate(Column(flags), "sum")
        assert type(scalar) is int and scalar == 3
        grouped = grouped_reduce(np.array([0, 1, 1, 0, 1]), 2, Column(flags),
                                 "sum")
        assert grouped.dtype == np.int64 and grouped.to_pylist() == [2, 1]

        values = np.arange(-5, 5, dtype=np.int64)
        table = Table.from_pydict({"v": values, "g": values % 2, "h": values % 3},
                                  chunk_size=4)
        positive = (col("v") > 0).sum().alias("p")
        result = dataset(table).agg(positive).collect()
        assert type(result.scalars["p"]) is int and result.scalars["p"] == 4
        # One key folds per range, two keys materialise: int64 either way.
        for keys, want in ((("g",), [2, 2]), (("g", "h"), [0, 1, 1, 1, 1, 0])):
            column = dataset(table).group_by(*keys).agg(positive).collect() \
                .columns["p"]
            assert column.dtype == np.int64 and column.to_pylist() == want

    def test_scalar_sum_large_unsigned_exact(self):
        values = Column(np.array([1 << 63, 3], dtype=np.uint64))
        assert aggregate(values, "sum") == (1 << 63) + 3


class TestHashJoin:
    def test_basic_join(self):
        left = Column([1, 2, 3, 2])
        right = Column([2, 4, 1])
        lpos, rpos = hash_join(left, right)
        pairs = {(int(left[l]), int(right[r])) for l, r in zip(lpos.values, rpos.values)}
        assert pairs == {(1, 1), (2, 2)}
        assert len(lpos) == 3  # 1 match for key 1, two left rows match key 2

    def test_duplicate_build_keys(self):
        left = Column([7])
        right = Column([7, 7, 7])
        lpos, rpos = hash_join(left, right)
        assert len(lpos) == 3
        assert set(rpos.to_pylist()) == {0, 1, 2}

    def test_no_matches(self):
        lpos, rpos = hash_join(Column([1]), Column([2]))
        assert len(lpos) == 0 and len(rpos) == 0

    def test_matches_numpy_reference(self, rng):
        left = Column(rng.integers(0, 50, 300))
        right = Column(rng.integers(0, 50, 200))
        lpos, rpos = hash_join(left, right)
        assert np.array_equal(left.values[lpos.values], right.values[rpos.values])
        expected_total = sum(int((right.values == k).sum()) for k in left.values)
        assert len(lpos) == expected_total


class TestQueries:
    def test_filter_aggregate(self, lineitem_table, lineitem_plain, workload):
        lo = workload.date_range.start + 40
        hi = workload.date_range.start + 160
        result = (dataset(lineitem_table)
                  .filter(col("ship_date").between(lo, hi))
                  .agg(col("quantity").sum())
                  .collect())
        mask = (lineitem_plain["ship_date"] >= lo) & (lineitem_plain["ship_date"] <= hi)
        assert result.scalars["sum(quantity)"] == int(lineitem_plain["quantity"][mask].sum())
        assert result.row_count == int(mask.sum())

    def test_count_star(self, lineitem_table):
        result = dataset(lineitem_table).agg(count()).collect()
        assert result.scalars["count(*)"] == lineitem_table.row_count

    def test_projection(self, lineitem_table, lineitem_plain):
        result = (dataset(lineitem_table)
                  .filter(col("discount") == 3)
                  .select("quantity", "discount")
                  .collect())
        assert set(result.columns) == {"quantity", "discount"}
        assert np.all(result.columns["discount"].values == 3)

    def test_multi_column_filters_intersect(self, lineitem_table, lineitem_plain, workload):
        lo = workload.date_range.start + 40
        hi = workload.date_range.start + 400
        result = (dataset(lineitem_table)
                  .filter(col("ship_date").between(lo, hi))
                  .filter(col("quantity").between(10, 20))
                  .agg(count())
                  .collect())
        mask = ((lineitem_plain["ship_date"] >= lo) & (lineitem_plain["ship_date"] <= hi)
                & (lineitem_plain["quantity"] >= 10) & (lineitem_plain["quantity"] <= 20))
        assert result.scalars["count(*)"] == int(mask.sum())

    def test_group_by(self, lineitem_table, lineitem_plain):
        result = (dataset(lineitem_table)
                  .group_by("discount")
                  .agg(col("quantity").sum())
                  .collect())
        keys = result.columns["discount"].values
        sums = result.columns["sum(quantity)"].values
        assert np.array_equal(keys, np.unique(lineitem_plain["discount"]))
        for key, total in zip(keys, sums):
            expected = int(lineitem_plain["quantity"][lineitem_plain["discount"] == key].sum())
            assert total == expected

    def test_group_by_without_aggregate_rejected(self, lineitem_table):
        with pytest.raises(QueryError):
            dataset(lineitem_table).group_by("discount").collect()

    def test_no_filters_returns_all_rows(self, lineitem_table, lineitem_plain):
        result = dataset(lineitem_table).select("quantity").collect()
        assert result.row_count == lineitem_table.row_count
        assert np.array_equal(result.column("quantity").values,
                              lineitem_plain["quantity"])

    def test_unknown_columns_rejected(self, lineitem_table):
        ds = dataset(lineitem_table)
        with pytest.raises(QueryError):
            ds.filter(col("missing").between(0, 1))
        with pytest.raises(QueryError):
            ds.select("missing")
        with pytest.raises(QueryError):
            ds.agg(col("missing").sum())
        with pytest.raises(QueryError):
            ds.group_by("missing")

    def test_without_pushdown_matches(self, lineitem_table, workload):
        lo = workload.date_range.start + 40
        hi = workload.date_range.start + 160
        query = (dataset(lineitem_table)
                 .filter(col("ship_date").between(lo, hi))
                 .agg(col("price").sum()))
        fast = query.collect()
        slow = query.without_pushdown().without_zone_maps().collect()
        assert fast.scalars == slow.scalars

    def test_result_column_access(self, lineitem_table):
        result = dataset(lineitem_table).select("quantity").collect()
        assert len(result.column("quantity")) == lineitem_table.row_count
        with pytest.raises(QueryError):
            result.column("nope")


class TestJoin:
    @pytest.fixture(scope="class")
    def joined(self, workload):
        orders = Table.from_columns(workload.orders, chunk_size=4096)
        lineitem = Table.from_columns(workload.lineitem, chunk_size=4096)
        return (dataset(lineitem).select("order_id", "quantity")
                .join(dataset(orders).select("order_id", "customer_id"),
                      on="order_id")
                .collect())

    def test_join_matches_numpy_reference(self, joined, workload):
        # every lineitem matches exactly one order, in probe (lineitem) order
        assert joined.row_count == workload.num_lineitems
        assert set(joined.columns) == {"order_id", "quantity", "customer_id"}
        assert np.array_equal(joined.column("quantity").values,
                              workload.lineitem["quantity"].values)
        order_ids = workload.orders["order_id"].values  # ascending
        order_of_item = np.searchsorted(order_ids,
                                        workload.lineitem["order_id"].values)
        assert np.array_equal(
            joined.column("customer_id").values,
            workload.orders["customer_id"].values[order_of_item])

    def test_join_result_is_queryable(self, joined):
        # The join output round-trips into a compressed table...
        table = joined.to_table(chunk_size=4096)
        assert table.row_count == joined.row_count
        # ...and can be queried again.
        total = (dataset(table)
                 .agg(col("quantity").sum())
                 .collect()
                 .scalars["sum(quantity)"])
        assert total == int(joined.column("quantity").values.sum())

