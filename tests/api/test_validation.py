"""Build-time validation: bad plans fail at construction, naming the node."""

import numpy as np
import pytest

from repro.api import col, dataset
from repro.errors import QueryError
from repro.storage import Table


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(1)
    return Table.from_pydict({
        "a": rng.integers(0, 100, 500).astype(np.int64),
        "b": rng.integers(0, 10, 500).astype(np.int64),
    }, chunk_size=128)


class TestGroupByValidation:
    def test_agg_without_aggregates_rejected_at_construction(self, table):
        grouped = dataset(table).group_by("b")
        with pytest.raises(QueryError, match=r"Aggregate\(keys=\[b\]\).*at least "
                                             r"one\s+aggregate"):
            grouped.agg()

    def test_grouped_collect_without_agg_guides_user(self, table):
        with pytest.raises(QueryError, match="group_by.*without aggregates"):
            dataset(table).group_by("b").collect()

    def test_plain_column_in_grouped_agg_rejected(self, table):
        with pytest.raises(QueryError) as excinfo:
            dataset(table).group_by("b").agg(col("a").sum(), col("a"))
        message = str(excinfo.value)
        assert "Aggregate(keys=[b])" in message  # names the offending node
        assert "not an aggregate expression" in message

    def test_scalar_agg_mixing_plain_column_rejected(self, table):
        with pytest.raises(QueryError) as excinfo:
            dataset(table).agg(col("a").sum(), col("b"))
        message = str(excinfo.value)
        assert "Aggregate(scalar)" in message
        assert "scalar-mode" in message

    def test_scalar_agg_empty_rejected(self, table):
        with pytest.raises(QueryError, match=r"Aggregate\(scalar\).*at least one"):
            dataset(table).agg()

    def test_group_by_without_keys_rejected(self, table):
        with pytest.raises(QueryError, match="at least one key"):
            dataset(table).group_by()

    def test_aggregate_key_rejected(self, table):
        with pytest.raises(QueryError, match="group_by\\(\\) keys"):
            dataset(table).group_by(col("a").sum())

    def test_duplicate_output_names_rejected(self, table):
        with pytest.raises(QueryError, match="duplicate output names"):
            dataset(table).group_by("b").agg(col("a").sum(), col("a").sum())

    def test_building_on_scalar_aggregate_rejected(self, table):
        scalar = dataset(table).agg(col("a").sum())
        with pytest.raises(QueryError, match="scalar"):
            scalar.filter(col("sum(a)") > 0)


class TestExpressionPlacement:
    def test_aggregate_in_filter_rejected(self, table):
        with pytest.raises(QueryError) as excinfo:
            dataset(table).filter(col("a").sum() > 10)
        assert "Filter" in str(excinfo.value)
        assert "agg" in str(excinfo.value)

    def test_aggregate_in_select_rejected(self, table):
        with pytest.raises(QueryError, match="select"):
            dataset(table).select(col("a").sum())

    def test_aggregate_in_sort_rejected(self, table):
        with pytest.raises(QueryError, match="sort"):
            dataset(table).sort(col("a").mean())

    def test_aggregate_in_with_column_rejected(self, table):
        with pytest.raises(QueryError, match="with_column"):
            dataset(table).with_column("total", col("a").sum())


class TestReferenceValidation:
    def test_unknown_filter_column_rejected_immediately(self, table):
        with pytest.raises(QueryError, match="unknown\\s+column 'nope'"):
            dataset(table).filter(col("nope") > 1)

    def test_unknown_column_after_projection(self, table):
        narrowed = dataset(table).select("a")
        with pytest.raises(QueryError, match="'b'"):
            narrowed.filter(col("b") > 1)

    def test_with_column_shadowing_rejected(self, table):
        with pytest.raises(QueryError, match="already exists"):
            dataset(table).with_column("a", col("b") + 1)

    def test_negative_limit_rejected(self, table):
        with pytest.raises(QueryError, match="limit"):
            dataset(table).limit(-1)

    def test_constant_filter_rejected(self, table):
        from repro.api import lit
        with pytest.raises(QueryError, match="constant"):
            dataset(table).filter(lit(True) == lit(True))

    def test_filter_requires_expression(self, table):
        with pytest.raises(QueryError, match="expression"):
            dataset(table).filter("a > 3")

    def test_workers_validated(self, table):
        with pytest.raises(QueryError, match="workers"):
            dataset(table).with_backend("process", workers=0)


@pytest.fixture(scope="module")
def wide_table():
    """Ten int64 rows ``x`` and uint64 rows ``u``."""
    return Table.from_pydict({"x": np.arange(10, dtype=np.int64),
                              "u": np.arange(10, dtype=np.uint64)})


#: An integer literal its arithmetic's dtype does not hold: NumPy used to
#: raise a bare ``OverflowError`` at ``collect()``.
OVERFLOWING = {
    "filter-2**70": lambda ds: ds.filter(col("x") + 2**70 > 0),
    "filter-2**63": lambda ds: ds.filter(col("x") + 2**63 > 0),
    "select": lambda ds: ds.select((col("x") + 2**70).alias("y")),
    "with_column": lambda ds: ds.with_column("y", col("x") * 2**65),
    "over-a-derived-column": lambda ds: ds.with_column("y", col("x") + 1).filter(
        col("y") - 2**64 > 0),
}


class TestArithmeticLiterals:
    @pytest.mark.parametrize("zone_maps", [True, False], ids=["zone-maps", "no-zone-maps"])
    @pytest.mark.parametrize("case", list(OVERFLOWING))
    def test_a_literal_past_the_arithmetic_dtype_is_refused_at_build(self, wide_table,
                                                                     case, zone_maps):
        ds = dataset(wide_table)
        ds = ds if zone_maps else ds.without_zone_maps()
        with pytest.raises(QueryError, match="does not fit its int64 arithmetic"):
            OVERFLOWING[case](ds)

    @pytest.mark.parametrize("zone_maps", [True, False], ids=["zone-maps", "no-zone-maps"])
    def test_comparisons_and_literals_that_fit_still_answer(self, wide_table, zone_maps):
        ds = dataset(wide_table)
        ds = ds if zone_maps else ds.without_zone_maps()
        assert ds.filter(col("x") > 2**70).collect().row_count == 0
        shifted = ds.select((col("u") + 2**63).alias("v")).collect().columns["v"].values
        assert shifted.dtype == np.uint64
        assert np.array_equal(shifted, np.arange(10, dtype=np.uint64) + np.uint64(2**63))
