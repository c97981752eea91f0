"""End-to-end tests for the lazy `Dataset` API against NumPy references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.api.lower as lower_module
from repro.api import Dataset, col, count, dataset, lit
from repro.schemes import (
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage import Table


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    n = 20_000
    return {
        "ship_date": np.sort(rng.integers(0, 500, n)).astype(np.int64),
        "price": (np.cumsum(rng.integers(-4, 5, n)) + 10_000).astype(np.int64),
        "quantity": rng.integers(1, 64, n).astype(np.int64),
        "discount": rng.integers(0, 8, n).astype(np.int64),
        "weight": rng.normal(10.0, 2.0, n),  # a float column (no zone maps)
    }


@pytest.fixture(scope="module")
def table(data):
    return Table.from_pydict(
        data,
        schemes={
            "ship_date": RunLengthEncoding(),
            "price": FrameOfReference(segment_length=128),
            "quantity": NullSuppression(),
            "discount": DictionaryEncoding(),
        },
        chunk_size=2048,
    )


@pytest.fixture(scope="module")
def orders():
    rng = np.random.default_rng(5)
    keys = np.arange(200, dtype=np.int64)
    return {
        "discount": keys % 8,
        "region": rng.integers(0, 4, keys.size).astype(np.int64),
        "key": keys,
    }


class TestLaziness:
    def test_building_does_not_scan(self, table, monkeypatch):
        calls = []
        original = lower_module.scan_table

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(lower_module, "scan_table", counting)
        ds = (dataset(table)
              .filter(col("quantity") > 10)
              .with_column("revenue", col("price") * col("quantity"))
              .select("revenue", "discount")
              .sort("revenue")
              .limit(5))
        assert calls == []          # building is free
        ds.explain()
        assert calls == []          # explaining is free too
        ds.collect()
        assert len(calls) == 1      # one fused scan

    def test_methods_return_new_datasets(self, table):
        base = dataset(table)
        filtered = base.filter(col("quantity") > 3)
        assert filtered is not base
        assert base.schema == filtered.schema
        assert base.logical_plan is not filtered.logical_plan


class TestFilterSelect:
    def test_filter_matches_numpy(self, table, data):
        result = (dataset(table)
                  .filter((col("ship_date").between(100, 300))
                          & (col("quantity") >= 32))
                  .select("price")
                  .collect())
        mask = ((data["ship_date"] >= 100) & (data["ship_date"] <= 300)
                & (data["quantity"] >= 32))
        assert np.array_equal(result.column("price").values, data["price"][mask])
        assert result.row_count == int(mask.sum())

    def test_or_and_not_filters(self, table, data):
        """Predicate shapes the old AND-only filter() could not express."""
        result = (dataset(table)
                  .filter((col("discount") == 0) | ~col("quantity").between(8, 56))
                  .select("quantity")
                  .collect())
        mask = (data["discount"] == 0) | ~((data["quantity"] >= 8)
                                           & (data["quantity"] <= 56))
        assert np.array_equal(result.column("quantity").values,
                              data["quantity"][mask])

    def test_multi_column_predicate(self, table, data):
        result = (dataset(table)
                  .filter(col("quantity") * 100 > col("price"))
                  .select("quantity", "price")
                  .collect())
        mask = data["quantity"] * 100 > data["price"]
        assert np.array_equal(result.column("price").values, data["price"][mask])

    def test_float_column_filter(self, table, data):
        result = (dataset(table)
                  .filter(col("weight") > 12.5)
                  .agg(count())
                  .collect())
        assert result.scalars["count(*)"] == int((data["weight"] > 12.5).sum())

    def test_select_expressions_and_aliases(self, table, data):
        result = (dataset(table)
                  .select((col("price") * col("quantity")).alias("revenue"),
                          "discount")
                  .collect())
        assert list(result.columns) == ["revenue", "discount"]
        assert np.array_equal(result.column("revenue").values,
                              data["price"] * data["quantity"])

    def test_with_column_then_filter_on_it(self, table, data):
        result = (dataset(table)
                  .with_column("revenue", col("price") * col("quantity"))
                  .filter(col("revenue") > 400_000)
                  .select("revenue")
                  .collect())
        revenue = data["price"] * data["quantity"]
        assert np.array_equal(result.column("revenue").values,
                              revenue[revenue > 400_000])

    def test_pushdown_off_matches(self, table):
        predicate = (col("ship_date").between(50, 220)) & (col("discount") <= 3)
        fast = dataset(table).filter(predicate).select("price").collect()
        slow = (dataset(table).without_pushdown().without_zone_maps()
                .filter(predicate).select("price").collect())
        assert np.array_equal(fast.column("price").values,
                              slow.column("price").values)


class TestConstantConjuncts:
    """Regression: column-free conjuncts fold at optimize time instead of
    reaching the scan as degenerate (0-d mask) row filters."""

    def test_true_constant_conjunct_is_dropped(self, table, data):
        result = (dataset(table)
                  .filter((col("quantity") >= 0)
                          & ((lit(1) // lit(1)) == 1)
                          & (col("quantity") < col("price")))
                  .select("quantity")
                  .collect())
        mask = data["quantity"] < data["price"]
        assert np.array_equal(result.column("quantity").values,
                              data["quantity"][mask])

    def test_true_constant_as_only_column_free_first_conjunct(self, table, data):
        result = (dataset(table)
                  .filter(lit(True) & (col("quantity") < col("discount")))
                  .select("quantity")
                  .collect())
        mask = data["quantity"] < data["discount"]
        assert result.row_count == int(mask.sum())

    def test_false_constant_folds_scan_to_empty(self, table):
        ds = (dataset(table)
              .filter((lit(2) == 3) & (col("quantity") > 0))
              .select("quantity", "price"))
        assert "scan folded to empty" in ds.explain()
        result = ds.collect()
        assert result.row_count == 0
        assert len(result.column("quantity")) == 0
        assert result.column("price").dtype == np.dtype(np.int64)

    def test_false_constant_under_aggregate(self, table):
        result = (dataset(table)
                  .filter((lit(1) > 2) & (col("quantity") >= 0))
                  .agg(count())
                  .collect())
        assert result.scalars["count(*)"] == 0

    def test_constant_conjunct_above_aggregate(self, table, data):
        """A residual `lit(True)` above group_by must fold, not crash."""
        result = (dataset(table)
                  .group_by("discount")
                  .agg(col("quantity").sum())
                  .filter((col("discount") == 1) & lit(True))
                  .collect())
        assert np.array_equal(result.column("discount").values, [1])
        assert result.column("sum(quantity)").values[0] == \
            data["quantity"][data["discount"] == 1].sum()

    def test_false_constant_above_limit(self, table):
        result = (dataset(table).select("quantity").limit(3)
                  .filter((lit(1) > 2) & (col("quantity") >= 0))
                  .collect())
        assert result.row_count == 0

    def test_group_by_key_aliased_like_count_star(self, table):
        """group_by() key validation must not collide with a probe aggregate."""
        result = (dataset(table)
                  .group_by(col("discount").alias("count(*)"))
                  .agg(col("quantity").sum())
                  .collect())
        assert "count(*)" in result.columns

    def test_with_column_above_join_still_prunes(self, table, orders):
        right = Table.from_pydict(orders, chunk_size=64)
        ds = (dataset(table, "fact")
              .join(dataset(right, "orders"), on="discount")
              .with_column("x", col("quantity") * col("region"))
              .select("x"))
        text = ds.explain()
        assert "price" not in text  # unused fact columns never materialise
        assert "key" not in text    # unused orders columns neither


class TestAggregation:
    def test_scalar_aggregates(self, table, data):
        result = (dataset(table)
                  .filter(col("discount") == 2)
                  .agg(col("price").sum(), col("quantity").mean(), count())
                  .collect())
        mask = data["discount"] == 2
        assert result.scalars["sum(price)"] == int(data["price"][mask].sum())
        assert result.scalars["mean(quantity)"] == pytest.approx(
            data["quantity"][mask].mean())
        assert result.scalars["count(*)"] == int(mask.sum())
        assert result.row_count == int(mask.sum())

    def test_aggregate_over_derived_expression(self, table, data):
        result = (dataset(table)
                  .agg((col("price") * col("quantity")).sum().alias("revenue"))
                  .collect())
        assert result.scalars["revenue"] == int(
            (data["price"] * data["quantity"]).sum())

    def test_group_by_single_key(self, table, data):
        result = (dataset(table)
                  .group_by("discount")
                  .agg(col("quantity").sum(), col("price").max(), count())
                  .collect())
        keys = result.column("discount").values
        assert np.array_equal(keys, np.unique(data["discount"]))
        for i, key in enumerate(keys):
            mask = data["discount"] == key
            assert result.column("sum(quantity)").values[i] == \
                data["quantity"][mask].sum()
            assert result.column("max(price)").values[i] == \
                data["price"][mask].max()
            assert result.column("count(*)").values[i] == mask.sum()

    def test_group_by_multiple_keys(self, table, data):
        result = (dataset(table)
                  .filter(col("ship_date") < 100)
                  .group_by("discount", "quantity")
                  .agg(col("price").sum())
                  .collect())
        mask = data["ship_date"] < 100
        d, q, p = (data["discount"][mask], data["quantity"][mask],
                   data["price"][mask])
        expected = {}
        for dv, qv, pv in zip(d, q, p):
            expected[(dv, qv)] = expected.get((dv, qv), 0) + pv
        got_keys = list(zip(result.column("discount").values.tolist(),
                            result.column("quantity").values.tolist()))
        assert got_keys == sorted(expected)
        for (dk, qk), total in zip(got_keys,
                                   result.column("sum(price)").values):
            assert expected[(dk, qk)] == total

    def test_group_by_expression_key(self, table, data):
        result = (dataset(table)
                  .group_by((col("quantity") // 16).alias("bucket"))
                  .agg(count())
                  .collect())
        buckets, counts = np.unique(data["quantity"] // 16, return_counts=True)
        assert np.array_equal(result.column("bucket").values, buckets)
        assert np.array_equal(result.column("count(*)").values, counts)


class TestSortLimitJoin:
    def test_sort_stable_multi_key(self, table, data):
        result = (dataset(table)
                  .filter(col("ship_date") < 50)
                  .select("discount", "quantity")
                  .sort("discount", "quantity", descending=[False, True])
                  .collect())
        mask = data["ship_date"] < 50
        d, q = data["discount"][mask], data["quantity"][mask]
        order = np.lexsort((-q, d))
        assert np.array_equal(result.column("discount").values, d[order])
        assert np.array_equal(result.column("quantity").values, q[order])

    def test_limit(self, table, data):
        result = dataset(table).select("price").limit(7).collect()
        assert np.array_equal(result.column("price").values, data["price"][:7])

    def test_topk_equals_sort_then_slice(self, table):
        full = (dataset(table)
                .with_column("revenue", col("price") * col("quantity"))
                .select("revenue", "discount")
                .sort("revenue", descending=True)
                .collect())
        topk = (dataset(table)
                .with_column("revenue", col("price") * col("quantity"))
                .select("revenue", "discount")
                .sort("revenue", descending=True)
                .limit(25)
                .collect())
        for name in ("revenue", "discount"):
            assert np.array_equal(topk.column(name).values,
                                  full.column(name).values[:25])

    def test_join_and_aggregate(self, table, data, orders):
        right = Table.from_pydict(orders, chunk_size=64)
        joined = (dataset(table, "lineitem")
                  .filter(col("ship_date") < 40)
                  .join(dataset(right, "orders"), on="discount")
                  .group_by("region")
                  .agg(col("price").sum())
                  .collect())
        mask = data["ship_date"] < 40
        expected = {}
        for dv, pv in zip(data["discount"][mask], data["price"][mask]):
            for rk, rv in zip(orders["discount"], orders["region"]):
                if rk == dv:
                    expected[rv] = expected.get(rv, 0) + pv
        keys = joined.column("region").values
        assert np.array_equal(keys, np.array(sorted(expected)))
        for key, total in zip(keys, joined.column("sum(price)").values):
            assert expected[key] == total

    def test_join_suffixes_colliding_names(self, table, orders):
        right = Table.from_pydict(
            {"discount": orders["discount"], "price": orders["key"]},
            chunk_size=64)
        ds = (dataset(table).select("discount", "price")
              .join(dataset(right), on="discount"))
        assert "price_right" in ds.schema
        result = ds.limit(5).collect()
        assert "price_right" in result.columns


class TestComposability:
    def test_result_as_table_and_requeried(self, table, data):
        first = (dataset(table)
                 .filter(col("ship_date") < 200)
                 .select("discount", "price")
                 .collect())
        second = (Dataset.from_result(first)
                  .filter(col("discount") >= 4)
                  .agg(col("price").sum())
                  .collect())
        mask = (data["ship_date"] < 200) & (data["discount"] >= 4)
        assert second.scalars["sum(price)"] == int(data["price"][mask].sum())

    def test_to_table_roundtrip_compresses(self, table):
        result = dataset(table).select("discount", "quantity").limit(4096) \
            .collect()
        roundtrip = result.to_table(chunk_size=1024)
        assert roundtrip.row_count == 4096
        materialized = roundtrip.materialize()
        assert np.array_equal(materialized["discount"].values,
                              result.column("discount").values)


class TestExplain:
    def test_explain_shows_annotations(self, table):
        text = (dataset(table, "lineitem")
                .filter((col("quantity") > 8) & col("ship_date").between(10, 60))
                .with_column("revenue", col("price") * col("quantity"))
                .group_by("discount")
                .agg(col("revenue").sum())
                .with_backend("process", workers=2)
                .explain())
        assert "Scan(lineitem" in text
        assert "workers=2" in text
        assert "est. sel" in text
        assert "derive revenue = (price * quantity)" in text
        assert "materialize=[discount]" in text
        assert "projection pruned" in text
        assert "Aggregate(keys=[discount])" in text

    def test_conjunct_label_says_what_the_range_compares(self, data):
        """``quantity`` packs at 6 bits, a width the word-parallel compare
        refuses: its range kernel unpacks every value.  A scan that outputs
        the column compares the decoded values instead (and says so); one
        that only filters on it, or folds a count, runs the kernel.  8-bit
        ``discount8`` compares inside its words either way."""
        table = Table.from_pydict(
            {"quantity": data["quantity"], "discount8": data["discount"] * 32,
             "price": data["price"]},
            schemes={"quantity": NullSuppression(), "discount8": NullSuppression(),
                     "price": FrameOfReference()}, chunk_size=2048)
        chunks = len(table.column("quantity").chunks)
        filtered = dataset(table).filter((col("quantity") > 8) & (col("discount8") < 128))

        def labels(ds):
            return {line.split()[1]: line.rsplit("[", 1)[1].split(", ")[1]
                    for line in ds.explain().splitlines() if " where (" in line}

        for ds, quantity, pushed in (
                (filtered.select("quantity", "discount8"), "decompress", chunks),
                (filtered.select("price"), "compressed", 2 * chunks),
                (filtered.agg(count()), "compressed", 2 * chunks),
                (filtered.filter(col("quantity") < col("price")).select("price"),
                 "decompress", chunks),  # a row filter reads the column decoded
                (filtered.select("quantity").without_pushdown(), "decompress", 0)):
            found = labels(ds)
            assert found["(quantity"] == quantity, ds.explain()
            assert found["(discount8"] == ("compressed" if pushed else "decompress")
            assert ds.collect().scan_stats.chunks_pushed_down == pushed, ds.explain()

    def test_optimizer_reorders_by_selectivity(self, table):
        """A selective clustered-date conjunct written *last* is hoisted first."""
        ds = (dataset(table)
              .filter(col("quantity") >= 2)            # ~97% selective
              .filter(col("price") > 0)                 # ~100%
              .filter(col("ship_date").between(0, 10))  # ~2%: should lead
              .agg(count()))
        text = ds.explain()
        where_lines = [line for line in text.splitlines() if "where" in line]
        assert len(where_lines) == 3
        assert "ship_date" in where_lines[0]
        assert "reordered by estimated selectivity" in text

        baseline = ds.without_optimizer_reordering()
        baseline_lines = [line for line in baseline.explain().splitlines()
                          if "where" in line]
        assert "quantity" in baseline_lines[0]
        # Both orders compute the same answer.
        assert ds.collect().scalars == baseline.collect().scalars

    def test_unoptimized_explain_shows_logical_tree(self, table):
        text = (dataset(table)
                .filter(col("quantity") > 8)
                .select("price")
                .explain(optimized=False))
        assert "Filter" in text and "Project" in text and "Scan(" in text

    def test_select_pushed_below_sort(self, table, data):
        ds = (dataset(table)
              .sort("price", descending=True)
              .select("price", "discount"))
        text = ds.explain()
        # After the rewrite the Sort sits on top of the (scan-fused) select.
        assert text.index("Sort(") < text.index("Scan(")
        assert "materialize=[price, discount]" in text
        result = ds.limit(10).collect()
        order = np.argsort(-data["price"], kind="stable")[:10]
        assert np.array_equal(result.column("price").values,
                              data["price"][order])
        assert np.array_equal(result.column("discount").values,
                              data["discount"][order])

    def test_filter_pushed_below_join(self, table, orders):
        right = Table.from_pydict(orders, chunk_size=64)
        text = (dataset(table, "lineitem")
                .join(dataset(right, "orders"), on="discount")
                .filter(col("region") == 1)            # right side only
                .filter(col("ship_date") < 100)        # left side only
                .filter(col("discount") >= 2)          # shared key: both sides
                .agg(count())
                .explain())
        join_at = text.index("Join(")
        assert text.index("(ship_date < 100)") > join_at
        assert text.index("(region == 1)") > join_at
        assert text.count("(discount >= 2)") == 2  # pushed to both sides


def _walked_selectivity(expr, table):
    """The estimate from a walk over every chunk's statistics object: the
    reference reading the zone-map arrays must equal."""
    from repro.api.optimize import _extract_interval
    from repro.api.lower import _column_bounds

    primary, *others = expr.columns()
    stored = table.column(primary)
    trusted = np.issubdtype(stored.dtype, np.integer)
    env = {name: _column_bounds(table, name) for name in others}
    interval = _extract_interval(expr)
    weighted, total, informed = 0.0, 0, False
    for chunk in stored.chunks:
        stats = chunk.statistics
        total += stats.count
        bounds = (stats.minimum, stats.maximum) if trusted else None
        decision = expr.decide({primary: bounds, **env})
        fraction, knows = {True: (1.0, True), False: (0.0, True)}.get(decision, (0.5, False))
        if decision is None and interval is not None and interval[0] == primary and bounds:
            __, low, high, candidates = interval
            low = bounds[0] if low is None else max(low, bounds[0])
            high = bounds[1] if high is None else min(high, bounds[1])
            knows = True
            if high < low:
                fraction = 0.0
            elif candidates:
                fraction = min(1.0, candidates / max(stats.distinct_count, 1))
            else:
                fraction = min(1.0, (high - low + 1) / (bounds[1] - bounds[0] + 1))
        informed = informed or knows
        weighted += fraction * stats.count
    return weighted / total if informed else None


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_selectivity_estimates_read_the_zone_maps_as_the_chunk_walk_did(data, tmp_path_factory):
    """Drawn tables — values at the int64 and uint64 limits, runs, odd chunk
    sizes, a float column — packed and in memory: every estimate equals the
    per-chunk walk's, and on a packed table only a point or IN-list conjunct
    may build a chunk's statistics object (for its ``distinct_count``)."""
    from repro.api.optimize import _extract_interval, estimate_selectivity
    from repro.io import open_table, save_table

    limits = np.iinfo(np.int64)
    rows = data.draw(st.integers(1, 60))
    value = st.one_of(st.integers(-20, 20), st.sampled_from([limits.min, limits.max]))
    ints = np.array(data.draw(st.lists(value, min_size=rows, max_size=rows)), dtype=np.int64)
    table = Table.from_pydict(
        {"a": np.sort(ints) if data.draw(st.booleans()) else ints,
         "u": np.array(data.draw(st.lists(st.integers(2**64 - 9, 2**64 - 1), min_size=rows,
                                          max_size=rows)), dtype=np.uint64),
         "w": np.linspace(-1.0, 1.0, rows)},
        chunk_size=data.draw(st.integers(1, 17)))
    packed = data.draw(st.booleans(), label="packed")
    if packed:
        table = open_table(save_table(table, tmp_path_factory.mktemp("sel") / "t.rpk")).table
    bound = st.integers(-25, 25) | st.sampled_from([limits.min, limits.max, 2**64 - 5])
    low, high = sorted(data.draw(st.tuples(bound, bound)))
    name = data.draw(st.sampled_from(["a", "u"]))
    expr = data.draw(st.sampled_from([
        col(name).between(low, high), col(name) < high, col(name) >= low, col(name) == low,
        col(name) != low, col(name).isin(sorted({low, high, 3})), col("a") < col("u"),
        col("w") > 0.5, (col("a") + 1) > high]))
    estimate = estimate_selectivity(expr, table)
    point = (_extract_interval(expr) or (0, 0, 0, 0))[3]  # candidates of ==/IN
    if packed and not point:
        assert not any("_statistics" in chunk.__dict__ for chunk in table.column(name).chunks)
    assert estimate == _walked_selectivity(expr, table)
