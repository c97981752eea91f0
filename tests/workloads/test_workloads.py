"""Tests for the synthetic workload generators."""

import numpy as np
import pytest
from repro.errors import ReproError
from repro.workloads import (
    generate_orders_workload,
    mixed_magnitude_residuals,
    monotone_identifiers,
    runs_column,
    shipping_dates,
    smooth_measure,
    step_with_outliers,
    trending_sensor,
    uniform_random,
    zipfian_categories,
)


def count_runs(col):
    """Number of maximal runs of equal values."""
    return int(np.count_nonzero(np.diff(col.values))) + 1


class TestShippingDates:
    def test_length_and_monotonicity(self):
        col = shipping_dates(10_000, orders_per_day_mean=100, seed=1)
        assert len(col) == 10_000
        assert col.is_sorted()

    def test_has_long_runs(self):
        col = shipping_dates(10_000, orders_per_day_mean=100, seed=1)
        assert count_runs(col) < 200

    def test_deterministic(self):
        assert shipping_dates(1000, seed=5).equals(shipping_dates(1000, seed=5))

    def test_different_seeds_differ(self):
        assert not shipping_dates(1000, orders_per_day_mean=20, seed=5).equals(
            shipping_dates(1000, orders_per_day_mean=20, seed=6))

    def test_invalid_length(self):
        with pytest.raises(ReproError):
            shipping_dates(0)


class TestRunsColumn:
    def test_exact_length(self):
        for n in (10, 999, 5000):
            assert len(runs_column(n, average_run_length=7.0, seed=2)) == n

    def test_average_run_length_respected(self):
        col = runs_column(50_000, average_run_length=50.0, seed=3)
        achieved = len(col) / count_runs(col)
        assert 25 < achieved < 100

    def test_sorted_option(self):
        col = runs_column(2_000, average_run_length=10.0, sorted_values=True, seed=4)
        assert col.is_sorted()

    def test_invalid_run_length(self):
        with pytest.raises(ReproError):
            runs_column(100, average_run_length=0.5)


class TestOtherGenerators:
    def test_monotone_identifiers(self):
        col = monotone_identifiers(1_000, max_gap=3, seed=1)
        deltas = np.diff(col.values)
        assert (deltas >= 1).all() and (deltas <= 3).all()

    def test_zipfian_categories(self):
        col = zipfian_categories(10_000, num_categories=32, seed=1)
        counts = np.unique(col.values, return_counts=True)[1]
        assert len(counts) <= 32
        assert counts.max() > 3 * counts.min()  # skew

    def test_smooth_measure_locality(self):
        col = smooth_measure(5_000, noise=16, seed=1)
        segment_ranges = [np.ptp(col.values[i:i + 128]) for i in range(0, 4992, 128)]
        global_range = np.ptp(col.values)
        assert max(segment_ranges) < global_range

    def test_step_with_outliers_fraction(self):
        col = step_with_outliers(10_000, outlier_fraction=0.01, outlier_magnitude=10**6,
                                 noise=4, step=100, seed=1)
        big = int((col.values > np.median(col.values) + 10**5).sum())
        assert 50 <= big <= 150

    def test_step_without_outliers(self):
        col = step_with_outliers(1_000, outlier_fraction=0.0, seed=1)
        assert len(col) == 1_000

    def test_trending_sensor(self):
        col = trending_sensor(2_048, segment_length=128, seed=1)
        assert len(col) == 2_048

    def test_mixed_magnitude_residuals(self):
        col = mixed_magnitude_residuals(10_000, small_bits=4, large_bits=20,
                                        large_fraction=0.1, seed=1)
        magnitudes = np.abs(col.values)
        assert (magnitudes < 16).sum() > 8_000
        assert (magnitudes >= (1 << 19)).sum() > 500

    def test_uniform_random_bounds(self):
        col = uniform_random(1_000, low=10, high=20, seed=1)
        assert col.min() >= 10 and col.max() < 20

    def test_all_generators_deterministic(self):
        for generator in (monotone_identifiers, zipfian_categories, smooth_measure,
                          step_with_outliers, trending_sensor,
                          mixed_magnitude_residuals, uniform_random):
            assert generator(500, seed=9).equals(generator(500, seed=9))


class TestOrdersWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        return generate_orders_workload(num_orders=2_000, num_days=300, seed=2)

    def test_table_shapes(self, workload):
        assert workload.num_orders == 2_000
        assert len(workload.orders["order_id"]) == 2_000
        assert all(len(col) == workload.num_lineitems
                   for col in workload.lineitem.values())

    def test_order_ids_unique_and_monotone(self, workload):
        ids = workload.orders["order_id"].values
        assert len(np.unique(ids)) == len(ids)
        assert workload.orders["order_id"].is_sorted()

    def test_order_dates_sorted_with_runs(self, workload):
        dates = workload.orders["order_date"]
        assert dates.is_sorted()
        assert count_runs(dates) <= 301

    def test_lineitem_foreign_keys_resolve(self, workload):
        assert set(np.unique(workload.lineitem["order_id"].values)) <= \
            set(workload.orders["order_id"].values.tolist())

    def test_ship_dates_sorted(self, workload):
        assert workload.lineitem["ship_date"].is_sorted()

    def test_quantity_and_discount_domains(self, workload):
        assert workload.lineitem["quantity"].min() >= 1
        assert workload.lineitem["quantity"].max() <= 50
        assert set(np.unique(workload.lineitem["discount"].values)) <= set(range(11))

    def test_deterministic(self):
        a = generate_orders_workload(num_orders=500, seed=7)
        b = generate_orders_workload(num_orders=500, seed=7)
        assert a.lineitem["ship_date"].equals(b.lineitem["ship_date"])

    def test_invalid_parameters(self):
        with pytest.raises(ReproError):
            generate_orders_workload(num_orders=0)
