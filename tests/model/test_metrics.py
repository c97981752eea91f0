"""Tests for the column metrics (L∞, L0, L1, bit-cost)."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.errors import ColumnError
from repro.model import (
    bit_cost,
    bit_cost_distance,
    distance,
    l0_distance,
    l1_distance,
    linf_distance,
    residual_bit_width,
)


class TestLinf:
    def test_basic(self):
        assert linf_distance(np.array([1, 2, 3]), np.array([1, 5, 3])) == 3.0

    def test_identical(self):
        assert linf_distance(np.array([1, 2]), np.array([1, 2])) == 0.0

    def test_accepts_columns(self):
        assert linf_distance(Column([0, 10]), Column([1, 0])) == 10.0

    def test_empty(self):
        assert linf_distance(np.array([]), np.array([])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ColumnError):
            linf_distance(np.array([1]), np.array([1, 2]))

    def test_symmetry(self):
        a, b = np.array([5, -3, 8]), np.array([-2, 4, 8])
        assert linf_distance(a, b) == linf_distance(b, a)


class TestL0:
    def test_basic(self):
        assert l0_distance(np.array([1, 2, 3]), np.array([1, 5, 3])) == 1

    def test_all_differ(self):
        assert l0_distance(np.array([1, 2]), np.array([2, 3])) == 2

    def test_none_differ(self):
        assert l0_distance(np.array([1, 2]), np.array([1, 2])) == 0


class TestL1:
    def test_basic(self):
        assert l1_distance(np.array([1, 2, 3]), np.array([2, 0, 3])) == 3.0

    def test_empty(self):
        assert l1_distance(np.array([]), np.array([])) == 0.0


class TestBitCost:
    @pytest.mark.parametrize("value,expected", [
        (0, 0), (1, 1), (-1, 1), (2, 2), (3, 2), (4, 3), (255, 8), (256, 9), (-256, 9),
    ])
    def test_single_values(self, value, expected):
        assert bit_cost(value) == expected

    def test_distance_sums_per_element_costs(self):
        x = np.array([0, 0, 0, 0])
        y = np.array([0, 1, 3, 256])
        assert bit_cost_distance(x, y) == 0 + 1 + 2 + 9

    def test_distance_zero_when_equal(self):
        x = np.array([5, 6])
        assert bit_cost_distance(x, x) == 0

    def test_empty(self):
        assert bit_cost_distance(np.array([]), np.array([])) == 0

    def test_matches_scalar_bit_cost(self):
        rng = np.random.default_rng(0)
        x = rng.integers(-1000, 1000, 200)
        y = rng.integers(-1000, 1000, 200)
        expected = sum(bit_cost(int(a) - int(b)) for a, b in zip(x, y))
        assert bit_cost_distance(x, y) == expected


class TestResidualWidth:
    def test_unsigned(self):
        assert residual_bit_width(np.array([5, 8]), np.array([5, 0]), signed=False) == 4

    def test_signed_includes_sign_bit(self):
        assert residual_bit_width(np.array([0, 10]), np.array([5, 5]), signed=True) == 4

    def test_unsigned_rejects_negative_residuals(self):
        with pytest.raises(ColumnError):
            residual_bit_width(np.array([0]), np.array([5]), signed=False)

    def test_empty(self):
        assert residual_bit_width(np.array([]), np.array([])) == 1


class TestDispatch:
    def test_named_metrics(self):
        x, y = np.array([1, 2]), np.array([2, 2])
        assert distance("linf", x, y) == 1.0
        assert distance("l0", x, y) == 1
        assert distance("l1", x, y) == 1.0
        assert distance("bit_cost", x, y) == 1

    def test_unknown_metric(self):
        with pytest.raises(ColumnError):
            distance("hamming2", np.array([1]), np.array([1]))
