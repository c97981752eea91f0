"""Tests for the L∞ column metric (what experiment E5 reports)."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.errors import ColumnError
from repro.model import linf_distance


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
