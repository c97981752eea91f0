"""Tests for model fitting (step functions, piecewise linear/polynomial)."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.errors import ModelFitError
from repro.model import (
    SegmentedModel,
    fit_model,
    fit_piecewise_linear,
    fit_piecewise_polynomial,
    fit_step_function,
    position_in_segment,
    segment_index,
)


class TestSegmentHelpers:
    def test_segment_index(self):
        assert segment_index(5, 2).tolist() == [0, 0, 1, 1, 2]

    def test_position_in_segment(self):
        assert position_in_segment(5, 2).tolist() == [0, 1, 0, 1, 0]

    def test_invalid_segment_length(self):
        with pytest.raises(ModelFitError):
            segment_index(5, 0)


class TestStepFunctionFit:
    def test_min_policy(self):
        col = Column([5, 3, 9, 100, 120, 110])
        model = fit_step_function(col, 3, policy="min")
        assert model.coefficients[:, 0].tolist() == [3.0, 100.0]

    def test_mid_policy(self):
        col = Column([0, 10, 4, 6])
        model = fit_step_function(col, 4, policy="mid")
        assert model.coefficients[0, 0] == 5.0

    def test_first_policy(self):
        col = Column([7, 3, 9, 2, 5])
        model = fit_step_function(col, 3, policy="first")
        assert model.coefficients[:, 0].tolist() == [7.0, 2.0]

    def test_mean_policy(self):
        col = Column([1, 3, 2, 2])
        model = fit_step_function(col, 4, policy="mean")
        assert model.coefficients[0, 0] == 2.0

    def test_unknown_policy(self):
        with pytest.raises(ModelFitError):
            fit_step_function(Column([1, 2]), 2, policy="bogus")

    def test_short_last_segment(self):
        col = Column([5, 6, 7, 1])
        model = fit_step_function(col, 3, policy="min")
        assert model.num_segments == 2
        assert model.coefficients[1, 0] == 1.0

    def test_prediction_is_step_function(self):
        col = Column([5, 3, 9, 100, 120, 110])
        model = fit_step_function(col, 3, policy="min")
        assert model.predict().tolist() == [3, 3, 3, 100, 100, 100]

    def test_min_policy_residuals_nonnegative(self, smooth_data):
        model = fit_step_function(smooth_data, 64, policy="min")
        assert model.residuals(smooth_data.values).min() >= 0

    def test_mid_policy_shrinks_linf(self, smooth_data):
        mid = fit_step_function(smooth_data, 64, policy="mid")
        minimum = fit_step_function(smooth_data, 64, policy="min")
        assert np.abs(mid.residuals(smooth_data.values)).max() <= \
            np.abs(minimum.residuals(smooth_data.values)).max()

    def test_empty_column(self):
        model = fit_step_function(Column.empty(), 8)
        assert model.num_segments == 0
        assert model.predict().size == 0


class TestLinearFit:
    def test_exact_line(self):
        col = Column(3 * np.arange(64) + 10)
        model = fit_piecewise_linear(col, 32)
        assert np.allclose(model.coefficients[:, 1], 3.0)
        assert np.array_equal(model.predict(), col.values)

    def test_residuals_smaller_than_step_model(self, trending_data):
        linear = fit_piecewise_linear(trending_data, 128)
        step = fit_step_function(trending_data, 128, policy="min")
        assert np.abs(linear.residuals(trending_data.values)).max() < \
            np.abs(step.residuals(trending_data.values)).max()

    def test_short_last_segment(self):
        col = Column(np.arange(10, dtype=np.int64))
        model = fit_piecewise_linear(col, 8)
        assert model.num_segments == 2
        assert np.array_equal(model.predict(), col.values)

    def test_single_element_segment(self):
        col = Column([5, 6, 7, 42])
        model = fit_piecewise_linear(col, 3)
        assert model.coefficients[1, 0] == 42.0
        assert model.coefficients[1, 1] == 0.0

    def test_segment_length_one(self):
        col = Column([9, 7, 5])
        model = fit_piecewise_linear(col, 1)
        assert np.array_equal(model.predict(), col.values)

    def test_empty(self):
        assert fit_piecewise_linear(Column.empty(), 4).num_segments == 0


class TestPolynomialFit:
    def test_exact_quadratic(self):
        x = np.arange(32, dtype=np.float64)
        col = Column((2 * x * x + 3 * x + 1).astype(np.int64))
        model = fit_piecewise_polynomial(col, 32, degree=2)
        assert np.array_equal(model.predict(), col.values)

    def test_degree_zero_delegates_to_step(self):
        col = Column([1, 5, 3, 4])
        model = fit_piecewise_polynomial(col, 2, degree=0)
        assert model.degree == 0

    def test_degree_one_delegates_to_linear(self):
        col = Column(np.arange(16))
        model = fit_piecewise_polynomial(col, 8, degree=1)
        assert model.degree == 1
        assert np.array_equal(model.predict(), col.values)

    def test_negative_degree_rejected(self):
        with pytest.raises(ModelFitError):
            fit_piecewise_polynomial(Column([1]), 2, degree=-1)

    def test_segment_shorter_than_degree(self):
        col = Column([3, 8])
        model = fit_piecewise_polynomial(col, 8, degree=3)
        assert np.array_equal(model.predict(), col.values)

    def test_higher_degree_never_worse_l1(self, trending_data):
        quadratic = fit_piecewise_polynomial(trending_data, 128, degree=2)
        linear = fit_piecewise_polynomial(trending_data, 128, degree=1)
        assert np.abs(quadratic.residuals(trending_data.values)).sum() <= \
            np.abs(linear.residuals(trending_data.values)).sum() * 1.001


class TestSegmentedModel:
    def test_degree_and_segments_follow_the_coefficients(self):
        model = SegmentedModel(np.zeros((4, 3)), 16, 64)
        assert model.degree == 2
        assert model.num_segments == 4

    def test_invalid_coefficients_shape(self):
        with pytest.raises(ModelFitError):
            SegmentedModel(np.zeros(4), 16, 64)

    def test_residual_length_mismatch(self):
        model = fit_step_function(Column([1, 2, 3, 4]), 2)
        with pytest.raises(ModelFitError):
            model.residuals(np.array([1, 2]))

    def test_float_prediction(self):
        model = fit_piecewise_linear(Column([0, 1, 2, 3]), 4)
        prediction = model.predict(round_to_int=False)
        assert prediction.dtype == np.float64

    def test_fit_model_dispatcher(self, smooth_data):
        step = fit_model(smooth_data, 64, degree=0, policy="mid")
        linear = fit_model(smooth_data, 64, degree=1)
        assert step.degree == 0 and linear.degree == 1
