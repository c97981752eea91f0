"""Fitting low-dimensional column models.

The paper's §II-B reads FOR as *"the evaluation of a step function plus
narrow residuals"* and immediately suggests richer models: piecewise-linear
functions ("an offset from a diagonal line at some slope"), and more
generally stepwise low-degree polynomials or splines.  It also notes the
compression-side consequence: richer models need curve fitting rather than
"taking the minimum or the middle of the range of values".

This module is that fitting code.  Every fit returns a :class:`SegmentedModel`
— per-segment coefficients plus a vectorised ``predict`` — and the schemes in
:mod:`repro.schemes` store the model coefficients and (for lossless use) the
integer residuals.

All models use fixed-length segments, matching the paper's framing of FOR as
a fixed-segment-length scheme.  Fits are vectorised across segments wherever
possible (closed-form step and linear fits); the general polynomial fit
falls back to a per-segment least-squares loop, which is acceptable because
the number of segments is ``n / segment_length``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Tuple

import numpy as np

from ..columnar.column import Column
from ..errors import ModelFitError

ReferencePolicy = Literal["min", "mid", "first", "mean"]


def _segment_bounds(n: int, segment_length: int) -> Tuple[int, int]:
    """Number of segments and the length of the (possibly shorter) last one."""
    if segment_length <= 0:
        raise ModelFitError(f"segment_length must be positive, got {segment_length}")
    if n == 0:
        return 0, 0
    num_segments = (n + segment_length - 1) // segment_length
    last_length = n - (num_segments - 1) * segment_length
    return num_segments, last_length


def segment_index(n: int, segment_length: int) -> np.ndarray:
    """The segment id of every position (``position // segment_length``)."""
    if segment_length <= 0:
        raise ModelFitError(f"segment_length must be positive, got {segment_length}")
    return np.arange(n, dtype=np.int64) // segment_length


def position_in_segment(n: int, segment_length: int) -> np.ndarray:
    """The within-segment position of every element (``position % segment_length``)."""
    if segment_length <= 0:
        raise ModelFitError(f"segment_length must be positive, got {segment_length}")
    return np.arange(n, dtype=np.int64) % segment_length


@dataclass
class SegmentedModel:
    """A per-segment polynomial model of a column.

    Attributes
    ----------
    coefficients:
        Array of shape ``(num_segments, degree + 1)``; ``coefficients[s, k]``
        is the coefficient of ``x**k`` for segment ``s``, where ``x`` is the
        *within-segment* position.  Degree 0 is a step function, degree 1 a
        piecewise-linear model, and so on.
    segment_length:
        Fixed segment length the model was fitted with.
    length:
        Length of the modelled column.
    degree:
        Polynomial degree (``coefficients.shape[1] - 1``).
    """

    coefficients: np.ndarray
    segment_length: int
    length: int

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.coefficients.ndim != 2:
            raise ModelFitError("coefficients must be a (segments, degree+1) matrix")

    @property
    def degree(self) -> int:
        return int(self.coefficients.shape[1] - 1)

    @property
    def num_segments(self) -> int:
        return int(self.coefficients.shape[0])

    def predict(self, round_to_int: bool = True) -> np.ndarray:
        """Evaluate the model at every position of the original column.

        With ``round_to_int=True`` (the default) the prediction is rounded to
        the nearest integer — the form used by the lossless model+residual
        schemes, whose residuals are ``data - round(prediction)``.
        """
        n = self.length
        if n == 0:
            return np.empty(0, dtype=np.int64 if round_to_int else np.float64)
        seg = segment_index(n, self.segment_length)
        pos = position_in_segment(n, self.segment_length).astype(np.float64)
        # Horner evaluation across all elements at once.
        prediction = np.zeros(n, dtype=np.float64)
        for k in range(self.degree, -1, -1):
            prediction = prediction * pos + self.coefficients[seg, k]
        if round_to_int:
            return np.rint(prediction).astype(np.int64)
        return prediction

    def residuals(self, values: np.ndarray) -> np.ndarray:
        """Integer residuals ``values - round(prediction)``."""
        values = np.asarray(values)
        if len(values) != self.length:
            raise ModelFitError(
                f"model describes {self.length} values, got {len(values)} to diff against"
            )
        return values.astype(np.int64) - self.predict(round_to_int=True)


def _as_values(column) -> np.ndarray:
    values = column.values if isinstance(column, Column) else np.asarray(column)
    if values.ndim != 1:
        raise ModelFitError("model fitting requires a one-dimensional column")
    return values


# --------------------------------------------------------------------------- #
# Degree-0: step functions (FOR references)
# --------------------------------------------------------------------------- #

def fit_step_function(column, segment_length: int,
                      policy: ReferencePolicy = "min") -> SegmentedModel:
    """Fit a fixed-segment-length step function (degree-0 model).

    *policy* selects the per-segment constant:

    * ``"min"`` — the segment minimum; residuals are non-negative, which is
      the classic FOR reference choice;
    * ``"mid"`` — the midpoint of the segment's range; halves the residual
      magnitude at the cost of signed residuals ("taking ... the middle of
      the range of values", §II-B);
    * ``"first"`` — the segment's first element (cheapest to compute, and the
      natural choice for sorted data);
    * ``"mean"`` — the rounded segment mean (minimises L2, not L∞).
    """
    values = _as_values(column)
    n = len(values)
    num_segments, last_length = _segment_bounds(n, segment_length)
    if num_segments == 0:
        return SegmentedModel(np.empty((0, 1)), segment_length, 0)

    refs = np.empty(num_segments, dtype=np.float64)
    full = values[: (num_segments - 1) * segment_length].reshape(-1, segment_length) \
        if num_segments > 1 else values[:0].reshape(0, segment_length)
    tail = values[(num_segments - 1) * segment_length:]

    def per_segment(reducer_full, reducer_tail):
        if num_segments > 1:
            refs[:-1] = reducer_full(full)
        refs[-1] = reducer_tail(tail)

    if policy == "min":
        per_segment(lambda m: m.min(axis=1), lambda t: t.min())
    elif policy == "mid":
        per_segment(lambda m: (m.min(axis=1) + m.max(axis=1)) / 2.0,
                    lambda t: (t.min() + t.max()) / 2.0)
    elif policy == "first":
        per_segment(lambda m: m[:, 0], lambda t: t[0])
    elif policy == "mean":
        per_segment(lambda m: np.rint(m.mean(axis=1)), lambda t: np.rint(t.mean()))
    else:
        raise ModelFitError(f"unknown reference policy {policy!r}")

    return SegmentedModel(refs.reshape(-1, 1), segment_length, n)


# --------------------------------------------------------------------------- #
# Degree-1: piecewise-linear models
# --------------------------------------------------------------------------- #

def fit_piecewise_linear(column, segment_length: int) -> SegmentedModel:
    """Fit a least-squares line per segment (degree-1 model).

    The fit is closed-form and vectorised across all full segments:
    ``slope = cov(x, y) / var(x)``, ``intercept = mean(y) - slope * mean(x)``
    with ``x`` the within-segment position.  Segments of length 1 (and the
    possibly-short last segment) are handled separately.
    """
    values = _as_values(column).astype(np.float64)
    n = len(values)
    num_segments, last_length = _segment_bounds(n, segment_length)
    if num_segments == 0:
        return SegmentedModel(np.empty((0, 2)), segment_length, 0)

    coeffs = np.zeros((num_segments, 2), dtype=np.float64)
    x = np.arange(segment_length, dtype=np.float64)
    x_mean = x.mean()
    x_var = ((x - x_mean) ** 2).sum()

    if num_segments > 1:
        full = values[: (num_segments - 1) * segment_length].reshape(-1, segment_length)
        y_mean = full.mean(axis=1)
        if x_var > 0:
            slope = ((full - y_mean[:, None]) * (x - x_mean)[None, :]).sum(axis=1) / x_var
        else:
            slope = np.zeros(num_segments - 1)
        intercept = y_mean - slope * x_mean
        coeffs[:-1, 0] = intercept
        coeffs[:-1, 1] = slope

    tail = values[(num_segments - 1) * segment_length:]
    if last_length == 1:
        coeffs[-1] = (tail[0], 0.0)
    else:
        xt = np.arange(last_length, dtype=np.float64)
        xt_mean, yt_mean = xt.mean(), tail.mean()
        xt_var = ((xt - xt_mean) ** 2).sum()
        slope_t = ((tail - yt_mean) * (xt - xt_mean)).sum() / xt_var if xt_var > 0 else 0.0
        coeffs[-1] = (yt_mean - slope_t * xt_mean, slope_t)

    return SegmentedModel(coeffs, segment_length, n)


# --------------------------------------------------------------------------- #
# Degree-d: piecewise-polynomial models
# --------------------------------------------------------------------------- #

def fit_piecewise_polynomial(column, segment_length: int, degree: int) -> SegmentedModel:
    """Fit a least-squares polynomial of *degree* per segment.

    Degrees 0 and 1 delegate to the specialised (vectorised) fits; higher
    degrees run one small least-squares problem per segment, over the
    segment less its first value (added back into the constant
    coefficient): a fit of large values loses their low bits to rounding.
    """
    if degree < 0:
        raise ModelFitError(f"polynomial degree must be non-negative, got {degree}")
    if degree == 0:
        return fit_step_function(column, segment_length, policy="mean")
    if degree == 1:
        return fit_piecewise_linear(column, segment_length)

    values = _as_values(column).astype(np.float64)
    n = len(values)
    num_segments, __ = _segment_bounds(n, segment_length)
    if num_segments == 0:
        return SegmentedModel(np.empty((0, degree + 1)), segment_length, 0)

    coeffs = np.zeros((num_segments, degree + 1), dtype=np.float64)
    for s in range(num_segments):
        start = s * segment_length
        seg_values = values[start: start + segment_length]
        x = np.arange(len(seg_values), dtype=np.float64)
        effective_degree = min(degree, len(seg_values) - 1)
        if effective_degree <= 0:
            coeffs[s, 0] = seg_values[0]
            continue
        # numpy.polynomial convention: coefficients in increasing order of power.
        fitted = np.polynomial.polynomial.polyfit(x, seg_values - seg_values[0], effective_degree)
        fitted[0] += seg_values[0]
        coeffs[s, : len(fitted)] = fitted
    return SegmentedModel(coeffs, segment_length, n)


def fit_model(column, segment_length: int, degree: int = 0,
              policy: ReferencePolicy = "min") -> SegmentedModel:
    """Convenience dispatcher: degree 0 honours *policy*, higher degrees fit LSQ."""
    if degree == 0:
        return fit_step_function(column, segment_length, policy=policy)
    return fit_piecewise_polynomial(column, segment_length, degree)
