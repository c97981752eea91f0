"""Column models, metrics and residual analysis.

The paper's §II-B argues that FOR-like schemes split a column into a coarse
low-dimensional *model* and noise-like *residuals*, and that the metric in
which the data is close to the model dictates the residual encoding.  This
package contains:

* :mod:`repro.model.metrics` — the L∞ distance between a column and its model;
* :mod:`repro.model.fitting` — step-function, piecewise-linear and
  piecewise-polynomial model fitting over fixed-length segments;
* :mod:`repro.model.residuals` — residual profiling and the
  metric-to-residual-encoding recommendation used by the compression advisor.
"""

from .metrics import linf_distance
from .fitting import (
    SegmentedModel,
    fit_model,
    fit_piecewise_linear,
    fit_piecewise_polynomial,
    fit_step_function,
    position_in_segment,
    segment_index,
)
from .residuals import (
    ResidualProfile,
    profile_model_fit,
    profile_residuals,
    recommend_residual_encoding,
)

__all__ = [
    "linf_distance",
    "SegmentedModel",
    "fit_model",
    "fit_piecewise_linear",
    "fit_piecewise_polynomial",
    "fit_step_function",
    "position_in_segment",
    "segment_index",
    "ResidualProfile",
    "profile_model_fit",
    "profile_residuals",
    "recommend_residual_encoding",
]
