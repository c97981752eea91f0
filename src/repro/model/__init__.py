"""Column models, metrics and residual analysis.

The paper's §II-B argues that FOR-like schemes split a column into a coarse
low-dimensional *model* and noise-like *residuals*, and that the metric in
which the data is close to the model dictates the residual encoding.  This
package contains:

* :mod:`repro.model.metrics` — the L∞, L0, L1 and bit-cost metrics;
* :mod:`repro.model.fitting` — step-function, piecewise-linear and
  piecewise-polynomial model fitting over fixed-length segments;
* :mod:`repro.model.residuals` — residual profiling and the
  metric-to-residual-encoding recommendation used by the compression advisor.
"""

from .metrics import (
    METRICS,
    bit_cost,
    bit_cost_distance,
    distance,
    l0_distance,
    l1_distance,
    linf_distance,
    residual_bit_width,
)
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
    "METRICS",
    "bit_cost",
    "bit_cost_distance",
    "distance",
    "l0_distance",
    "l1_distance",
    "linf_distance",
    "residual_bit_width",
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
