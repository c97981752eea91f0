"""Column distance metrics.

Section II-B of the paper frames a family of compression schemes as
*a coarse low-dimensional model plus residuals*, where the choice of metric
determines what kind of residual encoding is appropriate:

* the **L∞ metric** — the largest absolute deviation — determines the fixed
  offset width of FOR (all residuals must fit in the offset width);
* the **L0 metric** — the number of positions that deviate at all — leads to
  *patched* schemes, which store the few divergent elements verbatim;
* the **bit-cost (product) metric** — the total number of bits needed to
  write down each deviation — leads to variable-width residual encodings.

This module implements those metrics over columns (and raw NumPy arrays), so
model-fitting code and the compression planner can reason about which
residual scheme a given model/data pair calls for.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..columnar.column import Column
from ..errors import ColumnError

ArrayOrColumn = Union[np.ndarray, Column]


def _values(data: ArrayOrColumn) -> np.ndarray:
    return data.values if isinstance(data, Column) else np.asarray(data)


def _check_same_length(x: np.ndarray, y: np.ndarray, metric: str) -> None:
    if x.shape != y.shape:
        raise ColumnError(
            f"{metric} metric requires equal-length columns, got {x.shape} and {y.shape}"
        )


def linf_distance(x: ArrayOrColumn, y: ArrayOrColumn) -> float:
    """L∞ distance: the maximum absolute element-wise deviation.

    This is the quantity that bounds the FOR/NS offset width: if the model is
    within L∞ distance ``d`` of the data, offsets fit in ``bits(d)`` bits.

    >>> linf_distance(np.array([1, 2, 3]), np.array([1, 5, 3]))
    3.0
    """
    xv, yv = _values(x), _values(y)
    _check_same_length(xv, yv, "L-infinity")
    if xv.size == 0:
        return 0.0
    return float(np.abs(xv.astype(np.float64) - yv.astype(np.float64)).max())


def l0_distance(x: ArrayOrColumn, y: ArrayOrColumn) -> int:
    """L0 distance: the number of positions at which the columns differ.

    The paper's patched-model extension targets columns whose data is
    "really" a step function except at a few positions — i.e. columns at a
    small L0 distance from the model.

    >>> l0_distance(np.array([1, 2, 3]), np.array([1, 5, 3]))
    1
    """
    xv, yv = _values(x), _values(y)
    _check_same_length(xv, yv, "L0")
    return int(np.count_nonzero(xv != yv))


def l1_distance(x: ArrayOrColumn, y: ArrayOrColumn) -> float:
    """L1 distance: the sum of absolute deviations (useful for diagnostics)."""
    xv, yv = _values(x), _values(y)
    _check_same_length(xv, yv, "L1")
    if xv.size == 0:
        return 0.0
    return float(np.abs(xv.astype(np.float64) - yv.astype(np.float64)).sum())


def bit_cost(value: Union[int, np.integer]) -> int:
    """The paper's per-element bit cost: ``d(x, y) = ceil(log2(|x-y| + 1))``.

    Returns 0 when the deviation is 0 (x == y).

    >>> [bit_cost(v) for v in (0, 1, 2, 3, 4, 255, 256)]
    [0, 1, 2, 2, 3, 8, 9]
    """
    magnitude = abs(int(value))
    return magnitude.bit_length()


def bit_cost_distance(x: ArrayOrColumn, y: ArrayOrColumn) -> int:
    """Product bit-cost metric: total bits needed to write down every deviation.

    ``d(x, y) = Σ_i ceil(log2(|x_i - y_i| + 1))``, the metric the paper
    associates with variable-width residual encodings.  (As in the paper, the
    per-element width bookkeeping is not charged here.)
    """
    xv, yv = _values(x), _values(y)
    _check_same_length(xv, yv, "bit-cost")
    if xv.size == 0:
        return 0
    deviation = np.abs(xv.astype(np.int64) - yv.astype(np.int64))
    nonzero = deviation[deviation > 0]
    if nonzero.size == 0:
        return 0
    # ceil(log2(m + 1)) == bit_length(m) for m >= 1.
    bits = np.floor(np.log2(nonzero.astype(np.float64))).astype(np.int64) + 1
    return int(bits.sum())


def residual_bit_width(x: ArrayOrColumn, y: ArrayOrColumn, signed: bool = True) -> int:
    """The fixed bit width a FOR-style offset column would need for ``x - y``.

    With ``signed=False`` the residuals are assumed non-negative (model is a
    per-segment minimum); otherwise a sign bit is included.
    """
    xv, yv = _values(x), _values(y)
    _check_same_length(xv, yv, "residual width")
    if xv.size == 0:
        return 1
    residual = xv.astype(np.int64) - yv.astype(np.int64)
    if not signed:
        if residual.min() < 0:
            raise ColumnError("residuals are negative but signed=False was requested")
        top = int(residual.max())
        return max(1, top.bit_length())
    lo, hi = int(residual.min()), int(residual.max())
    magnitude = max(abs(lo), abs(hi))
    return max(1, magnitude.bit_length() + 1)


METRICS = {
    "linf": linf_distance,
    "l0": l0_distance,
    "l1": l1_distance,
    "bit_cost": bit_cost_distance,
}


def distance(metric: str, x: ArrayOrColumn, y: ArrayOrColumn) -> float:
    """Dispatch to a named metric (``"linf"``, ``"l0"``, ``"l1"``, ``"bit_cost"``)."""
    if metric not in METRICS:
        raise ColumnError(f"unknown metric {metric!r}; known metrics: {sorted(METRICS)}")
    return METRICS[metric](x, y)
