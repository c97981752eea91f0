"""Column distance metrics.

Section II-B of the paper frames a family of compression schemes as
*a coarse low-dimensional model plus residuals*, where the choice of metric
determines what kind of residual encoding is appropriate: the **L∞ metric**
(the largest absolute deviation) fixes FOR's offset width, the **L0 metric**
(how many positions deviate) calls for patches, the **bit-cost metric** for
variable-width residuals.  The last two are read off the residuals
themselves (:mod:`repro.model.residuals`); this module keeps the L∞
distance between a column and its model, which experiment E5 reports.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..columnar.column import Column
from ..errors import ColumnError

ArrayOrColumn = Union[np.ndarray, Column]


def _values(data: ArrayOrColumn) -> np.ndarray:
    return data.values if isinstance(data, Column) else np.asarray(data)


def linf_distance(x: ArrayOrColumn, y: ArrayOrColumn) -> float:
    """L∞ distance: the maximum absolute element-wise deviation.

    This is the quantity that bounds the FOR/NS offset width: if the model is
    within L∞ distance ``d`` of the data, offsets fit in ``bits(d)`` bits.

    >>> linf_distance(np.array([1, 2, 3]), np.array([1, 5, 3]))
    3.0
    """
    xv, yv = _values(x), _values(y)
    if xv.shape != yv.shape:
        raise ColumnError(
            f"L-infinity metric requires equal-length columns, got {xv.shape} and {yv.shape}"
        )
    if xv.size == 0:
        return 0.0
    return float(np.abs(xv.astype(np.float64) - yv.astype(np.float64)).max())
