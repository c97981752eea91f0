"""``repro.api`` — the lazy expression DSL and logical-plan query API.

The public surface of the query layer::

    from repro.api import col, count, dataset

    result = (dataset(table, "lineitem")
              .filter((col("ship_date").between(lo, hi)) & (col("qty") > 5))
              .with_column("revenue", col("price") * col("qty"))
              .group_by("discount")
              .agg(col("revenue").sum().alias("total"), count())
              .sort("total", descending=True)
              .limit(10)
              .collect())

Structure:

* :mod:`repro.api.expr` — the expression DSL (``col``/``lit``, arithmetic,
  comparisons, ``& | ~``, ``between``/``isin``, aggregates, ``alias``);
* :mod:`repro.api.logical` — the immutable plan: one scan, then a tuple of
  stages, each validated as it is appended;
* :mod:`repro.api.optimize` — one walk down the stages: boolean
  normalization, CNF splitting, filter pushdown (below select / sort /
  group-by keys), select-below-sort, then the fold into the scan with
  selectivity-based conjunct reordering and projection pruning;
* :mod:`repro.api.lower` — one :func:`repro.engine.scan.scan_table` call,
  then one loop over the stages on the engine's operator kernels;
* :mod:`repro.api.dataset` — the :class:`Dataset` facade tying it together.

This is the one front door for queries: execution options travel with the
dataset as one :class:`repro.engine.context.ExecutionContext`.
"""

from .dataset import Dataset, GroupedDataset, dataset
from .expr import Expr, col, count, lit

__all__ = [
    "Dataset",
    "GroupedDataset",
    "dataset",
    "Expr",
    "col",
    "lit",
    "count",
]
