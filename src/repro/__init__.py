"""repro — decomposable and re-composable lightweight compression for columnar DBMSes.

A from-scratch reproduction of Rozenberg, *"Decomposing and re-composing
lightweight compression schemes — and why it matters"* (ICDE 2018), built as
a usable Python library:

* :mod:`repro.columnar` — columns, the columnar operator algebra, and plans
  (decompression as data);
* :mod:`repro.schemes` — the scheme zoo (NS, DELTA, RLE, RPE, FOR, DICT,
  PFOR, VARWIDTH, LINEAR, POLY, STEPFUNCTION), composition (``Cascade``) and
  the paper's decomposition identities;
* :mod:`repro.model` — the L∞ metric, model fitting, residual analysis;
* :mod:`repro.storage` — chunks, stored columns, tables, statistics;
* :mod:`repro.io` — the packed single-file table format (mmap-lazy scans);
* :mod:`repro.engine` — the scan, compressed-form pushdown, operators,
  queries;
* :mod:`repro.api` — the lazy expression DSL (``col``/``lit``, also the
  scan's conjuncts and derived columns), the query as one scan plus a chain
  of stages, the optimizer, and the :class:`~repro.api.Dataset` facade;
* :mod:`repro.planner` — cost model, compression advisor, partial
  decompression planning;
* :mod:`repro.workloads` — synthetic data generators;
* :mod:`repro.bench` — the benchmark harness behind experiments E1–E10.

Quickstart
----------
>>> from repro import Column, schemes
>>> col = Column([3, 3, 3, 7, 7, 9])
>>> rle = schemes.RunLengthEncoding()
>>> form = rle.compress(col)
>>> rle.decompress(form).to_pylist()
[3, 3, 3, 7, 7, 9]
"""

__version__ = "1.1.0"

from .columnar import Column, Plan, PlanBuilder
from . import columnar, schemes, model, storage, engine, planner, workloads, bench
from . import api
from . import io
from .errors import ReproError

__all__ = [
    "Column",
    "Plan",
    "PlanBuilder",
    "ReproError",
    "columnar",
    "schemes",
    "model",
    "storage",
    "io",
    "engine",
    "api",
    "planner",
    "workloads",
    "bench",
    "__version__",
]
