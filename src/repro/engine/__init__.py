"""Query-execution substrate: compressed-domain kernels, physical
operators, scans.

The engine exists to demonstrate — and measure — the paper's "why it
matters": range conjuncts evaluated on compressed forms (run domain, segment
bounds, dictionary codes; all in :mod:`~repro.engine.kernels`), chunk
skipping from statistics, and late-materialisation execution where
decompression happens only for the rows and columns a query actually needs.
A scan's conjuncts and derived columns are :mod:`repro.api` expressions,
taken as they are (:func:`~repro.engine.scan.scan_table`).
"""

from .stats import PushdownStats, ScanStats
from . import kernels
from .kernels import RangeBounds
from .operators import (
    SelectionVector,
    aggregate,
    grouped_reduce,
)
from .parallel import (
    ParallelExecutionError,
    packed_source_path,
    shutdown_pools,
)
from .context import ExecutionContext
from .query import QueryResult
from .resilience import DEFAULT_FAULT_POLICY, FaultPlan, FaultPolicy
from .scan import (
    BACKENDS,
    ScanResult,
    choose_backend,
    describe_backend,
    gather_rows,
    scan_table,
)

__all__ = [
    "RangeBounds",
    "PushdownStats",
    "kernels",
    "ScanStats",
    "SelectionVector",
    "aggregate",
    "grouped_reduce",
    "QueryResult",
    "ExecutionContext",
    "ScanResult",
    "scan_table",
    "gather_rows",
    "BACKENDS",
    "choose_backend",
    "describe_backend",
    "ParallelExecutionError",
    "packed_source_path",
    "shutdown_pools",
    "FaultPlan",
    "FaultPolicy",
    "DEFAULT_FAULT_POLICY",
]
