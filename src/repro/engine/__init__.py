"""Query-execution substrate: predicates, compressed-domain kernels,
physical operators, scans.

The engine exists to demonstrate — and measure — the paper's "why it
matters": predicates evaluated on compressed forms (run domain, segment
bounds, dictionary codes; all in :mod:`~repro.engine.kernels`), chunk
skipping from statistics, and late-materialisation execution where
decompression happens only for the rows and columns a query actually needs.
"""

from .predicates import And, Between, Equals, IsIn, Or, Predicate, RangeBounds
from .stats import PushdownStats, ScanStats
from . import kernels
from .operators import (
    SelectionVector,
    aggregate,
    grouped_reduce,
    hash_join,
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
    "Predicate",
    "Between",
    "Equals",
    "IsIn",
    "And",
    "Or",
    "RangeBounds",
    "PushdownStats",
    "kernels",
    "ScanStats",
    "SelectionVector",
    "aggregate",
    "grouped_reduce",
    "hash_join",
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
