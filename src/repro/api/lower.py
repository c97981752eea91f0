"""Lowering: execute an optimized logical plan on the scan scheduler.

The interesting work is at the :class:`~repro.api.logical.PScan` boundary —
one ``PScan`` becomes one :func:`repro.engine.scan.scan_table` call, which
takes the conjuncts and derived expressions as they are: the scan itself
sends a one-column conjunct through the zone-map → compressed-form-pushdown
→ decompress-and-evaluate cascade and any other over the chunk range's
shared buffers.  The only thing decided here is the label ``explain()``
prints (:func:`classify_conjunct`): ``"native"`` for a conjunct the range
rule reads as a range of an integer column
(:func:`repro.engine.scan.conjunct_range`), ``"expr"`` for any other
one-column conjunct, ``"rows"`` for one over several columns.

Every optimized plan is a chain over exactly one ``PScan``.  Everything
above it (grouped/scalar aggregation, sorting, top-k limits, residual
filters) executes on in-memory frames of
:class:`~repro.columnar.column.Column` s through the existing
:mod:`repro.engine.operators` kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..columnar.column import Column
from ..errors import QueryError
from ..engine import kernels
from ..engine.operators import aggregate as scalar_aggregate, \
    evaluate_over, grouped_reduce, is_integral
from ..engine.context import ExecutionContext
from ..engine.stats import ScanStats
from ..engine.scan import conjunct_range, empty_outputs, kernel_bounds, scan_table
from ..storage.table import Table
from . import logical
from .expr import AggExpr, ColumnRef, Expr

__all__ = [
    "classify_conjunct",
    "execute",
    "run_plan",
    "Frame",
]


# --------------------------------------------------------------------------- #
# Conjunct classification
# --------------------------------------------------------------------------- #

def conjunct_execution_domain(conjunct: logical.Conjunct, table: Table,
                               context: ExecutionContext, outputs: Sequence[str] = ()) -> str:
    """Where *conjunct* will evaluate, as ``explain()`` labels it:
    ``"compressed"`` for a conjunct that is exactly a range
    (:func:`repro.engine.scan.kernel_bounds`) when pushdown is on and every
    chunk of its column has a range-filter kernel (cascaded forms through
    their outer scheme), ``"decompress"`` otherwise — including a column
    among the scan's *outputs* (materialised, or read by a conjunct over
    several columns) on a chunk whose kernel would itself decode it: the
    range then compares the decoded values (``kernels.filter_range_decodes``,
    the scan's own rule).
    Asked when a plan is explained, not built: it reads every chunk's form,
    and a query over a packed file builds only the forms its scan touches."""
    if not context.use_pushdown or kernel_bounds(conjunct.expr, table) is None:
        return "decompress"
    name = conjunct.expr.columns()[0]
    if not _column_fully_capable(table, name, kernels.KERNEL_FILTER_RANGE) or (
            name in outputs and any(kernels.filter_range_decodes(chunk.scheme, chunk.form)
                                    for chunk in table.column(name).chunks)):
        return "decompress"
    return "compressed"


def classify_conjunct(expr: Expr, table: Table, source_order: int
                      ) -> logical.Conjunct:
    """Label one CNF conjunct native / expr / rows (see the module docstring)."""
    if conjunct_range(expr, table) is not None:
        kind = "native"
    else:
        kind = "expr" if len(expr.columns()) == 1 else "rows"
    return logical.Conjunct(expr=expr, kind=kind, source_order=source_order)


# --------------------------------------------------------------------------- #
# Frames (in-memory intermediate results)
# --------------------------------------------------------------------------- #

@dataclass
class Frame:
    """A materialised intermediate result."""

    columns: Dict[str, Column]
    row_count: int
    scalars: Dict[str, Any] = field(default_factory=dict)
    #: The statistics of the plan's one scan (``None`` for a scan the
    #: optimizer folded to always-empty).
    stats: Optional[ScanStats] = None
    #: For aggregate frames: how many input rows were aggregated (the seed
    #: engine reports this as ``QueryResult.row_count``).
    aggregated_rows: Optional[int] = None

    def env(self) -> Dict[str, np.ndarray]:
        return {name: column.values for name, column in self.columns.items()}

    def take(self, order: np.ndarray) -> "Frame":
        return Frame(
            columns={name: Column(column.values[order], name=name)
                     for name, column in self.columns.items()},
            row_count=int(order.size),
            scalars=dict(self.scalars),
            stats=self.stats,
        )


def _evaluate_full(expr: Expr, env: Mapping[str, np.ndarray],
                   row_count: int) -> np.ndarray:
    """Evaluate *expr* over *env*, broadcasting constants to *row_count*."""
    value = np.asarray(expr.evaluate(env))
    if value.ndim == 0:
        value = np.full(row_count, value[()])
    return value


# --------------------------------------------------------------------------- #
# Node executors
# --------------------------------------------------------------------------- #

def _empty_scan_frame(node: logical.PScan) -> Frame:
    """A zero-row frame for a scan the optimizer folded to always-empty."""
    arrays = empty_outputs(node.table, node.materialize, node.derived)
    columns = {name: Column(arrays[name], name=name) for name in node.output}
    return Frame(columns=columns, row_count=0)


def _exec_pscan(node: logical.PScan, context: ExecutionContext) -> Frame:
    if node.always_empty:
        return _empty_scan_frame(node)
    scan = scan_table(node.table, [c.expr for c in node.conjuncts],
                      materialize=node.materialize, derive=node.derived, context=context)
    columns = {name: scan.columns[name] for name in node.output}
    return Frame(columns=columns, row_count=len(scan.selection),
                 stats=scan.stats)


def _exec_filter(node: logical.Filter, context: ExecutionContext) -> Frame:
    child = execute(node.child, context)
    mask = np.asarray(_evaluate_full(node.predicate, child.env(),
                                     child.row_count), dtype=bool)
    return child.take(np.flatnonzero(mask))


def _exec_project(node: logical.Project, context: ExecutionContext) -> Frame:
    child = execute(node.child, context)
    env = child.env()
    columns = {}
    for expr in node.exprs:
        name = expr.output_name()
        columns[name] = Column(_evaluate_full(expr, env, child.row_count),
                               name=name)
    return Frame(columns=columns, row_count=child.row_count,
                 stats=child.stats)


def _exec_with_column(node: logical.WithColumn, context: ExecutionContext) -> Frame:
    child = execute(node.child, context)
    value = _evaluate_full(node.expr, child.env(), child.row_count)
    columns = dict(child.columns)
    columns[node.name] = Column(value, name=node.name)
    return Frame(columns=columns, row_count=child.row_count,
                 stats=child.stats)


def _factorize(arrays: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], np.ndarray]:
    """Factorise one or more equal-length key arrays into group codes.

    Returns ``(unique key arrays, codes)`` with groups in ascending
    lexicographic key order (matching ``np.unique`` for a single key).
    """
    if len(arrays) == 1:
        unique, codes = np.unique(arrays[0], return_inverse=True)
        return [unique], codes.reshape(-1)
    length = arrays[0].shape[0]
    if length == 0:
        return [array[:0] for array in arrays], np.empty(0, dtype=np.int64)
    order = np.lexsort(tuple(arrays[::-1]))
    sorted_arrays = [array[order] for array in arrays]
    changes = np.zeros(length, dtype=bool)
    changes[0] = True
    for array in sorted_arrays:
        changes[1:] |= array[1:] != array[:-1]
    group_of_sorted = np.cumsum(changes) - 1
    codes = np.empty(length, dtype=np.int64)
    codes[order] = group_of_sorted
    starts = np.flatnonzero(changes)
    return [array[starts] for array in sorted_arrays], codes


def _column_fully_capable(table: Table, name: str, kernel: str) -> bool:
    return all(kernels.supports(chunk.scheme, chunk.form, kernel)
               for chunk in table.column(name).chunks)


_FOLD_OPS = ("count", "sum", "min", "max")


def aggregate_fold_plan(node: logical.Aggregate) -> Union[Dict[str, Any], str]:
    """Plan the per-range fold of *node*, or say why it materialises.

    The one eligibility rule.  An aggregate folds — every chunk range
    reduces its own rows into a mergeable state where their chunks are, and
    neither operand nor key columns ever materialise table-wide — when its
    child is a scan that is not provably empty, it has at most one group
    key, of integer or boolean dtype, and every aggregate is
    count/sum/min/max with ``sum`` over integer or boolean operands only.
    The plan is the folding :func:`scan_table` call's ``materialize``,
    ``derive`` and ``aggregates``: an operand or key that is a stored column
    is named and read through the kernels; any other expression over the
    scan's outputs is evaluated per range (its dtype is read here by
    evaluating it over empty inputs).  Everything else returns the reason as
    a string and runs on :func:`_exec_aggregate_materialized`.
    ``explain()`` derives its labels from the same decision
    (:func:`aggregate_execution_domains`), so the report cannot drift from
    the executor.
    """
    child = node.child
    if not isinstance(child, logical.PScan):
        return "its input is not a scan"
    if child.always_empty:
        return "the scan is provably empty"
    if len(node.keys) > 1:
        return "more than one group key"
    table = child.table
    empty = empty_outputs(table, child.materialize, child.derived)
    read: List[str] = []  # scan outputs the expression operands read

    def operand_of(expr: Expr) -> Tuple[Any, np.dtype]:
        core = logical.unwrap_alias(expr)
        if isinstance(core, ColumnRef) and core.name in child.materialize:
            return core.name, table.column(core.name).dtype
        read.extend(core.columns())
        return core, evaluate_over(core, empty, 0).dtype

    key = None
    if node.keys:
        key, dtype = operand_of(node.keys[0])
        if not is_integral(dtype):
            return "float group keys: NaN grouping is decided table-wide"
    aggregates: List[Tuple[str, str, Any]] = []
    for agg in node.aggregates:
        core = logical.unwrap_alias(agg)
        assert isinstance(core, AggExpr)
        if core.op not in _FOLD_OPS:
            return f"{core.op} has no bit-identical mergeable state"
        operand = None
        if core.op != "count" and core.operand is not None:  # counts read nothing
            operand, dtype = operand_of(core.operand)
            if core.op == "sum" and not is_integral(dtype):
                return "a float sum depends on the order of its addends"
        aggregates.append((agg.output_name(), core.op, operand))
    return {"materialize": [name for name in child.materialize if name in read],
            "derive": [(name, expr) for name, expr in child.derived if name in read],
            "aggregates": {"key": key, "aggregates": aggregates}}


def aggregate_execution_domains(node: logical.Aggregate,
                                context: ExecutionContext
                                ) -> List[Tuple[str, str]]:
    """Per-aggregate labels for ``explain()``: where the operands are read.

    Returns ``(label, "compressed" | "decompress")`` pairs — empty when the
    child is not a scan (nothing to say about in-memory frames).
    ``"compressed"``: the fold stays in the compressed domain, whatever the
    selection — every operand is a stored column whose chunks all have the
    gather kernel (a count reads nothing) and the key's chunks all have
    group codes — so nothing decompresses for this aggregate.
    ``"decompress"``: some operand or key is an expression or lacks a
    kernel, compressed execution is off, or the aggregate materialises its
    input; ranges then read decompressed values (stored columns still
    gather positionally where hits are sparse).
    """
    if not isinstance(node.child, logical.PScan):
        return []
    names = [agg.output_name() for agg in node.aggregates]
    if node.keys:
        keys = ", ".join(key.output_name() for key in node.keys)
        names.insert(0, f"group by {keys}")
    plan = aggregate_fold_plan(node)
    compressed = not isinstance(plan, str) and context.use_compressed_exec
    if compressed:
        spec = plan["aggregates"]
        reads = [(operand, kernels.KERNEL_GATHER)
                 for __, __, operand in spec["aggregates"] if operand is not None]
        if spec["key"] is not None:
            reads.append((spec["key"], kernels.KERNEL_GROUP_CODES))
        compressed = all(
            isinstance(operand, str) and _column_fully_capable(
                node.child.table, operand, kernel) for operand, kernel in reads)
    domain = "compressed" if compressed else "decompress"
    return [(name, domain) for name in names]


def _exec_aggregate(node: logical.Aggregate, context: ExecutionContext) -> Frame:
    """The one aggregate router: fold per range through the scan when
    :func:`aggregate_fold_plan` allows, on either backend, else materialise.
    The fold is bit-identical to the materialising path."""
    plan = aggregate_fold_plan(node)
    if isinstance(plan, str):
        return _exec_aggregate_materialized(node, context)
    child = node.child
    scan = scan_table(child.table, [c.expr for c in child.conjuncts], context=context,
                      **plan)
    state, rows = scan.state, scan.stats.rows_selected
    if not node.keys:
        scalars = {name: agg_state.finalize()
                   for name, agg_state in state.items()}
        return Frame(columns={}, row_count=rows, scalars=scalars,
                     stats=scan.stats, aggregated_rows=rows)
    key_output = node.keys[0].output_name()
    columns = {key_output: Column(state.keys, name=key_output)}
    for name, (__, values) in state.aggregates.items():
        columns[name] = Column(values, name=name)
    return Frame(columns=columns, row_count=int(state.keys.size),
                 stats=scan.stats, aggregated_rows=rows)


def _exec_aggregate_materialized(node: logical.Aggregate,
                                 context: ExecutionContext) -> Frame:
    """Aggregate a materialised frame: execute the child, evaluate keys and
    operands over its whole columns, factorise, reduce.

    Only what :func:`aggregate_fold_plan` turns away runs here: frames that
    are not scans (post-sort, post-limit), more than one group
    key, float ``sum`` (it depends on the order its addends meet, so it has
    no mergeable state; here the selection's values add in selection
    order), ``mean`` (NumPy's pairwise float mean of an integer column is
    not ``exact_sum / count`` bit for bit), float group keys
    (``np.unique``'s NaN grouping is decided once, table-wide), and scans
    the optimizer proved empty.
    """
    child = execute(node.child, context)
    env = child.env()
    if not node.keys:
        scalars: Dict[str, Any] = {}
        for agg in node.aggregates:
            core = logical.unwrap_alias(agg)
            assert isinstance(core, AggExpr)
            name = agg.output_name()
            if core.operand is None:  # count(*)
                scalars[name] = child.row_count
                continue
            values = Column(_evaluate_full(core.operand, env, child.row_count))
            scalars[name] = scalar_aggregate(values, core.op)
        return Frame(columns={}, row_count=child.row_count, scalars=scalars,
                     stats=child.stats,
                     aggregated_rows=child.row_count)

    key_arrays = [_evaluate_full(key, env, child.row_count) for key in node.keys]
    uniques, codes = _factorize(key_arrays)
    num_groups = int(uniques[0].shape[0])
    columns: Dict[str, Column] = {}
    for key, unique in zip(node.keys, uniques):
        name = key.output_name()
        columns[name] = Column(unique, name=name)
    for agg in node.aggregates:
        core = logical.unwrap_alias(agg)
        assert isinstance(core, AggExpr)
        name = agg.output_name()
        if core.operand is None:
            values: Optional[Column] = None
        else:
            values = Column(_evaluate_full(core.operand, env, child.row_count))
        columns[name] = grouped_reduce(codes, num_groups, values,
                                       core.op).rename(name)
    return Frame(columns=columns, row_count=num_groups,
                 stats=child.stats,
                 aggregated_rows=child.row_count)


def _sort_codes(expr: Expr, descending: bool, env: Mapping[str, np.ndarray],
                row_count: int) -> np.ndarray:
    """Integer sort codes for one key: factorised ranks, negated for DESC.

    Working in rank space keeps descending order safe for every dtype
    (negating uint64 or boolean values directly would wrap).
    """
    values = _evaluate_full(expr, env, row_count)
    codes = np.unique(values, return_inverse=True)[1].reshape(-1).astype(np.int64)
    return -codes if descending else codes


def _exec_sort(node: logical.Sort, context: ExecutionContext) -> Frame:
    child = execute(node.child, context)
    env = child.env()
    code_arrays = [_sort_codes(key, desc, env, child.row_count)
                   for key, desc in zip(node.by, node.descending)]
    order = np.lexsort(tuple(code_arrays[::-1]))
    return child.take(order)


def _exec_limit(node: logical.Limit, context: ExecutionContext) -> Frame:
    # Top-k: Limit directly above a single-key Sort avoids the full stable
    # permutation — rank codes are still built with one np.unique sort of
    # the key (dtype-safe for uint64/bool), but the frame rows are only
    # partitioned and the k winners sorted.  A position-salted composite key
    # keeps the selection and order bit-identical to full-sort-then-slice.
    child_node = node.child
    if isinstance(child_node, logical.Sort) and len(child_node.by) == 1:
        base = execute(child_node.child, context)
        n = base.row_count
        count = min(node.count, n)
        codes = _sort_codes(child_node.by[0], child_node.descending[0],
                            base.env(), n)
        if 0 < count < n and n < (1 << 31):
            composite = codes * n + np.arange(n, dtype=np.int64)
            top = np.argpartition(composite, count - 1)[:count]
            order = top[np.argsort(composite[top], kind="stable")]
            return base.take(order)
        order = np.lexsort((codes,))[:count]
        return base.take(order)
    child = execute(child_node, context)
    count = min(node.count, child.row_count)
    order = np.arange(count, dtype=np.int64)
    return child.take(order)


_EXECUTORS = {
    logical.PScan: _exec_pscan,
    logical.Filter: _exec_filter,
    logical.Project: _exec_project,
    logical.WithColumn: _exec_with_column,
    logical.Aggregate: _exec_aggregate,
    logical.Sort: _exec_sort,
    logical.Limit: _exec_limit,
}


def execute(node: logical.LogicalNode, context: ExecutionContext) -> Frame:
    """Execute an optimized plan node, returning its frame."""
    executor = _EXECUTORS.get(type(node))
    if executor is None:
        raise QueryError(
            f"cannot lower {node.label()}: was the plan optimized first? "
            f"(unexpected node type {type(node).__name__})"
        )
    return executor(node, context)


def run_plan(root: logical.LogicalNode, context: ExecutionContext):
    """Execute an optimized plan and assemble a
    :class:`~repro.engine.query.QueryResult`."""
    from ..engine.query import QueryResult

    frame = execute(root, context)
    row_count = frame.row_count
    if isinstance(root, logical.Aggregate) and frame.aggregated_rows is not None:
        # The seed engine reports the number of *qualifying input* rows for
        # aggregate queries; keep that contract.
        row_count = frame.aggregated_rows
    return QueryResult(columns=dict(frame.columns), scalars=dict(frame.scalars),
                       row_count=row_count, scan_stats=frame.stats)
