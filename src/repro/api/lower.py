"""Lowering: execute an optimized chain on the scan scheduler.

The interesting work is at the :class:`~repro.api.logical.PScan` — the
chain's one scan becomes one :func:`repro.engine.scan.scan_table` call,
which takes the conjuncts and derived expressions as they are: the scan
itself sends a one-column conjunct through the zone-map →
compressed-form-pushdown → decompress-and-evaluate cascade and any other
over the chunk range's shared buffers.  The only thing decided here is the
label ``explain()`` prints (:func:`classify_conjunct`): ``"native"`` for a
conjunct the range rule reads as a range of an integer column
(:func:`repro.engine.scan.conjunct_range`), ``"expr"`` for any other
one-column conjunct, ``"rows"`` for one over several columns.

:func:`run_plan` is one loop over the stages after that call.  An aggregate
that reads the scan directly folds into it per range
(:func:`aggregate_fold_plan`); every other stage (aggregation that
materialises, sorting, top-k limits, residual filters) runs on an in-memory
:class:`Frame` of :class:`~repro.columnar.column.Column` s through the
existing :mod:`repro.engine.operators` kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from ..columnar.column import Column
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
    #: A scalar aggregate's answers (it is the last stage of its chain).
    scalars: Dict[str, Any] = field(default_factory=dict)

    def env(self) -> Dict[str, np.ndarray]:
        return {name: column.values for name, column in self.columns.items()}

    def take(self, order: np.ndarray) -> "Frame":
        return Frame(
            columns={name: Column(column.values[order], name=name)
                     for name, column in self.columns.items()},
            row_count=int(order.size),
        )


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #

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


def aggregate_fold_plan(plan: logical.Chain) -> Union[Dict[str, Any], str]:
    """Plan the per-range fold of an optimized chain's first stage, or say
    why it does not fold.

    The one eligibility rule.  An aggregate folds — every chunk range
    reduces its own rows into a mergeable state where their chunks are, and
    neither operand nor key columns ever materialise table-wide — when it
    reads the scan directly (it is the chain's first stage), the scan is not
    provably empty, it has at most one group key, of integer or boolean
    dtype, and every aggregate is count/sum/min/max with ``sum`` over
    integer or boolean operands only.
    The plan is the folding :func:`scan_table` call's ``materialize``,
    ``derive`` and ``aggregates``: an operand or key that is a stored column
    is named and read through the kernels; any other expression over the
    scan's outputs is evaluated per range (its dtype is read here by
    evaluating it over empty inputs).  Everything else returns the reason as
    a string and runs on :func:`_aggregate_frame`.
    ``explain()`` derives its labels from the same decision
    (:func:`aggregate_execution_domains`), so the report cannot drift from
    the executor.
    """
    scan, node = plan.scan, plan.stages[0] if plan.stages else None
    if not isinstance(node, logical.Aggregate):
        return "no aggregate reads the scan"
    if scan.always_empty:
        return "the scan is provably empty"
    if len(node.keys) > 1:
        return "more than one group key"
    table = scan.table
    empty = empty_outputs(table, scan.materialize, scan.derived)
    read: List[str] = []  # scan outputs the expression operands read

    def operand_of(expr: Expr) -> Tuple[Any, np.dtype]:
        core = logical.unwrap_alias(expr)
        if isinstance(core, ColumnRef) and core.name in scan.materialize:
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
    return {"materialize": [name for name in scan.materialize if name in read],
            "derive": [(name, expr) for name, expr in scan.derived if name in read],
            "aggregates": {"key": key, "aggregates": aggregates}}


def aggregate_execution_domains(plan: logical.Chain,
                                context: ExecutionContext
                                ) -> List[Tuple[str, str]]:
    """Labels for ``explain()`` of the aggregate that is the first stage of
    an optimized chain: where its operands are read.

    Returns ``(label, "compressed" | "decompress")`` pairs.
    ``"compressed"``: the fold stays in the compressed domain, whatever the
    selection — every operand is a stored column whose chunks all have the
    gather kernel (a count reads nothing) and the key's chunks all have
    group codes — so nothing decompresses for this aggregate.
    ``"decompress"``: some operand or key is an expression or lacks a
    kernel, compressed execution is off, or the aggregate materialises its
    input; ranges then read decompressed values (stored columns still
    gather positionally where hits are sparse).
    """
    node = plan.stages[0]
    names = [agg.output_name() for agg in node.aggregates]
    if node.keys:
        keys = ", ".join(key.output_name() for key in node.keys)
        names.insert(0, f"group by {keys}")
    fold = aggregate_fold_plan(plan)
    compressed = not isinstance(fold, str) and context.use_compressed_exec
    if compressed:
        spec = fold["aggregates"]
        reads = [(operand, kernels.KERNEL_GATHER)
                 for __, __, operand in spec["aggregates"] if operand is not None]
        if spec["key"] is not None:
            reads.append((spec["key"], kernels.KERNEL_GROUP_CODES))
        compressed = all(
            isinstance(operand, str) and _column_fully_capable(
                plan.scan.table, operand, kernel) for operand, kernel in reads)
    domain = "compressed" if compressed else "decompress"
    return [(name, domain) for name in names]


def _folded_aggregate(plan: logical.Chain, fold: Dict[str, Any],
                      context: ExecutionContext) -> Tuple[Frame, ScanStats]:
    """Run the chain's scan with its first stage, an aggregate, folded in
    per range (:func:`aggregate_fold_plan`), on either backend.  The fold is
    bit-identical to the materialising path."""
    node, scan = plan.stages[0], plan.scan
    result = scan_table(scan.table, [c.expr for c in scan.conjuncts], context=context,
                        **fold)
    state, rows = result.state, result.stats.rows_selected
    if not node.keys:
        scalars = {name: agg_state.finalize() for name, agg_state in state.items()}
        return Frame(columns={}, row_count=rows, scalars=scalars), result.stats
    key_output = node.keys[0].output_name()
    columns = {key_output: Column(state.keys, name=key_output)}
    for name, (__, values) in state.aggregates.items():
        columns[name] = Column(values, name=name)
    return Frame(columns=columns, row_count=int(state.keys.size)), result.stats


def _aggregate_frame(node: logical.Aggregate, frame: Frame) -> Frame:
    """Aggregate a materialised frame: evaluate keys and operands over its
    whole columns, factorise, reduce.

    Only what :func:`aggregate_fold_plan` turns away runs here: frames that
    are not the scan (post-sort, post-limit), more than one group
    key, float ``sum`` (it depends on the order its addends meet, so it has
    no mergeable state; here the selection's values add in selection
    order), ``mean`` (NumPy's pairwise float mean of an integer column is
    not ``exact_sum / count`` bit for bit), float group keys
    (``np.unique``'s NaN grouping is decided once, table-wide), and scans
    the optimizer proved empty.
    """
    env, rows = frame.env(), frame.row_count
    if not node.keys:
        scalars: Dict[str, Any] = {}
        for agg in node.aggregates:
            core = logical.unwrap_alias(agg)
            assert isinstance(core, AggExpr)
            name = agg.output_name()
            if core.operand is None:  # count(*)
                scalars[name] = rows
                continue
            values = Column(evaluate_over(core.operand, env, rows))
            scalars[name] = scalar_aggregate(values, core.op)
        return Frame(columns={}, row_count=rows, scalars=scalars)

    key_arrays = [evaluate_over(key, env, rows) for key in node.keys]
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
        values = None if core.operand is None else \
            Column(evaluate_over(core.operand, env, rows))
        columns[name] = grouped_reduce(codes, num_groups, values,
                                       core.op).rename(name)
    return Frame(columns=columns, row_count=num_groups)


# --------------------------------------------------------------------------- #
# The chain
# --------------------------------------------------------------------------- #

def _sort_codes(expr: Expr, descending: bool, env: Mapping[str, np.ndarray],
                row_count: int) -> np.ndarray:
    """Integer sort codes for one key: factorised ranks, negated for DESC.

    Working in rank space keeps descending order safe for every dtype
    (negating uint64 or boolean values directly would wrap).
    """
    values = evaluate_over(expr, env, row_count)
    codes = np.unique(values, return_inverse=True)[1].reshape(-1).astype(np.int64)
    return -codes if descending else codes


def _top_k(frame: Frame, sort: logical.Sort, count: int) -> Frame:
    """A limit of *count* right after a single-key *sort*: it avoids the
    full stable permutation — rank codes are still built with one np.unique
    sort of the key (dtype-safe for uint64/bool), but the frame rows are
    only partitioned and the k winners sorted.  A position-salted composite
    key keeps the selection and order bit-identical to
    full-sort-then-slice."""
    n = frame.row_count
    count = min(count, n)
    codes = _sort_codes(sort.by[0], sort.descending[0], frame.env(), n)
    if 0 < count < n and n < (1 << 31):
        composite = codes * n + np.arange(n, dtype=np.int64)
        top = np.argpartition(composite, count - 1)[:count]
        return frame.take(top[np.argsort(composite[top], kind="stable")])
    return frame.take(np.lexsort((codes,))[:count])


def run_plan(plan: logical.Chain, context: ExecutionContext):
    """Execute an optimized chain and assemble a
    :class:`~repro.engine.query.QueryResult`: one scan, then one loop over
    the stages."""
    from ..engine.query import QueryResult

    scan, stages = plan.scan, list(plan.stages)
    rows_in = 0  # what the last aggregate read
    fold = aggregate_fold_plan(plan)
    if not isinstance(fold, str):
        frame, stats = _folded_aggregate(plan, fold, context)
        rows_in = stats.rows_selected
        stages.pop(0)
    elif scan.always_empty:
        arrays = empty_outputs(scan.table, scan.materialize, scan.derived)
        frame = Frame({name: Column(arrays[name], name=name) for name in scan.output}, 0)
        stats = None
    else:
        result = scan_table(scan.table, [c.expr for c in scan.conjuncts],
                            materialize=scan.materialize, derive=scan.derived,
                            context=context)
        frame = Frame({name: result.columns[name] for name in scan.output},
                      len(result.selection))
        stats = result.stats

    while stages:
        stage = stages.pop(0)
        env, rows = frame.env(), frame.row_count
        if isinstance(stage, logical.Filter):
            mask = np.asarray(evaluate_over(stage.predicate, env, rows), dtype=bool)
            frame = frame.take(np.flatnonzero(mask))
        elif isinstance(stage, logical.Project):
            frame = Frame({expr.output_name(): Column(evaluate_over(expr, env, rows),
                                                      name=expr.output_name())
                           for expr in stage.exprs}, rows)
        elif isinstance(stage, logical.WithColumn):
            value = Column(evaluate_over(stage.expr, env, rows), name=stage.name)
            frame = Frame({**frame.columns, stage.name: value}, rows)
        elif isinstance(stage, logical.Aggregate):
            frame, rows_in = _aggregate_frame(stage, frame), rows
        elif isinstance(stage, logical.Sort):
            if len(stage.by) == 1 and stages and isinstance(stages[0], logical.Limit):
                frame = _top_k(frame, stage, stages.pop(0).count)
                continue
            codes = [_sort_codes(key, desc, env, rows)
                     for key, desc in zip(stage.by, stage.descending)]
            frame = frame.take(np.lexsort(tuple(codes[::-1])))
        else:
            frame = frame.take(np.arange(min(stage.count, rows), dtype=np.int64))

    # An aggregate query reports the number of *qualifying input* rows.
    last = plan.stages[-1] if plan.stages else None
    row_count = rows_in if isinstance(last, logical.Aggregate) else frame.row_count
    return QueryResult(columns=dict(frame.columns), scalars=dict(frame.scalars),
                       row_count=row_count, scan_stats=stats)
