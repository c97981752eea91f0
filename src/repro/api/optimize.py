"""The logical optimizer: normalize, push down, reorder, prune.

Passes, in order:

1. **Filter normalization and pushdown** — predicates are boolean-normalized
   (De Morgan, double-negation, ``NOT`` of comparisons folded into flipped
   comparisons), CNF-split into conjuncts, and pushed as close to the scans
   as legality allows: below ``sort``, below ``select``/``with_column``
   (rewriting through the derived-column definitions), below ``join`` to
   whichever side(s) the conjunct's columns come from (a conjunct on a
   shared join key goes to *both* sides), and below ``group_by`` when it
   touches only group keys.  Scans become :class:`~repro.api.logical.PScan`
   nodes carrying their conjunct lists.
2. **Select-below-sort** — a projection sitting above a sort slides beneath
   it when the sort keys survive the projection, so the sort moves less
   data and the projection can fuse into the scan.
3. **Fold, classify, reorder, prune** — ``select``/``with_column`` chains
   above a scan fold into it (derived expressions inlined down to base
   columns); each conjunct is classified (native predicate / single-column
   expression / multi-column row filter) and annotated with a zone-map
   selectivity estimate; conjuncts are reordered cheapest-and-most-selective
   first (disable with ``preserve_filter_order``); and the scan's
   ``materialize`` list is pruned to exactly the base columns the rest of
   the plan reads.

Selectivity estimation is interval arithmetic over chunk statistics: for a
range conjunct the per-chunk estimate is the overlap fraction of the
predicate's interval with the chunk's [min, max]; for point/membership
conjuncts it is ``k / distinct_count``; anything else falls back to the
tri-state ``decide()`` (1, 0, or an uninformative 0.5).  Estimates are
weighted by chunk row counts.  Only integer columns participate — float
zone maps are rounded by the statistics layer and cannot be trusted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..engine.context import ExecutionContext
from ..errors import QueryError
from ..storage.table import Table
from . import logical
from .expr import (
    BetweenExpr,
    ColumnRef,
    Comparison,
    Expr,
    IsInExpr,
    normalize_boolean,
    split_conjuncts,
)
from .lower import _column_bounds, _comparison_parts, classify_conjunct

__all__ = ["optimize", "estimate_selectivity"]

_KIND_RANK = {"native": 0, "expr": 1, "rows": 2}


def _conjoin(conjuncts: Sequence[Expr]) -> Expr:
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = result & conjunct
    return result


def _ordered_unique(names: Sequence[str]) -> List[str]:
    return list(dict.fromkeys(names))


# --------------------------------------------------------------------------- #
# Pass 1: filter normalization and pushdown
# --------------------------------------------------------------------------- #

def _push_filters(node: logical.LogicalNode,
                  conjuncts: List[Expr]) -> logical.LogicalNode:
    """Push *conjuncts* (valid against ``node.schema()``) below *node*."""
    if isinstance(node, logical.Filter):
        own = [normalize_boolean(c) for c in split_conjuncts(node.predicate)]
        # Tautological column-free conjuncts (the `lit(True)` half of a CNF
        # split) are dropped here; false constants keep flowing — they are
        # pushable below every node (the result is empty either way) and
        # fold the scan to always-empty.
        own = [c for c in own
               if c.columns() or not bool(np.asarray(c.evaluate({})))]
        # The node's own filter ran closer to the scan, so it goes first.
        return _push_filters(node.child, own + conjuncts)

    if isinstance(node, logical.Scan):
        raw = [logical.Conjunct(expr=expr, kind="raw", source_order=index)
               for index, expr in enumerate(conjuncts)]
        return logical.PScan(node.table, node.name, raw,
                             materialize=list(node.schema()), derived=[],
                             output=list(node.schema()))

    if isinstance(node, logical.WithColumn):
        mapping = {node.name: node.expr}
        pushed = [c.substitute(mapping) for c in conjuncts]
        return logical.WithColumn(_push_filters(node.child, pushed),
                                  node.name, node.expr)

    if isinstance(node, logical.Project):
        mapping = {expr.output_name(): logical.unwrap_alias(expr)
                   for expr in node.exprs}
        pushed = [c.substitute(mapping) for c in conjuncts]
        return logical.Project(_push_filters(node.child, pushed), node.exprs)

    if isinstance(node, logical.Sort):
        return logical.Sort(_push_filters(node.child, conjuncts),
                            node.by, node.descending)

    if isinstance(node, logical.Limit):
        # A filter must not slide below a limit — except column-free (false)
        # constants, which empty the result on either side.
        constant = [c for c in conjuncts if not c.columns()]
        blocked = [c for c in conjuncts if c.columns()]
        below = logical.Limit(_push_filters(node.child, constant), node.count)
        if blocked:
            return logical.Filter(below, _conjoin(blocked))
        return below

    if isinstance(node, logical.Aggregate):
        key_map = {key.output_name(): key for key in node.keys}
        pushable: List[Expr] = []
        residual: List[Expr] = []
        for conjunct in conjuncts:
            refs = set(conjunct.columns())
            # Key-only conjuncts commute with grouping; column-free (false)
            # constants empty the result on either side of it.
            if refs <= set(key_map):
                pushable.append(conjunct.substitute(key_map))
            else:
                residual.append(conjunct)
        rebuilt = logical.Aggregate(_push_filters(node.child, pushable),
                                    node.keys, node.aggregates)
        if residual:
            return logical.Filter(rebuilt, _conjoin(residual))
        return rebuilt

    if isinstance(node, logical.Join):
        left_names = set(node.left.schema())
        right_map: Dict[str, str] = {output: source
                                     for source, output in node.right_output}
        if node.left_on == node.right_on:
            # The shared key survives under the left name; a conjunct on it
            # restricts both inputs.
            right_map.setdefault(node.left_on, node.right_on)
        right_sub = {output: ColumnRef(source)
                     for output, source in right_map.items()}
        to_left: List[Expr] = []
        to_right: List[Expr] = []
        residual = []
        for conjunct in conjuncts:
            refs = set(conjunct.columns())
            fits_left = refs <= left_names
            fits_right = refs <= set(right_map)
            if fits_left:
                to_left.append(conjunct)
            if fits_right:
                to_right.append(conjunct.substitute(right_sub))
            if not fits_left and not fits_right:
                residual.append(conjunct)
        rebuilt = logical.Join(_push_filters(node.left, to_left),
                               _push_filters(node.right, to_right),
                               node.left_on, node.right_on, node.suffix)
        if residual:
            return logical.Filter(rebuilt, _conjoin(residual))
        return rebuilt

    raise QueryError(f"optimizer cannot push filters through {node.label()}")


# --------------------------------------------------------------------------- #
# Pass 2: select below sort
# --------------------------------------------------------------------------- #

def _map_children(node: logical.LogicalNode, fn) -> logical.LogicalNode:
    if isinstance(node, (logical.PScan, logical.Scan)):
        return node
    if isinstance(node, logical.Filter):
        return logical.Filter(fn(node.child), node.predicate)
    if isinstance(node, logical.Project):
        return logical.Project(fn(node.child), node.exprs)
    if isinstance(node, logical.WithColumn):
        return logical.WithColumn(fn(node.child), node.name, node.expr)
    if isinstance(node, logical.Aggregate):
        return logical.Aggregate(fn(node.child), node.keys, node.aggregates)
    if isinstance(node, logical.Sort):
        return logical.Sort(fn(node.child), node.by, node.descending)
    if isinstance(node, logical.Limit):
        return logical.Limit(fn(node.child), node.count)
    if isinstance(node, logical.Join):
        return logical.Join(fn(node.left), fn(node.right),
                            node.left_on, node.right_on, node.suffix)
    raise QueryError(f"optimizer cannot rebuild {node.label()}")


def _select_below_sort(node: logical.LogicalNode) -> logical.LogicalNode:
    node = _map_children(node, _select_below_sort)
    if isinstance(node, logical.Project) and isinstance(node.child, logical.Sort):
        sort = node.child
        passthrough: Set[str] = set()
        for expr in node.exprs:
            core = logical.unwrap_alias(expr)
            if isinstance(core, ColumnRef) and core.name == expr.output_name():
                passthrough.add(core.name)
        if all(set(key.columns()) <= passthrough for key in sort.by):
            return logical.Sort(logical.Project(sort.child, node.exprs),
                                sort.by, sort.descending)
    return node


# --------------------------------------------------------------------------- #
# Selectivity estimation
# --------------------------------------------------------------------------- #

def _extract_interval(expr: Expr
                      ) -> Optional[Tuple[str, Optional[int], Optional[int], int]]:
    """Decompose a simple single-column conjunct into
    ``(column, low, high, candidate_count)``; ``None`` bounds are open ends,
    ``candidate_count > 0`` marks point/membership predicates."""
    if isinstance(expr, BetweenExpr) and isinstance(expr.operand, ColumnRef):
        try:
            return expr.operand.name, int(expr.low), int(expr.high), 0
        except (TypeError, ValueError):
            return None
    if isinstance(expr, IsInExpr) and isinstance(expr.operand, ColumnRef):
        values = expr.candidates
        if not all(isinstance(v, (int, np.integer)) for v in values):
            return None
        return expr.operand.name, int(min(values)), int(max(values)), len(values)
    if isinstance(expr, Comparison):
        parts = _comparison_parts(expr)
        if parts is None:
            return None
        name, op, value = parts
        if op == "==":
            return name, value, value, 1
        if op == "<":
            return name, None, value - 1, 0
        if op == "<=":
            return name, None, value, 0
        if op == ">":
            return name, value + 1, None, 0
        if op == ">=":
            return name, value, None, 0
        return None  # "!="
    return None


def estimate_selectivity(expr: Expr, table: Table) -> Optional[float]:
    """Estimated fraction of rows satisfying *expr*, from zone maps alone.

    Returns ``None`` when the statistics carry no information (float
    columns, opaque expressions over in-range chunks).
    """
    referenced = expr.columns()
    if not referenced:
        return None
    primary = referenced[0]
    stored = table.column(primary)
    __, counts, minima, maxima = stored.zone_maps()
    zones = [None] * counts.size if minima is None \
        else list(zip(minima.tolist(), maxima.tolist()))
    other_bounds = {name: _column_bounds(table, name) for name in referenced[1:]}
    interval = _extract_interval(expr)

    weighted = 0.0
    total = 0
    informed = False
    for index, (count, bounds) in enumerate(zip(counts.tolist(), zones)):
        total += count
        env = {primary: bounds, **other_bounds}
        decision = expr.decide(env)
        if decision is True:
            fraction, knows = 1.0, True
        elif decision is False:
            fraction, knows = 0.0, True
        elif interval is not None and interval[0] == primary and bounds is not None:
            __, low, high, candidates = interval
            smin, smax = bounds
            low = smin if low is None else max(low, smin)
            high = smax if high is None else min(high, smax)
            if high < low:
                fraction = 0.0
            elif candidates:
                distinct = stored.chunks[index].statistics.distinct_count
                fraction = min(1.0, candidates / max(distinct, 1))
            else:
                fraction = min(1.0, (high - low + 1) / (smax - smin + 1))
            knows = True
        else:
            fraction, knows = 0.5, False
        informed = informed or knows
        weighted += fraction * count
    if not informed or total == 0:
        return None
    return weighted / total


# --------------------------------------------------------------------------- #
# Pass 3: fold projections into scans, classify + reorder, prune
# --------------------------------------------------------------------------- #

def _scan_stage(node: logical.LogicalNode
                ) -> Optional[Tuple[logical.PScan, Dict[str, Expr], List[str]]]:
    """Recognise a ``PScan`` under a chain of ``Project``/``WithColumn``.

    Returns ``(scan, mapping, outputs)`` where *mapping* defines every
    non-passthrough output as an expression over **base** columns and
    *outputs* is the chain's ordered output schema.
    """
    if isinstance(node, logical.PScan):
        return node, {}, list(node.output)
    if isinstance(node, logical.WithColumn):
        stage = _scan_stage(node.child)
        if stage is None:
            return None
        scan, mapping, outputs = stage
        mapping = dict(mapping)
        mapping[node.name] = node.expr.substitute(mapping)
        return scan, mapping, outputs + [node.name]
    if isinstance(node, logical.Project):
        stage = _scan_stage(node.child)
        if stage is None:
            return None
        scan, mapping, __ = stage
        new_mapping: Dict[str, Expr] = {}
        new_outputs: List[str] = []
        for expr in node.exprs:
            name = expr.output_name()
            core = logical.unwrap_alias(expr).substitute(mapping)
            if not (isinstance(core, ColumnRef) and core.name == name):
                new_mapping[name] = core
            new_outputs.append(name)
        return scan, new_mapping, new_outputs
    return None


def _finalize_scan(scan: logical.PScan, mapping: Dict[str, Expr],
                   outputs: List[str], required: Optional[Sequence[str]],
                   context: ExecutionContext) -> logical.PScan:
    needed = _ordered_unique(list(required) if required is not None else outputs)
    notes: List[str] = []
    always_empty = False
    live: List[logical.Conjunct] = []
    for conjunct in scan.conjuncts:
        # Constant-fold column-free conjuncts (e.g. the `lit(True)` half of
        # a CNF split) — they must never reach the scan, which schedules and
        # evaluates in terms of referenced columns.
        if not conjunct.expr.columns():
            if bool(np.asarray(conjunct.expr.evaluate({}))):
                notes.append(f"constant conjunct {conjunct.expr!r} folded away")
            else:
                notes.append(f"constant conjunct {conjunct.expr!r} is false — "
                             "scan folded to empty")
                always_empty = True
            continue
        live.append(conjunct)
    conjuncts = [classify_conjunct(c.expr, scan.table, c.source_order)
                 for c in live]
    for conjunct in conjuncts:
        conjunct.selectivity = estimate_selectivity(conjunct.expr, scan.table)
    if not context.preserve_filter_order:
        conjuncts = sorted(
            conjuncts,
            key=lambda c: (c.selectivity if c.selectivity is not None else 1.5,
                           _KIND_RANK[c.kind], c.source_order))
    else:
        # Row filters still run after the per-column cascade physically;
        # keep the source order within each class.
        conjuncts = sorted(conjuncts, key=lambda c: c.source_order)
    if [c.source_order for c in conjuncts] != sorted(c.source_order
                                                     for c in conjuncts):
        notes.append("conjuncts reordered by estimated selectivity")
    materialize = [name for name in needed if name not in mapping]
    derived = [(name, mapping[name]) for name in needed if name in mapping]
    base_count = len(scan.table.column_names)
    if len(materialize) < base_count:
        notes.append(f"projection pruned to {len(materialize)} of "
                     f"{base_count} base columns")
    return logical.PScan(scan.table, scan.name, conjuncts, materialize,
                         derived, needed, notes, always_empty=always_empty)


def _fold(node: logical.LogicalNode, required: Optional[Sequence[str]],
          context: ExecutionContext) -> logical.LogicalNode:
    stage = _scan_stage(node)
    if stage is not None:
        scan, mapping, outputs = stage
        return _finalize_scan(scan, mapping, outputs, required, context)

    if isinstance(node, logical.Filter):
        base = list(required) if required is not None else list(node.schema())
        child_required = _ordered_unique(base + node.predicate.columns())
        return logical.Filter(_fold(node.child, child_required, context),
                              node.predicate)

    if isinstance(node, logical.Project):
        child_required = _ordered_unique(
            [name for expr in node.exprs for name in expr.columns()])
        return logical.Project(_fold(node.child, child_required, context),
                               node.exprs)

    if isinstance(node, logical.WithColumn):
        if required is None:
            child_required = None
        else:
            child_required = _ordered_unique(
                [name for name in required if name != node.name]
                + node.expr.columns())
        return logical.WithColumn(_fold(node.child, child_required, context),
                                  node.name, node.expr)

    if isinstance(node, logical.Aggregate):
        child_required = _ordered_unique(
            [name for key in node.keys for name in key.columns()]
            + [name for agg in node.aggregates for name in agg.columns()])
        return logical.Aggregate(_fold(node.child, child_required, context),
                                 node.keys, node.aggregates)

    if isinstance(node, logical.Sort):
        base = list(required) if required is not None else list(node.schema())
        child_required = _ordered_unique(
            base + [name for key in node.by for name in key.columns()])
        return logical.Sort(_fold(node.child, child_required, context),
                            node.by, node.descending)

    if isinstance(node, logical.Limit):
        return logical.Limit(_fold(node.child, required, context), node.count)

    if isinstance(node, logical.Join):
        wanted = list(required) if required is not None else list(node.schema())
        right_map = {output: source for source, output in node.right_output}
        left_schema = set(node.left.schema())
        left_required = [name for name in wanted if name in left_schema]
        right_required = [right_map[name] for name in wanted
                         if name in right_map]
        # Keep left columns whose presence forces the suffix on a required
        # right output — pruning them would silently rename join outputs.
        for source, output in node.right_output:
            if output in wanted and output != source:
                left_required.append(source)
        left_required = _ordered_unique(left_required + [node.left_on])
        right_required = _ordered_unique(right_required + [node.right_on])
        return logical.Join(_fold(node.left, left_required, context),
                            _fold(node.right, right_required, context),
                            node.left_on, node.right_on, node.suffix)

    raise QueryError(f"optimizer cannot fold {node.label()}")


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #

def optimize(root: logical.LogicalNode,
             context: ExecutionContext = ExecutionContext()
             ) -> logical.LogicalNode:
    """Rewrite a user-built logical plan into its optimized, lowerable form."""
    node = _push_filters(root, [])
    node = _select_below_sort(node)
    return _fold(node, None, context)
