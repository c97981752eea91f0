"""The logical optimizer: normalize, push down, reorder, prune.

Passes, in order:

1. **Filter normalization and pushdown** — predicates are boolean-normalized
   (De Morgan, double-negation, ``NOT`` of comparisons folded into flipped
   comparisons), CNF-split into conjuncts, and pushed as close to the scans
   as legality allows: below ``sort``, below ``select``/``with_column``
   (rewriting through the derived-column definitions), and below
   ``group_by`` when it touches only group keys.  The plan's one scan
   becomes a :class:`~repro.api.logical.PScan` node carrying its conjunct
   list.
2. **Select-below-sort** — a projection sitting above a sort slides beneath
   it when the sort keys survive the projection, so the sort moves less
   data and the projection can fuse into the scan.
3. **Fold, classify, reorder, prune** — ``select``/``with_column`` chains
   above a scan fold into it (derived expressions inlined down to base
   columns); each conjunct is labelled (native range / single-column
   expression / multi-column conjunct) and annotated with a zone-map
   selectivity estimate; conjuncts are reordered cheapest-and-most-selective
   first (disable with ``preserve_filter_order``); and the scan's
   ``materialize`` list is pruned to exactly the base columns the rest of
   the plan reads.

Selectivity estimation is interval arithmetic over chunk statistics: for a
range conjunct (:meth:`~repro.api.expr.Expr.column_range`) the per-chunk
estimate is the overlap fraction of its interval with the chunk's
[min, max]; for point/membership conjuncts it is ``k / distinct_count``;
anything else falls back to the
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
from .expr import ColumnRef, Expr, normalize_boolean, split_conjuncts
from .lower import classify_conjunct

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

def _column_bounds(table: Table, name: str) -> Optional[Tuple[int, int]]:
    """Whole-column [min, max] from the zone maps (integer columns only)."""
    zone = table.column(name).zone_maps()
    return None if zone.minima is None else (int(zone.minima.min()), int(zone.maxima.max()))


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
    __, counts, minima, maxima, __ = stored.zone_maps()
    zones = [None] * counts.size if minima is None \
        else list(zip(minima.tolist(), maxima.tolist()))
    other_bounds = {name: _column_bounds(table, name) for name in referenced[1:]}
    interval = expr.column_range()

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
        elif interval is not None and bounds is not None:
            smin, smax = bounds
            low = smin if interval.low is None else max(interval.low, smin)
            high = smax if interval.high is None else min(interval.high, smax)
            if high < low:
                fraction = 0.0
            elif interval.points:
                distinct = stored.chunks[index].statistics.distinct_count
                fraction = min(1.0, interval.points / max(distinct, 1))
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
