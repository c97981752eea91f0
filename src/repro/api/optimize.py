"""The logical optimizer: normalize, push down, reorder, prune.

:func:`optimize` walks a chain once, from its last stage down to the scan:

1. **Filter normalization and pushdown** — predicates are boolean-normalized
   (De Morgan, double-negation, ``NOT`` of comparisons folded into flipped
   comparisons), CNF-split into conjuncts, and carried down the chain as far
   as legality allows: below ``sort``, below ``select``/``with_column``
   (rewriting through the derived-column definitions), and below
   ``group_by`` when they touch only group keys.  A ``limit``, or an
   aggregate for a conjunct over its results, stops them: they stay above
   it as one residual ``Filter``.  What reaches the bottom becomes the
   conjunct list of the chain's one :class:`~repro.api.logical.PScan`.
2. **Select-below-sort** — a projection sitting above a sort slides beneath
   it when the sort keys survive the projection, so the sort moves less
   data and the projection can fuse into the scan.
3. **Fold, classify, reorder, prune** — the ``select``/``with_column`` run
   directly above the scan folds into it (derived expressions inlined down
   to base columns); each conjunct is labelled (native range /
   single-column expression / multi-column conjunct) and annotated with a
   zone-map selectivity estimate; conjuncts are reordered
   cheapest-and-most-selective first (disable with
   ``preserve_filter_order``); and the scan's ``materialize`` list is
   pruned to exactly the base columns the stages above it read.

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

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.context import ExecutionContext
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


def _outputs(project: logical.Project) -> Dict[str, Expr]:
    """Each output name of *project* -> its expression, aliases stripped."""
    return {expr.output_name(): logical.unwrap_alias(expr) for expr in project.exprs}


def _slides_below(project: logical.Project, sort: logical.Sort) -> bool:
    """Whether every key of *sort* is a column *project* passes through."""
    passthrough = {name for name, core in _outputs(project).items()
                   if isinstance(core, ColumnRef) and core.name == name}
    return all(set(key.columns()) <= passthrough for key in sort.by)


# --------------------------------------------------------------------------- #
# Selectivity estimation
# --------------------------------------------------------------------------- #

def _column_bounds(table: Table, name: str) -> Optional[Tuple[int, int, np.dtype]]:
    """Whole-column ``(min, max, dtype)`` from the zone maps (integer columns
    only), as :meth:`~repro.api.expr.Expr.decide` reads it."""
    column = table.column(name)
    zone = column.zone_maps()
    return None if zone.minima is None \
        else (int(zone.minima.min()), int(zone.maxima.max()), column.dtype)


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
        else [(low, high, stored.dtype) for low, high in zip(minima.tolist(), maxima.tolist())]
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
            smin, smax, __ = bounds
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
# The walk, and the fold of the select run into the scan
# --------------------------------------------------------------------------- #

def _fold_scan(scan: logical.Scan, conjuncts: List[Expr],
               run: Sequence[logical.Stage], required: Sequence[str],
               context: ExecutionContext) -> logical.PScan:
    """The chain's one ``PScan``: *conjuncts* labelled and ordered, the
    ``select``/``with_column`` *run* directly above it (bottom first) folded
    in, and only the *required* outputs kept."""
    table = scan.table
    mapping: Dict[str, Expr] = {}  # non-passthrough output -> expr over base columns
    for stage in run:
        if isinstance(stage, logical.WithColumn):
            mapping = {**mapping, stage.name: stage.expr.substitute(mapping)}
            continue
        mapping = {name: core.substitute(mapping) for name, core in _outputs(stage).items()}
        mapping = {name: core for name, core in mapping.items()
                   if not (isinstance(core, ColumnRef) and core.name == name)}
    needed = list(required)
    notes: List[str] = []
    always_empty = False
    live: List[logical.Conjunct] = []
    for order, expr in enumerate(conjuncts):
        # Constant-fold column-free conjuncts (e.g. the `lit(True)` half of
        # a CNF split) — they must never reach the scan, which schedules and
        # evaluates in terms of referenced columns.
        if not expr.columns():
            if bool(np.asarray(expr.evaluate({}))):
                notes.append(f"constant conjunct {expr!r} folded away")
            else:
                notes.append(f"constant conjunct {expr!r} is false — "
                             "scan folded to empty")
                always_empty = True
            continue
        live.append(classify_conjunct(expr, table, order))
    for conjunct in live:
        conjunct.selectivity = estimate_selectivity(conjunct.expr, table)
    if not context.preserve_filter_order:
        live.sort(key=lambda c: (c.selectivity if c.selectivity is not None else 1.5,
                                 _KIND_RANK[c.kind], c.source_order))
    if [c.source_order for c in live] != sorted(c.source_order for c in live):
        notes.append("conjuncts reordered by estimated selectivity")
    materialize = [name for name in needed if name not in mapping]
    derived = [(name, mapping[name]) for name in needed if name in mapping]
    base_count = len(table.column_names)
    if len(materialize) < base_count:
        notes.append(f"projection pruned to {len(materialize)} of "
                     f"{base_count} base columns")
    return logical.PScan(table, scan.name, live, materialize, derived, needed,
                         notes, always_empty=always_empty)


def optimize(chain: logical.Chain,
             context: ExecutionContext = ExecutionContext()) -> logical.Chain:
    """Rewrite a user-built chain into its optimized, lowerable form: one
    walk from the last stage down to the scan (see the module docstring)."""
    pending = list(chain.stages)
    conjuncts: List[Expr] = []        # filters carried down, over the cursor's output
    above: List[logical.Stage] = []   # the optimized stages, top first
    wanted: List[List[str]] = []      # what the stages above each of them read
    required = list(chain.schema)

    def emit(stage: logical.Stage) -> None:
        nonlocal required
        above.append(stage)
        wanted.append(required)
        required = stage.reads(required)

    while pending:
        stage = pending.pop()
        if isinstance(stage, logical.Filter):
            own = [normalize_boolean(c) for c in split_conjuncts(stage.predicate)]
            # Tautological column-free conjuncts (the `lit(True)` half of a
            # CNF split) are dropped here; false constants keep flowing —
            # they are pushable below every stage (the result is empty
            # either way) and fold the scan to always-empty.  A stage's own
            # filter ran closer to the scan, so it goes first.
            conjuncts = [c for c in own if c.columns()
                         or not bool(np.asarray(c.evaluate({})))] + conjuncts
            continue
        if isinstance(stage, logical.WithColumn):
            conjuncts = [c.substitute({stage.name: stage.expr}) for c in conjuncts]
        elif isinstance(stage, logical.Project):
            conjuncts = [c.substitute(_outputs(stage)) for c in conjuncts]
            below = next((i for i in range(len(pending) - 1, -1, -1)
                          if not isinstance(pending[i], logical.Filter)), None)
            if below is not None and isinstance(pending[below], logical.Sort) \
                    and _slides_below(stage, pending[below]):
                emit(pending.pop(below))
        elif isinstance(stage, (logical.Limit, logical.Aggregate)):
            # A filter must not slide below a limit, nor below an aggregate
            # unless it reads group keys only (those commute with grouping);
            # column-free (false) constants empty the result on either side.
            # What stays runs above the stage as one residual filter.
            keys = {key.output_name(): key for key in
                    (stage.keys if isinstance(stage, logical.Aggregate) else ())}
            residual = [c for c in conjuncts if not set(c.columns()) <= set(keys)]
            if residual:
                emit(logical.Filter(_conjoin(residual)))
            conjuncts = [c.substitute(keys) for c in conjuncts
                         if set(c.columns()) <= set(keys)]
        emit(stage)

    # The select/with_column run directly above the scan folds into it.
    top = len(above)
    while top and isinstance(above[top - 1], (logical.Project, logical.WithColumn)):
        top -= 1
    scan = _fold_scan(chain.scan, conjuncts, above[top:][::-1],
                      wanted[top] if top < len(above) else required, context)
    return logical.Chain(scan, tuple(reversed(above[:top])), chain.columns)
