"""The immutable logical plan behind :class:`repro.api.Dataset`.

Every :class:`Dataset` operation appends one node to a tree of the types
below; nothing executes until ``collect()``.  Construction is where
validation lives — unknown columns, aggregates in the wrong place,
``group_by`` without aggregates, scalar/grouped mode mixing — so a bad query
fails the moment it is *written*, with the offending node named, not when it
eventually runs.

The optimizer (:mod:`repro.api.optimize`) rewrites this tree into an
equivalent one whose scans are :class:`PScan` nodes: the scan-adjacent
filters CNF-split into ordered, selectivity-estimated conjuncts, derived
expressions folded in for per-chunk evaluation, and the materialisation list
pruned to what the rest of the plan actually reads.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import QueryError
from ..storage.table import Table
from .expr import AggExpr, Alias, Expr

__all__ = [
    "LogicalNode",
    "Scan",
    "Filter",
    "Project",
    "WithColumn",
    "Aggregate",
    "Sort",
    "Limit",
    "PScan",
    "Conjunct",
    "unwrap_alias",
]


def unwrap_alias(expr: Expr) -> Expr:
    """Strip :class:`~repro.api.expr.Alias` wrappers off *expr*."""
    while isinstance(expr, Alias):
        expr = expr.inner
    return expr


class LogicalNode(abc.ABC):
    """One node of the logical plan (immutable once constructed)."""

    @abc.abstractmethod
    def schema(self) -> Tuple[str, ...]:
        """Ordered output column names of this node."""

    @abc.abstractmethod
    def label(self) -> str:
        """Short human-readable identity, used in errors and ``explain()``."""

    def children(self) -> Tuple["LogicalNode", ...]:
        return ()

    @property
    def is_scalar(self) -> bool:
        """Whether this node produces a scalar (keyless-aggregate) result."""
        return False

    # -- shared validation helpers ------------------------------------- #

    def _check_refs(self, expr: Expr, child: "LogicalNode") -> None:
        known = set(child.schema())
        for name in expr.columns():
            if name not in known:
                raise QueryError(
                    f"{self.label()}: expression {expr!r} references unknown "
                    f"column {name!r}; available: {sorted(known)}"
                )

    def _check_no_aggregate(self, expr: Expr, where: str) -> None:
        if expr.contains_aggregate():
            raise QueryError(
                f"{self.label()}: aggregate expressions are not allowed in "
                f"{where} (got {expr!r}); use agg() / group_by().agg()"
            )

    def _check_tabular_child(self, child: "LogicalNode") -> None:
        if child.is_scalar:
            raise QueryError(
                f"{self.label()}: cannot build on {child.label()} — a scalar "
                "aggregate is a terminal result; collect() it instead"
            )


# --------------------------------------------------------------------------- #
# Leaves
# --------------------------------------------------------------------------- #

class Scan(LogicalNode):
    """A stored table, lazily referenced."""

    def __init__(self, table: Table, name: str = "table"):
        self.table = table
        self.name = name

    def schema(self) -> Tuple[str, ...]:
        return tuple(self.table.column_names)

    def label(self) -> str:
        return f"Scan({self.name})"


# --------------------------------------------------------------------------- #
# Row-preserving operators
# --------------------------------------------------------------------------- #

class Filter(LogicalNode):
    """Keep rows where *predicate* is true."""

    def __init__(self, child: LogicalNode, predicate: Expr):
        self.child = child
        self.predicate = predicate
        self._check_tabular_child(child)
        self._check_no_aggregate(predicate, "filter()")
        self._check_refs(predicate, child)

    def schema(self) -> Tuple[str, ...]:
        return self.child.schema()

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Filter({self.predicate!r})"


class Project(LogicalNode):
    """Compute an ordered list of output expressions (select)."""

    def __init__(self, child: LogicalNode, exprs: Sequence[Expr]):
        self.child = child
        self.exprs = tuple(exprs)
        self._check_tabular_child(child)
        if not self.exprs:
            raise QueryError(f"{self.label()}: select() needs at least one column")
        names: List[str] = []
        for expr in self.exprs:
            self._check_no_aggregate(expr, "select()")
            self._check_refs(expr, child)
            names.append(expr.output_name())
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise QueryError(
                f"{self.label()}: duplicate output names {sorted(duplicates)}; "
                "use .alias() to disambiguate"
            )
        self._schema = tuple(names)

    def schema(self) -> Tuple[str, ...]:
        return self._schema

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        # Derived from exprs, not _schema: label() must work mid-validation.
        return f"Project({', '.join(e.output_name() for e in self.exprs)})"


class WithColumn(LogicalNode):
    """Append one derived column to the child's schema."""

    def __init__(self, child: LogicalNode, name: str, expr: Expr):
        self.child = child
        self.name = name
        self.expr = expr
        self._check_tabular_child(child)
        if name in child.schema():
            raise QueryError(
                f"{self.label()}: column {name!r} already exists in the input; "
                "shadowing is not supported — pick a fresh name"
            )
        self._check_no_aggregate(expr, "with_column()")
        self._check_refs(expr, child)

    def schema(self) -> Tuple[str, ...]:
        return self.child.schema() + (self.name,)

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"WithColumn({self.name} = {self.expr!r})"


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #

class Aggregate(LogicalNode):
    """Grouped (*keys* non-empty) or scalar (*keys* empty) aggregation."""

    def __init__(self, child: LogicalNode, keys: Sequence[Expr],
                 aggregates: Sequence[Expr]):
        self.child = child
        self.keys = tuple(keys)
        self.aggregates = tuple(aggregates)
        key_names = [k.output_name() for k in self.keys]
        self._label = (f"Aggregate(keys=[{', '.join(key_names)}])"
                       if self.keys else "Aggregate(scalar)")
        self._check_tabular_child(child)
        if not self.aggregates:
            if self.keys:
                raise QueryError(
                    f"{self.label()}: group_by() requires at least one "
                    "aggregate — call .agg(...) with one or more aggregate "
                    "expressions"
                )
            raise QueryError(f"{self.label()}: agg() needs at least one "
                             "aggregate expression")
        for key in self.keys:
            self._check_no_aggregate(key, "group_by() keys")
            self._check_refs(key, child)
        mode = "grouped" if self.keys else "scalar"
        for agg in self.aggregates:
            core = unwrap_alias(agg)
            if not isinstance(core, AggExpr):
                raise QueryError(
                    f"{self.label()}: {agg!r} is not an aggregate expression — "
                    f"mixing plain ({mode}-mode) columns with aggregates is "
                    "not allowed; wrap it in .sum()/.min()/.max()/.mean()/"
                    ".count(), or make it a group_by() key"
                )
            self._check_refs(agg, child)
        names = key_names + [a.output_name() for a in self.aggregates]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise QueryError(
                f"{self.label()}: duplicate output names {sorted(duplicates)}; "
                "use .alias() to disambiguate"
            )
        self._schema = tuple(names)

    def schema(self) -> Tuple[str, ...]:
        return self._schema

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)

    @property
    def is_scalar(self) -> bool:
        return not self.keys

    def label(self) -> str:
        return self._label


# --------------------------------------------------------------------------- #
# Ordering and truncation
# --------------------------------------------------------------------------- #

class Sort(LogicalNode):
    """Stable sort by one or more key expressions."""

    def __init__(self, child: LogicalNode, by: Sequence[Expr],
                 descending: Sequence[bool]):
        self.child = child
        self.by = tuple(by)
        self.descending = tuple(bool(d) for d in descending)
        self._check_tabular_child(child)
        if not self.by:
            raise QueryError(f"{self.label()}: sort() needs at least one key")
        if len(self.by) != len(self.descending):
            raise QueryError(
                f"{self.label()}: got {len(self.by)} sort keys but "
                f"{len(self.descending)} descending flags"
            )
        for key in self.by:
            self._check_no_aggregate(key, "sort() keys")
            self._check_refs(key, child)

    def schema(self) -> Tuple[str, ...]:
        return self.child.schema()

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(
            f"{k!r}{' DESC' if d else ''}" for k, d in zip(self.by, self.descending))
        return f"Sort({keys})"


class Limit(LogicalNode):
    """Keep the first *count* rows."""

    def __init__(self, child: LogicalNode, count: int):
        self.child = child
        self.count = int(count)
        self._check_tabular_child(child)
        if self.count < 0:
            raise QueryError(f"{self.label()}: limit must be >= 0, got {count}")

    def schema(self) -> Tuple[str, ...]:
        return self.child.schema()

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Limit({self.count})"


# --------------------------------------------------------------------------- #
# The optimizer's physical scan node
# --------------------------------------------------------------------------- #

@dataclass
class Conjunct:
    """One scan-level conjunct, labelled and annotated by the optimizer.

    The scan receives *expr* itself; ``kind`` only says how it will run, as
    ``explain()`` prints it: ``"native"`` (a range of one integer column by
    :meth:`~repro.api.expr.Expr.column_range`, with the full zone-map /
    compressed-form pushdown cascade), ``"expr"`` (any other single-column
    expression, evaluated on decompressed chunk values, with
    interval-arithmetic zone-map decisions), or ``"rows"`` (a multi-column
    conjunct evaluated against the chunk-aligned buffers of every column it
    references).

    Where it will evaluate is not recorded: ``explain()`` hands :meth:`describe`
    the answer of :func:`repro.api.lower.conjunct_execution_domain`.
    """

    expr: Expr
    kind: str
    selectivity: Optional[float] = None
    source_order: int = 0

    def describe(self, domain: str) -> str:
        note = [self.kind, domain]
        if self.selectivity is not None:
            note.append(f"est. sel {self.selectivity:.3f}")
        return f"{self.expr!r}  [{', '.join(note)}]"


class PScan(LogicalNode):
    """An optimizer-produced scan: conjuncts + derived columns + pruning.

    One ``PScan`` lowers onto exactly one :func:`repro.engine.scan.scan_table`
    call: *conjuncts* (in the recorded order) drive selection, *materialize*
    names the base columns gathered at the surviving positions, and
    *derived* expressions are evaluated per chunk against the scan's shared
    decompressed buffers.  *output* fixes the ordered result schema, drawing
    from both materialised and derived names.
    """

    def __init__(self, table: Table, name: str,
                 conjuncts: Sequence[Conjunct],
                 materialize: Sequence[str],
                 derived: Sequence[Tuple[str, Expr]],
                 output: Sequence[str],
                 notes: Sequence[str] = (),
                 always_empty: bool = False):
        self.table = table
        self.name = name
        self.conjuncts = list(conjuncts)
        self.materialize = list(materialize)
        self.derived = list(derived)
        self.output = list(output)
        self.notes = list(notes)
        #: Set by the optimizer when a constant conjunct folded to False —
        #: the scan provably selects nothing and is never executed.
        self.always_empty = always_empty

    def schema(self) -> Tuple[str, ...]:
        return tuple(self.output)

    def label(self) -> str:
        return (f"Scan({self.name}: {self.table.row_count} rows, "
                f"materialize=[{', '.join(self.materialize)}])")
