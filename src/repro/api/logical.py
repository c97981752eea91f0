"""The immutable logical plan behind :class:`repro.api.Dataset`.

A query is a :class:`Chain`: one scan, then a tuple of stages in the order
they run.  Every :class:`Dataset` operation appends one stage; nothing
executes until ``collect()``.  Appending is where validation lives — unknown
columns, aggregates in the wrong place, ``group_by`` without aggregates,
scalar/grouped mode mixing — so a bad query fails the moment it is
*written*, with the offending stage named, not when it eventually runs.

The optimizer (:mod:`repro.api.optimize`) rewrites a chain into an
equivalent one over a :class:`PScan`: the pushable filters CNF-split into
ordered, selectivity-estimated conjuncts, derived expressions folded in for
per-chunk evaluation, and the materialisation list pruned to what the
stages above the scan actually read.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import zip_longest
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import QueryError
from ..storage.table import Table
from .expr import AggExpr, Alias, Arithmetic, BoundsEnv, Expr, Literal

__all__ = [
    "Chain",
    "Stage",
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


def _unique(names: Sequence[str]) -> List[str]:
    return list(dict.fromkeys(names))


def _typed(expr: Expr, env: BoundsEnv) -> Optional[Tuple[Any, ...]]:
    """The entry of the column *expr* computes over *env*: its dtype where
    known, bounds unknown (:meth:`~repro.api.expr.Expr.computed_dtype`)."""
    dtype = expr.computed_dtype(env)
    return None if dtype is None else (None, None, dtype)


class Stage(abc.ABC):
    """One step of a chain (immutable once constructed)."""

    @abc.abstractmethod
    def label(self) -> str:
        """Short human-readable identity, used in errors and ``explain()``."""

    @abc.abstractmethod
    def output(self, columns: BoundsEnv) -> BoundsEnv:
        """Validate this stage over its input *columns* (:attr:`Chain.columns`);
        its output columns."""

    @abc.abstractmethod
    def reads(self, required: Sequence[str]) -> List[str]:
        """The input columns this stage reads when *required* of its
        output columns are wanted (the optimizer's projection pruning)."""

    # -- shared validation helpers ------------------------------------- #

    def _check_expr(self, expr: Expr, columns: BoundsEnv) -> None:
        for name in expr.columns():
            if name not in columns:
                raise QueryError(
                    f"{self.label()}: expression {expr!r} references unknown "
                    f"column {name!r}; available: {sorted(columns)}"
                )
        # An integer literal its arithmetic's dtype does not hold is NumPy's
        # bare OverflowError at collect(); comparisons take any literal.
        nodes = [expr]
        while nodes:
            node = nodes.pop()
            children = node.children()
            nodes.extend(children)
            literals = [side.value for side in children if type(side) is Literal
                        and type(side.value) is int] if type(node) is Arithmetic else None
            if not literals:
                continue
            dtype = node.computed_dtype(columns)
            if dtype is not None and dtype.kind in "iu" and not all(
                    np.iinfo(dtype).min <= value <= np.iinfo(dtype).max for value in literals):
                raise QueryError(f"{self.label()}: a literal in {node!r} does not fit "
                                 f"its {dtype} arithmetic")

    def _check_no_aggregate(self, expr: Expr, where: str) -> None:
        if expr.contains_aggregate():
            raise QueryError(
                f"{self.label()}: aggregate expressions are not allowed in "
                f"{where} (got {expr!r}); use agg() / group_by().agg()"
            )

    def _check_unique(self, names: List[str], entries: List[Any]) -> BoundsEnv:
        """*names* as output columns, each with its entry of *entries* (``None`` past them)."""
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise QueryError(
                f"{self.label()}: duplicate output names {sorted(duplicates)}; "
                "use .alias() to disambiguate"
            )
        return dict(zip_longest(names, entries))


# --------------------------------------------------------------------------- #
# Row-preserving stages
# --------------------------------------------------------------------------- #

class Filter(Stage):
    """Keep rows where *predicate* is true."""

    def __init__(self, predicate: Expr):
        self.predicate = predicate

    def output(self, columns: BoundsEnv) -> BoundsEnv:
        self._check_no_aggregate(self.predicate, "filter()")
        self._check_expr(self.predicate, columns)
        return columns

    def reads(self, required: Sequence[str]) -> List[str]:
        return _unique(list(required) + self.predicate.columns())

    def label(self) -> str:
        return f"Filter({self.predicate!r})"


class Project(Stage):
    """Compute an ordered list of output expressions (select)."""

    def __init__(self, exprs: Sequence[Expr]):
        self.exprs = tuple(exprs)

    def output(self, columns: BoundsEnv) -> BoundsEnv:
        if not self.exprs:
            raise QueryError(f"{self.label()}: select() needs at least one column")
        for expr in self.exprs:
            self._check_no_aggregate(expr, "select()")
            self._check_expr(expr, columns)
        return self._check_unique([expr.output_name() for expr in self.exprs],
                                  [_typed(expr, columns) for expr in self.exprs])

    def reads(self, required: Sequence[str]) -> List[str]:
        return _unique([name for expr in self.exprs for name in expr.columns()])

    def label(self) -> str:
        return f"Project({', '.join(e.output_name() for e in self.exprs)})"


class WithColumn(Stage):
    """Append one derived column to the input schema."""

    def __init__(self, name: str, expr: Expr):
        self.name = name
        self.expr = expr

    def output(self, columns: BoundsEnv) -> BoundsEnv:
        if self.name in columns:
            raise QueryError(
                f"{self.label()}: column {self.name!r} already exists in the "
                "input; shadowing is not supported — pick a fresh name"
            )
        self._check_no_aggregate(self.expr, "with_column()")
        self._check_expr(self.expr, columns)
        return {**columns, self.name: _typed(self.expr, columns)}

    def reads(self, required: Sequence[str]) -> List[str]:
        return _unique([name for name in required if name != self.name]
                       + self.expr.columns())

    def label(self) -> str:
        return f"WithColumn({self.name} = {self.expr!r})"


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #

class Aggregate(Stage):
    """Grouped (*keys* non-empty) or scalar (*keys* empty) aggregation."""

    def __init__(self, keys: Sequence[Expr], aggregates: Sequence[Expr]):
        self.keys = tuple(keys)
        self.aggregates = tuple(aggregates)

    def output(self, columns: BoundsEnv) -> BoundsEnv:
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
            self._check_expr(key, columns)
        mode = "grouped" if self.keys else "scalar"
        for agg in self.aggregates:
            if not isinstance(unwrap_alias(agg), AggExpr):
                raise QueryError(
                    f"{self.label()}: {agg!r} is not an aggregate expression — "
                    f"mixing plain ({mode}-mode) columns with aggregates is "
                    "not allowed; wrap it in .sum()/.min()/.max()/.mean()/"
                    ".count(), or make it a group_by() key"
                )
            self._check_expr(agg, columns)
        return self._check_unique([k.output_name() for k in self.keys + self.aggregates],
                                  [_typed(key, columns) for key in self.keys])

    def reads(self, required: Sequence[str]) -> List[str]:
        return _unique([name for expr in self.keys + self.aggregates
                        for name in expr.columns()])

    def label(self) -> str:
        if not self.keys:
            return "Aggregate(scalar)"
        return f"Aggregate(keys=[{', '.join(k.output_name() for k in self.keys)}])"


# --------------------------------------------------------------------------- #
# Ordering and truncation
# --------------------------------------------------------------------------- #

class Sort(Stage):
    """Stable sort by one or more key expressions."""

    def __init__(self, by: Sequence[Expr], descending: Sequence[bool]):
        self.by = tuple(by)
        self.descending = tuple(bool(d) for d in descending)

    def output(self, columns: BoundsEnv) -> BoundsEnv:
        if not self.by:
            raise QueryError(f"{self.label()}: sort() needs at least one key")
        if len(self.by) != len(self.descending):
            raise QueryError(
                f"{self.label()}: got {len(self.by)} sort keys but "
                f"{len(self.descending)} descending flags"
            )
        for key in self.by:
            self._check_no_aggregate(key, "sort() keys")
            self._check_expr(key, columns)
        return columns

    def reads(self, required: Sequence[str]) -> List[str]:
        return _unique(list(required) + [name for key in self.by
                                         for name in key.columns()])

    def label(self) -> str:
        keys = ", ".join(
            f"{k!r}{' DESC' if d else ''}" for k, d in zip(self.by, self.descending))
        return f"Sort({keys})"


class Limit(Stage):
    """Keep the first *count* rows."""

    def __init__(self, count: int):
        self.count = int(count)

    def output(self, columns: BoundsEnv) -> BoundsEnv:
        if self.count < 0:
            raise QueryError(f"{self.label()}: limit must be >= 0, got {self.count}")
        return columns

    def reads(self, required: Sequence[str]) -> List[str]:
        return list(required)

    def label(self) -> str:
        return f"Limit({self.count})"


# --------------------------------------------------------------------------- #
# Scans and the chain
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Scan:
    """A stored table, lazily referenced."""

    table: Table
    name: str = "table"

    @property
    def output(self) -> Tuple[str, ...]:
        return tuple(self.table.column_names)

    def label(self) -> str:
        return f"Scan({self.name})"


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


@dataclass
class PScan:
    """An optimizer-produced scan: conjuncts + derived columns + pruning.

    One ``PScan`` lowers onto exactly one :func:`repro.engine.scan.scan_table`
    call: *conjuncts* (in the recorded order) drive selection, *materialize*
    names the base columns gathered at the surviving positions, and
    *derived* expressions are evaluated per chunk against the scan's shared
    decompressed buffers.  *output* fixes the ordered result schema, drawing
    from both materialised and derived names.
    """

    table: Table
    name: str
    conjuncts: List[Conjunct]
    materialize: List[str]
    derived: List[Tuple[str, Expr]]
    output: List[str]
    notes: List[str]
    #: Set by the optimizer when a constant conjunct folded to False —
    #: the scan provably selects nothing and is never executed.
    always_empty: bool = False

    def label(self) -> str:
        return (f"Scan({self.name}: {self.table.row_count} rows, "
                f"materialize=[{', '.join(self.materialize)}])")


@dataclass(frozen=True)
class Chain:
    """A query: one scan, then *stages* in the order they run.

    *scan* is a :class:`Scan` as the user wrote it, a :class:`PScan` once
    optimized; *columns* is the ordered output of the last stage, each
    name's dtype recorded where known (:func:`_typed`).
    """

    scan: Union[Scan, PScan]
    stages: Tuple[Stage, ...]
    columns: BoundsEnv

    @property
    def schema(self) -> Tuple[str, ...]:
        return tuple(self.columns)

    @staticmethod
    def over(scan: Scan) -> "Chain":
        return Chain(scan, (), {name: (None, None, scan.table.column(name).dtype)
                                for name in scan.output})

    def then(self, stage: Stage) -> "Chain":
        """This chain with *stage* appended, validated against its output."""
        last = self.stages[-1] if self.stages else None
        if isinstance(last, Aggregate) and not last.keys:
            raise QueryError(
                f"{stage.label()}: cannot build on {last.label()} — a scalar "
                "aggregate is a terminal result; collect() it instead"
            )
        return Chain(self.scan, self.stages + (stage,), stage.output(self.columns))
