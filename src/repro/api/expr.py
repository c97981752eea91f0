"""The lazy expression DSL: ``col("price") * col("qty") > lit(100)``.

Expressions are small immutable trees.  Building one never touches data —
it only records *what* to compute.  The same trees serve from the API down
to the chunks:

* the **logical plan** (:mod:`repro.api.logical`) validates references and
  derives output schemas at construction time;
* the **optimizer** (:mod:`repro.api.optimize`) normalizes boolean structure
  (De Morgan, double negation, CNF splitting) and estimates per-chunk
  selectivity over the storage layer's zone maps;
* the **scan** (:func:`repro.engine.scan.scan_table`) takes conjuncts and
  derived columns as they are and calls four methods only:
  :meth:`Expr.columns`, :meth:`Expr.evaluate` on decompressed values,
  :meth:`Expr.decide` on a chunk's zone map (tri-state interval arithmetic)
  and :meth:`Expr.column_range`, the one rule saying which conjunct is a
  range of one column — what the optimizer's estimate, ``explain()``'s
  ``native`` label, zone-map range pruning and the compressed-domain
  kernels' bounds all read.

The operator surface follows the NumPy semantics the engine executes:
``+ - * / // %`` arithmetic, ``== != < <= > >=`` comparisons, ``& | ~``
boolean algebra, :meth:`Expr.isin` / :meth:`Expr.between` memberships, and
aggregate constructors ``sum/min/max/mean/count`` with ``.alias(name)``.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, \
    Tuple

import numpy as np

from ..errors import QueryError

#: Interval environment: column name -> inclusive (low, high) bounds, or
#: ``None`` when the column's bounds are unknown / untrusted (float columns).
#: A third entry, the column's dtype, lets arithmetic be bounded as NumPy
#: computes it: wrapped past the dtype, rounded in float64
#: (:meth:`Expr.computed_dtype`).
Bounds = Optional[Tuple[float, float]]
BoundsEnv = Mapping[str, Optional[Tuple[Any, ...]]]
#: Value environment: column name -> materialised values (one scan chunk, a
#: gathered slice, or a whole column — expressions are elementwise and do
#: not care).
ValueEnv = Mapping[str, np.ndarray]

_AGG_OPS = ("sum", "min", "max", "mean", "count")


class ColumnRange(NamedTuple):
    """A conjunct read as a range of one stored column (:meth:`Expr.column_range`)."""

    column: str
    low: Optional[int]  #: ``None``: open below
    high: Optional[int]  #: ``None``: open above
    points: int  #: the literals of ``==`` and ``isin``; 0 for a range
    exact: bool  #: the rows qualifying are exactly those in ``[low, high]``


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating, bool, np.bool_))


def _is_plain_int(value: Any) -> bool:
    return type(value) is int or isinstance(value, np.integer)  # not bool, not np.bool_


_FLOATS = (float, np.floating)


def _held(low: Any, high: Any, dtype: Optional[np.dtype]) -> Bounds:
    """``(low, high)`` when *dtype*, the one NumPy computes them in, holds
    both; else ``None``: past its limits the values wrap, and exact corners
    would accept or reject what evaluating answers otherwise."""
    if dtype is not None and dtype.kind in "biu":
        least, most = (0, 1) if dtype.kind == "b" else (np.iinfo(dtype).min, np.iinfo(dtype).max)
        if low < least or high > most:
            return None
    return (low, high)


def _promoted(operands: Sequence["Expr"], env: BoundsEnv) -> Optional[np.dtype]:
    """The dtype NumPy computes arithmetic over *operands* in (a Python number
    takes the other side's); ``None`` when one is unknown, or all are Python
    numbers, whose arithmetic is exact."""
    types = [operand.value if isinstance(operand, Literal) else operand.computed_dtype(env)
             for operand in operands]
    typed = [t for t in types if isinstance(t, (np.dtype, np.generic))]
    return np.result_type(*types) if typed and None not in types else None


def _as_compared(a: Tuple[Any, Any], b: Tuple[Any, Any]) -> Tuple[Tuple[Any, Any], ...]:
    """Two bounds pairs as NumPy compares them.  Python compares an ``int``
    with a ``float`` exactly, NumPy (and a NumPy scalar) in float64: with a
    Python float among them, every value is rounded as the arrays are."""
    if float in (type(a[0]), type(a[1]), type(b[0]), type(b[1])):
        return (float(a[0]), float(a[1])), (float(b[0]), float(b[1]))
    return a, b


class Expr(abc.ABC):
    """Base class of all DSL expressions."""

    __slots__ = ()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def columns(self) -> List[str]:
        """Referenced column names, in first-use order, without duplicates."""
        names = [name for child in self.children() for name in child.columns()]
        return names if len(names) < 2 else list(dict.fromkeys(names))

    @abc.abstractmethod
    def evaluate(self, env: ValueEnv) -> np.ndarray:
        """Evaluate against materialised arrays (elementwise, NumPy semantics)."""

    def output_name(self) -> str:
        """The column name this expression produces in a result."""
        return repr(self)

    def contains_aggregate(self) -> bool:
        """Whether an aggregate (``sum()``, ...) appears anywhere in the tree."""
        return any(child.contains_aggregate() for child in self.children())

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Replace column references per *mapping* (used to inline derived columns)."""
        return self

    # ------------------------------------------------------------------ #
    # Zone-map reasoning (interval arithmetic)
    # ------------------------------------------------------------------ #

    def bounds(self, env: BoundsEnv) -> Bounds:
        """Inclusive value bounds under *env*, or ``None`` when unknown."""
        decision = self.decide(env)
        if decision is True:
            return (1, 1)
        if decision is False:
            return (0, 0)
        return None

    def computed_dtype(self, env: BoundsEnv) -> Optional[np.dtype]:
        """The dtype NumPy evaluates this expression in over columns of the
        dtypes *env* records, or ``None`` when unknown (a boolean here)."""
        return np.dtype(np.bool_)

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        """Tri-state truth of a boolean expression under *env* bounds.

        ``True`` — every row in a chunk with these bounds qualifies;
        ``False`` — no row can qualify; ``None`` — must be evaluated.
        """
        return None

    def column_range(self) -> Optional[ColumnRange]:
        """The one range rule: a :class:`ColumnRange` when this conjunct
        selects rows of a stored column by integer literals — ``between``, a
        comparison other than ``!=`` with the column on either side (both
        *exact*: the rows are those in the range), or ``isin`` (its values
        only lie in it) — else ``None``."""
        return None

    # ------------------------------------------------------------------ #
    # Operator overloads (building, never evaluating)
    # ------------------------------------------------------------------ #

    def __add__(self, other: Any) -> "Expr":
        return Arithmetic("+", self, as_expr(other))

    def __radd__(self, other: Any) -> "Expr":
        return Arithmetic("+", as_expr(other), self)

    def __sub__(self, other: Any) -> "Expr":
        return Arithmetic("-", self, as_expr(other))

    def __rsub__(self, other: Any) -> "Expr":
        return Arithmetic("-", as_expr(other), self)

    def __mul__(self, other: Any) -> "Expr":
        return Arithmetic("*", self, as_expr(other))

    def __rmul__(self, other: Any) -> "Expr":
        return Arithmetic("*", as_expr(other), self)

    def __truediv__(self, other: Any) -> "Expr":
        return Arithmetic("/", self, as_expr(other))

    def __floordiv__(self, other: Any) -> "Expr":
        return Arithmetic("//", self, as_expr(other))

    def __mod__(self, other: Any) -> "Expr":
        return Arithmetic("%", self, as_expr(other))

    def __neg__(self) -> "Expr":
        return Negate(self)

    def __eq__(self, other: Any) -> "Expr":  # type: ignore[override]
        return Comparison("==", self, as_expr(other))

    def __ne__(self, other: Any) -> "Expr":  # type: ignore[override]
        return Comparison("!=", self, as_expr(other))

    def __lt__(self, other: Any) -> "Expr":
        return Comparison("<", self, as_expr(other))

    def __le__(self, other: Any) -> "Expr":
        return Comparison("<=", self, as_expr(other))

    def __gt__(self, other: Any) -> "Expr":
        return Comparison(">", self, as_expr(other))

    def __ge__(self, other: Any) -> "Expr":
        return Comparison(">=", self, as_expr(other))

    def __and__(self, other: Any) -> "Expr":
        return BooleanAnd(self, as_expr(other))

    def __rand__(self, other: Any) -> "Expr":
        return BooleanAnd(as_expr(other), self)

    def __or__(self, other: Any) -> "Expr":
        return BooleanOr(self, as_expr(other))

    def __ror__(self, other: Any) -> "Expr":
        return BooleanOr(as_expr(other), self)

    def __invert__(self) -> "Expr":
        return BooleanNot(self)

    # Comparisons return Exprs, so Python's truthiness would silently pick a
    # branch; fail loudly instead (``and`` / ``or`` / ``if expr`` misuse).
    def __bool__(self) -> bool:
        raise QueryError(
            f"the truth value of the lazy expression {self!r} is undefined; "
            "use & | ~ to combine predicates, not 'and'/'or'/'not'"
        )

    # ``__eq__`` builds a Comparison, so identity is the only sane hash.
    __hash__ = object.__hash__

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #

    def isin(self, values: Iterable[Any]) -> "Expr":
        """``self ∈ values``."""
        return IsInExpr(self, values)

    def between(self, low: Any, high: Any) -> "Expr":
        """``low <= self <= high``, inclusive on both ends."""
        return BetweenExpr(self, low, high)

    def alias(self, name: str) -> "Expr":
        """Name the expression's output column."""
        return Alias(self, name)

    def sum(self) -> "AggExpr":
        return AggExpr("sum", self)

    def min(self) -> "AggExpr":
        return AggExpr("min", self)

    def max(self) -> "AggExpr":
        return AggExpr("max", self)

    def mean(self) -> "AggExpr":
        return AggExpr("mean", self)

    def count(self) -> "AggExpr":
        return AggExpr("count", self)


def as_expr(value: Any) -> Expr:
    """Coerce *value* into an :class:`Expr` (numbers become literals)."""
    if isinstance(value, Expr):
        return value
    if _is_number(value):
        return Literal(value)
    raise QueryError(
        f"cannot use {value!r} (type {type(value).__name__}) in an expression; "
        "expected an Expr or a number"
    )


# --------------------------------------------------------------------------- #
# Leaves
# --------------------------------------------------------------------------- #

class ColumnRef(Expr):
    """A reference to a column by name — build with :func:`col`."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise QueryError(f"col() needs a non-empty column name, got {name!r}")
        self.name = name

    def columns(self) -> List[str]:
        return [self.name]

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return env[self.name]

    def bounds(self, env: BoundsEnv) -> Bounds:
        found = env.get(self.name)
        return None if found is None else found[:2]

    def computed_dtype(self, env: BoundsEnv) -> Optional[np.dtype]:
        found = env.get(self.name)
        return None if found is None or len(found) < 3 else np.dtype(found[2])

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return mapping.get(self.name, self)

    def output_name(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return self.name


class Literal(Expr):
    """A constant — build with :func:`lit` (or let numbers coerce)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        if not _is_number(value):
            raise QueryError(f"lit() supports numeric/boolean constants, got {value!r}")
        self.value = value

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return self.value  # NumPy broadcasting does the rest

    def bounds(self, env: BoundsEnv) -> Bounds:
        value = self.value
        v = float(value) if isinstance(value, _FLOATS) else int(value)
        return (v, v)

    def computed_dtype(self, env: BoundsEnv) -> Optional[np.dtype]:
        return _promoted((self,), env)

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        if isinstance(self.value, (bool, np.bool_)):
            return bool(self.value)
        return None

    def __repr__(self) -> str:
        return repr(self.value)


class _Unary(Expr):
    """An expression over one *operand*."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return type(self)(self.operand.substitute(mapping))


class _Binary(Expr):
    """An expression over two operands, *left* and *right*."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return type(self)(self.left.substitute(mapping), self.right.substitute(mapping))


# --------------------------------------------------------------------------- #
# Arithmetic
# --------------------------------------------------------------------------- #

_ARITH_FNS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: np.true_divide(a, b),
    "//": lambda a, b: np.floor_divide(a, b),
    "%": lambda a, b: np.mod(a, b),
}


class Arithmetic(_Binary):
    """A binary arithmetic expression (``+ - * / // %``)."""

    __slots__ = ("op",)

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _ARITH_FNS:
            raise QueryError(f"unknown arithmetic operator {op!r}")
        super().__init__(left, right)
        self.op = op

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return _ARITH_FNS[self.op](self.left.evaluate(env), self.right.evaluate(env))

    def bounds(self, env: BoundsEnv) -> Bounds:
        lb = self.left.bounds(env)
        rb = self.right.bounds(env)
        if lb is None or rb is None or self.op not in ("+", "-", "*"):
            return None  # division / modulo: conservative
        dtype = self.computed_dtype(env)
        if dtype is not None and dtype.kind == "f":
            if dtype != np.float64:
                return None
            # NumPy rounds each operand and the result to float64, as Python
            # float arithmetic does; rounding is monotone, so corners stay corners.
            lb, rb = (float(lb[0]), float(lb[1])), (float(rb[0]), float(rb[1]))
        (llo, lhi), (rlo, rhi) = lb, rb
        if self.op == "+":
            low, high = llo + rlo, lhi + rhi
        elif self.op == "-":
            low, high = llo - rhi, lhi - rlo
        else:
            corners = (llo * rlo, llo * rhi, lhi * rlo, lhi * rhi)
            low, high = min(corners), max(corners)
        return _held(low, high, dtype)

    def computed_dtype(self, env: BoundsEnv) -> Optional[np.dtype]:
        return _promoted((self.left, self.right), env)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Arithmetic(self.op, self.left.substitute(mapping),
                          self.right.substitute(mapping))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Negate(_Unary):
    """Arithmetic negation (``-expr``)."""

    __slots__ = ()

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return -self.operand.evaluate(env)

    def bounds(self, env: BoundsEnv) -> Bounds:
        b = self.operand.bounds(env)
        return None if b is None else _held(-b[1], -b[0], self.computed_dtype(env))

    def computed_dtype(self, env: BoundsEnv) -> Optional[np.dtype]:
        return _promoted((self.operand,), env)

    def __repr__(self) -> str:
        return f"(-{self.operand!r})"


# --------------------------------------------------------------------------- #
# Comparisons and boolean algebra
# --------------------------------------------------------------------------- #

_CMP_FNS: Dict[str, Callable[[Any, Any], Any]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_CMP_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
_CMP_NEGATE = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


class Comparison(_Binary):
    """A comparison producing a boolean mask."""

    __slots__ = ("op",)

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _CMP_FNS:
            raise QueryError(f"unknown comparison operator {op!r}")
        super().__init__(left, right)
        self.op = op

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return _CMP_FNS[self.op](self.left.evaluate(env), self.right.evaluate(env))

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        op = self.op
        if op in (">", ">="):
            return Comparison(_CMP_FLIP[op], self.right, self.left).decide(env)
        lb = self.left.bounds(env)
        rb = self.right.bounds(env)
        if lb is None or rb is None:
            return None
        (llo, lhi), (rlo, rhi) = _as_compared(lb, rb)
        if op == "<":
            if lhi < rlo:
                return True
            if llo >= rhi:
                return False
            return None
        if op == "<=":
            if lhi <= rlo:
                return True
            if llo > rhi:
                return False
            return None
        if op == "==":
            if llo == lhi == rlo == rhi:
                return True
            if lhi < rlo or llo > rhi:
                return False
            return None
        # "!="
        inner = Comparison("==", self.left, self.right).decide(env)
        return None if inner is None else not inner

    def column_range(self) -> Optional[ColumnRange]:
        column, literal, op = self.left, self.right, self.op
        if isinstance(literal, ColumnRef):
            column, literal, op = literal, column, _CMP_FLIP[op]
        if op == "!=" or not (isinstance(column, ColumnRef) and isinstance(literal, Literal)
                              and _is_plain_int(literal.value)):
            return None
        v = int(literal.value)
        low, high = {"==": (v, v), "<": (None, v - 1), "<=": (None, v),
                     ">": (v + 1, None), ">=": (v, None)}[op]
        return ColumnRange(column.name, low, high, int(op == "=="), True)

    def negated(self) -> "Comparison":
        """``NOT (a < b)`` is ``a >= b`` — exact under NumPy total orders."""
        return Comparison(_CMP_NEGATE[self.op], self.left, self.right)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Comparison(self.op, self.left.substitute(mapping),
                          self.right.substitute(mapping))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class BooleanAnd(_Binary):
    """Conjunction (``&``)."""

    __slots__ = ()

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return self.left.evaluate(env) & self.right.evaluate(env)

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        a, b = self.left.decide(env), self.right.decide(env)
        if a is False or b is False:
            return False
        if a is True and b is True:
            return True
        return None

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


class BooleanOr(_Binary):
    """Disjunction (``|``)."""

    __slots__ = ()

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return self.left.evaluate(env) | self.right.evaluate(env)

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        a, b = self.left.decide(env), self.right.decide(env)
        if a is True or b is True:
            return True
        if a is False and b is False:
            return False
        return None

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


class BooleanNot(_Unary):
    """Negation (``~``)."""

    __slots__ = ()

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return ~self.operand.evaluate(env)

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        inner = self.operand.decide(env)
        return None if inner is None else not inner

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


class BetweenExpr(_Unary):
    """``low <= operand <= high`` (inclusive, like the engine's ``Between``)."""

    __slots__ = ("low", "high")

    def __init__(self, operand: Expr, low: Any, high: Any):
        if not _is_number(low) or not _is_number(high):
            raise QueryError(
                f"between() bounds must be numbers, got {low!r} and {high!r}")
        if high < low:
            raise QueryError(f"between(): empty range [{low}, {high}]")
        self.operand = operand
        self.low = low
        self.high = high

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        values = self.operand.evaluate(env)
        return (values >= self.low) & (values <= self.high)

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        b = self.operand.bounds(env)
        if b is None:
            return None
        (lo, hi), (low, high) = _as_compared(b, (self.low, self.high))
        if low <= lo and hi <= high:
            return True
        if hi < low or lo > high:
            return False
        return None

    def column_range(self) -> Optional[ColumnRange]:
        if isinstance(self.operand, ColumnRef) and _is_plain_int(self.low) \
                and _is_plain_int(self.high):
            return ColumnRange(self.operand.name, int(self.low), int(self.high), 0, True)
        return None

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return BetweenExpr(self.operand.substitute(mapping), self.low, self.high)

    def __repr__(self) -> str:
        return f"({self.operand!r} BETWEEN {self.low} AND {self.high})"


class IsInExpr(_Unary):
    """``operand ∈ candidates``."""

    __slots__ = ("candidates",)

    def __init__(self, operand: Expr, candidates: Iterable[Any]):
        values = tuple(sorted(set(candidates)))
        if not values:
            raise QueryError("isin() requires at least one candidate value")
        if not all(_is_number(v) for v in values):
            raise QueryError(f"isin() candidates must be numbers, got {values!r}")
        self.operand = operand
        self.candidates = values

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        values = np.asarray(self.operand.evaluate(env))
        if values.dtype.kind not in "iu":
            return np.isin(values, np.asarray(self.candidates))
        # Integer values match only the candidates their dtype holds exactly:
        # mixed candidates would otherwise compare in float64.
        info = np.iinfo(values.dtype)
        held = [int(v) for v in self.candidates
                if info.min <= v <= info.max
                and not (isinstance(v, _FLOATS) and not float(v).is_integer())]
        return np.isin(values, np.array(held, dtype=values.dtype))

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        b = self.operand.bounds(env)
        if b is None:
            return None
        lo, hi = b
        if hi < self.candidates[0] or lo > self.candidates[-1]:
            return False
        if lo == hi and lo in self.candidates:
            return True
        return None

    def column_range(self) -> Optional[ColumnRange]:
        values = self.candidates
        if isinstance(self.operand, ColumnRef) and all(map(_is_plain_int, values)):
            return ColumnRange(self.operand.name, int(values[0]), int(values[-1]), len(values),
                               False)
        return None

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return IsInExpr(self.operand.substitute(mapping), self.candidates)

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.candidates)
        return f"({self.operand!r} IN ({inner}))"


# --------------------------------------------------------------------------- #
# Aggregates and aliases
# --------------------------------------------------------------------------- #

class AggExpr(Expr):
    """An aggregate over an (optional) input expression.

    ``operand=None`` is ``count(*)``.  Aggregates may only appear in
    :meth:`Dataset.agg` / :meth:`GroupedDataset.agg` — the logical plan
    rejects them inside filters, projections and sort keys.
    """

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Optional[Expr]):
        if op not in _AGG_OPS:
            raise QueryError(f"unknown aggregate {op!r}; known: {_AGG_OPS}")
        if operand is not None and operand.contains_aggregate():
            raise QueryError(
                f"nested aggregates are not supported: {op}({operand!r})")
        if operand is None and op != "count":
            raise QueryError(f'only count may aggregate over "*", not {op!r}')
        self.op = op
        self.operand = operand

    def children(self) -> Tuple[Expr, ...]:
        return () if self.operand is None else (self.operand,)

    def contains_aggregate(self) -> bool:
        return True

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        raise QueryError(
            f"aggregate {self!r} cannot be evaluated elementwise; "
            "use Dataset.agg() / group_by().agg()"
        )

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        if self.operand is None:
            return self
        return AggExpr(self.op, self.operand.substitute(mapping))

    def output_name(self) -> str:
        inner = "*" if self.operand is None else self.operand.output_name()
        return f"{self.op}({inner})"

    def __repr__(self) -> str:
        inner = "*" if self.operand is None else repr(self.operand)
        return f"{self.op}({inner})"


class Alias(Expr):
    """A transparent rename of an expression's output column."""

    __slots__ = ("inner", "name")

    def __init__(self, inner: Expr, name: str):
        if not isinstance(name, str) or not name:
            raise QueryError(f"alias() needs a non-empty name, got {name!r}")
        self.inner = inner
        self.name = name

    def children(self) -> Tuple[Expr, ...]:
        return (self.inner,)

    def evaluate(self, env: ValueEnv) -> np.ndarray:
        return self.inner.evaluate(env)

    def bounds(self, env: BoundsEnv) -> Bounds:
        return self.inner.bounds(env)

    def computed_dtype(self, env: BoundsEnv) -> Optional[np.dtype]:
        return self.inner.computed_dtype(env)

    def decide(self, env: BoundsEnv) -> Optional[bool]:
        return self.inner.decide(env)

    def substitute(self, mapping: Mapping[str, Expr]) -> Expr:
        return Alias(self.inner.substitute(mapping), self.name)

    def output_name(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"{self.inner!r} AS {self.name}"


# --------------------------------------------------------------------------- #
# Boolean normalization (shared by the optimizer)
# --------------------------------------------------------------------------- #

def normalize_boolean(expr: Expr) -> Expr:
    """Push ``NOT`` inward (De Morgan) and drop double negations.

    ``~(a | b)`` becomes ``~a & ~b`` so CNF splitting can push both halves
    into the scan independently; ``~(a < b)`` becomes ``a >= b``, which
    :meth:`Expr.column_range` reads as a range.
    """
    if isinstance(expr, BooleanNot):
        inner = expr.operand
        if isinstance(inner, BooleanNot):
            return normalize_boolean(inner.operand)
        if isinstance(inner, BooleanOr):
            return BooleanAnd(normalize_boolean(BooleanNot(inner.left)),
                              normalize_boolean(BooleanNot(inner.right)))
        if isinstance(inner, BooleanAnd):
            return BooleanOr(normalize_boolean(BooleanNot(inner.left)),
                             normalize_boolean(BooleanNot(inner.right)))
        if isinstance(inner, Comparison):
            return inner.negated()
        return BooleanNot(normalize_boolean(inner))
    if isinstance(expr, BooleanAnd):
        return BooleanAnd(normalize_boolean(expr.left), normalize_boolean(expr.right))
    if isinstance(expr, BooleanOr):
        return BooleanOr(normalize_boolean(expr.left), normalize_boolean(expr.right))
    return expr


def split_conjuncts(expr: Expr) -> List[Expr]:
    """CNF-split a normalized expression into its top-level AND conjuncts."""
    if isinstance(expr, BooleanAnd):
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    if isinstance(expr, Alias):
        return split_conjuncts(expr.inner)
    return [expr]


# --------------------------------------------------------------------------- #
# Public constructors
# --------------------------------------------------------------------------- #

def col(name: str) -> ColumnRef:
    """Reference a column by name: ``col("price")``."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """A literal constant: ``lit(100)``."""
    return Literal(value)


def count() -> AggExpr:
    """``count(*)`` — counts qualifying rows (per group under ``group_by``)."""
    return AggExpr("count", None)
