"""One matrix of one-column conjuncts against a NumPy oracle.

Every shape the range rule (:meth:`repro.api.expr.Expr.column_range`) reads
— ``between``, the six comparisons with the literal on either side,
``isin``, and a provably empty one-sided range — over every integer dtype
and float64, with ``int``, ``np.int64``, ``np.uint64`` and ``float``
literals and literals beyond the dtype.  Each case pins the rows, the
``explain()`` label and domain, and ``chunks_pushed_down``.
"""

import numpy as np
import pytest

from repro.api import col, dataset, lit
from repro.schemes import DictionaryEncoding
from repro.storage import Table

CHUNK = 8
DTYPES = [np.int8, np.int16, np.int32, np.int64,
          np.uint8, np.uint16, np.uint32, np.uint64, np.float64]
LITERALS = ["int", "np.int64", "np.uint64", "float", "above", "below"]
COMPARISONS = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
               ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
               "==": lambda a, b: a == b, "!=": lambda a, b: a != b}
FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
SHAPES = (["between"] + [f"col {op} lit" for op in COMPARISONS]
          + [f"lit {op} col" for op in COMPARISONS] + ["isin", "below the minimum"])


def _limits(dtype):
    if np.dtype(dtype).kind == "f":
        return -2**60, 2**60
    info = np.iinfo(dtype)
    return int(info.min), int(info.max)


def _values(dtype):
    """Eight chunks: constant ones at both limits and in the middle, runs
    across them, and one chunk that mixes everything."""
    lo, hi = _limits(dtype)
    mid = (lo + hi) // 2
    q = (mid + hi) // 2
    rows = ([lo] * 8 + list(range(lo, lo + 8)) + [mid] * 8 + list(range(mid - 4, mid + 4))
            + list(range(hi - 7, hi + 1)) + [hi] * 8
            + [lo, hi, mid, lo + 1, hi - 1, mid + 1, mid - 1, mid] + list(range(q - 4, q + 4)))
    if np.dtype(dtype).kind == "f":
        return np.array(rows, dtype=dtype) + np.tile([0.0, 0.5], len(rows) // 2)
    return np.array(rows, dtype=dtype)


@pytest.fixture(scope="module")
def tables():
    built = {}
    for dtype in DTYPES:
        values = _values(dtype)
        schemes = None if values.dtype.kind == "f" else {
            "x": DictionaryEncoding()}
        built[dtype] = values, Table.from_pydict({"x": values}, schemes=schemes,
                                                 chunk_size=CHUNK)
    return built


def _literal(kind, value, dtype):
    lo, hi = _limits(dtype)
    if kind == "int":
        return int(value)
    if kind == "np.int64":
        return np.int64(min(max(int(value), -2**63), 2**63 - 1))
    if kind == "np.uint64":
        return np.uint64(min(max(int(value), 0), 2**64 - 1))
    if kind == "float":
        return float(value)
    return hi + 1 if kind == "above" else lo - 1


def _is_plain_int(value):
    return isinstance(value, (int, np.integer))


def _conjunct(shape, kind, dtype):
    """The conjunct, its NumPy oracle over an array, and its range
    ``(low, high, exact)`` (``None`` when the rule reads none; ``exact``
    unless it is an ``isin``, whose values only lie in it)."""
    lo, hi = _limits(dtype)
    mid = (lo + hi) // 2
    literal = lambda value: _literal(kind, value, dtype)  # noqa: E731
    if shape == "between":
        low, high = literal(mid - 2), literal((mid + hi) // 2)
        if kind == "below":
            low, high = lo - 1, mid
        expr = col("x").between(low, high)
        exact = (low, high, True) if _is_plain_int(low) and _is_plain_int(high) else None
        return expr, lambda v: (v >= low) & (v <= high), exact
    if shape == "isin":
        candidates = [literal(lo + 1), literal(mid), literal(hi)]
        expr = col("x").isin(candidates)
        plain = all(_is_plain_int(c) for c in candidates)
        exact = (min(map(int, candidates)), max(map(int, candidates)), False) if plain else None

        def member(v):
            if v.dtype.kind == "f":  # NumPy semantics: the OR of ==
                return np.logical_or.reduce([v == c for c in candidates])
            return np.array([any(x == c for c in candidates) for x in v.tolist()])
        return expr, member, exact
    if shape == "below the minimum":
        value = literal(lo)
        return col("x") < value, lambda v: v < value, \
            (None, int(value) - 1, True) if _is_plain_int(value) else None
    side, op = shape.split()[0], shape.split()[1]
    value = literal(mid)
    expr = (col("x") if side == "col" else lit(value))
    expr = COMPARISONS[op](expr, value) if side == "col" else \
        COMPARISONS[op](lit(value), col("x"))
    op = op if side == "col" else FLIPPED[op]
    exact = None
    if _is_plain_int(value) and op != "!=":
        v = int(value)
        exact = {"<": (None, v - 1, True), "<=": (None, v, True), ">": (v + 1, None, True),
                 ">=": (v, None, True), "==": (v, v, True)}[op]
    return expr, lambda values: COMPARISONS[op](values, value), exact


def _pinned(values, exact):
    """``(label, domain, chunks_pushed_down)`` as the range rule decides them:
    ``native`` for a range of an integer column that is not provably empty
    once its open ends close at the column's [min, max]; pushed down, to the
    chunks its zone maps cannot decide, when it is exactly that range."""
    if exact is None or values.dtype.kind == "f":
        return "expr", "decompress", 0
    low, high, is_range = exact
    low = int(values.min()) if low is None else low
    high = int(values.max()) if high is None else high
    if low > high:
        return "expr", "decompress", 0
    if not is_range:
        return "native", "decompress", 0
    partial = 0
    for start in range(0, values.size, CHUNK):
        least, most = int(values[start:start + CHUNK].min()), int(values[start:start + CHUNK].max())
        if not (high < least or low > most) and not (low <= least and most <= high):
            partial += 1
    return "native", "compressed", partial


@pytest.mark.parametrize("kind", LITERALS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_conjunct_against_the_numpy_oracle(tables, dtype, shape, kind):
    values, table = tables[dtype]
    expr, oracle, exact = _conjunct(shape, kind, dtype)
    query = dataset(table).filter(expr).select("x")
    result = query.collect()
    want = np.flatnonzero(np.asarray(oracle(values), dtype=bool))
    assert np.array_equal(result.columns["x"].values, values[want])

    label, domain, pushed = _pinned(values, exact)
    where = [line for line in query.explain().splitlines() if "where" in line]
    assert len(where) == 1 and f"[{label}, {domain}" in where[0], where
    assert result.scan_stats.chunks_pushed_down == pushed


#: name -> (columns, conjunct): arithmetic whose exact corners leave the
#: dtype NumPy computes it in, where the values wrap, or are rounded to it.
PAST_THE_DTYPE = {
    "int64 * 2**40": ({"x": np.arange(2**30, 2**30 + 1000, dtype=np.int64)},
                      col("x") * 2**40 > 0),
    "int64 + 2**62": ({"x": np.array([2**62, 2**62 + 5, 3], dtype=np.int64)},
                      col("x") + 2**62 < 0),
    "int32 + 1000": ({"x": np.arange(2**31 - 100, 2**31 - 1, dtype=np.int32)},
                     col("x") + 1000 > 0),
    "int64 + uint64": ({"x": np.full(4, 2**53, dtype=np.int64), "u": np.ones(4, dtype=np.uint64)},
                       col("x") + col("u") > 2**53),
}


@pytest.mark.parametrize("storage", ["memory", "packed"])
@pytest.mark.parametrize("case", list(PAST_THE_DTYPE))
def test_zone_maps_decide_arithmetic_as_numpy_computes_it(case, storage, tmp_path):
    """A zone map bounds ``x * 2**40``, ``x + 2**62`` or an int32 ``x + 1000``
    only where the dtype NumPy computes it in holds the corners: past them
    the values wrap, and the chunk is evaluated.  An int64 plus a uint64 is
    bounded as NumPy computes it, in float64.  (Exact corners used to accept
    all 1 000 rows of the first where 999 wrap to a non-positive product,
    reject the 2 rows of the second, accept 99 rows of the third where none
    qualify, and accept 4 rows of the fourth, whose sums round to 2**53.)"""
    from repro.io import open_table, save_table

    columns, expr = PAST_THE_DTYPE[case]
    table = Table.from_pydict(columns, chunk_size=1000)
    if storage == "packed":
        table = open_table(save_table(table, tmp_path / "x.rpk")).table
    want = columns["x"][np.asarray(expr.evaluate(columns), dtype=bool)]
    for query in (dataset(table), dataset(table).without_zone_maps()):
        assert np.array_equal(query.filter(expr).select("x").collect().columns["x"].values, want)
