"""One range executor, one oracle: compressed aggregates on every backend.

Serial scans and pool workers run the same per-range code
(:func:`repro.engine.scan.execute_range`), so there is nothing to compare
pairwise: every configuration — {in-memory, packed} × ``workers`` {1, 2} ×
{scalar, grouped on a DICT key} × {no predicate, sparse, empty selection,
``uint64`` sum wrapping mod 2**64} — is checked against one oracle,
interpreter-decompress + NumPy, and the deterministic ``ScanStats`` must
not depend on the backend either.
"""

import numpy as np
import pytest

from repro.api import col, dataset
from repro.engine import ExecutionContext, parallel
from repro.engine.predicates import Between
from repro.engine.scan import scan_table
from repro.errors import QueryError
from repro.io.reader import open_packed_table
from repro.io.writer import write_packed_table
from repro.schemes import DictionaryEncoding, FrameOfReference, NullSuppression
from repro.storage import Table

NUM_ROWS = 6_000
CHUNK_SIZE = 500  # 12 chunk ranges


def _build_table():
    rng = np.random.default_rng(14)
    return Table.from_pydict(
        {
            "price": (np.cumsum(rng.integers(-3, 4, NUM_ROWS)) + 5_000).astype(np.int64),
            "qty": rng.integers(0, 1 << 9, NUM_ROWS).astype(np.int64),
            "cat": rng.integers(0, 12, NUM_ROWS).astype(np.int64),
            # Any ten of these sum past 2**64.
            "big": rng.integers(2**62, 2**63, NUM_ROWS).astype(np.uint64) * np.uint64(2),
            "weight": rng.random(NUM_ROWS),
        },
        schemes={"price": FrameOfReference(segment_length=128),
                 "qty": NullSuppression(), "cat": DictionaryEncoding()},
        chunk_size=CHUNK_SIZE)


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    memory = _build_table()
    path = tmp_path_factory.mktemp("range-executor") / "table.rpk"
    write_packed_table(memory, path)
    yield {"memory": memory, "packed": open_packed_table(path).table}
    parallel.shutdown_pools()


def _oracle_values(table):
    """Every column, decompressed chunk by chunk with the plan interpreter."""
    return {name: np.concatenate([
        chunk.scheme.decompress_interpreted(chunk.form).values
        for chunk in table.column(name).chunks]) for name in table.column_names}


#: selection name -> (dataset filter or None, NumPy mask, summed column)
SELECTIONS = {
    "none": (None, lambda v: np.ones(NUM_ROWS, dtype=bool), "price"),
    "sparse": (col("qty").between(100, 104),
               lambda v: (v["qty"] >= 100) & (v["qty"] <= 104), "price"),
    "empty": (col("qty").between(600, 700),
              lambda v: np.zeros(NUM_ROWS, dtype=bool), "price"),
    "uint64-wrap": (col("qty").between(0, 255),
                    lambda v: v["qty"] <= 255, "big"),
}


def _query(table, selection, shape, workers):
    predicate, __, summed = SELECTIONS[selection]
    ds = dataset(table)
    if predicate is not None:
        ds = ds.filter(predicate)
    if workers > 1:
        ds = ds.with_backend("process", workers=workers)
    aggregates = (col(summed).sum().alias("s"), col(summed).min().alias("lo"),
                  col("qty").max().alias("hi"), col("qty").count().alias("n"))
    if shape == "grouped":
        ds = ds.group_by("cat")
    return ds.agg(*aggregates)


@pytest.mark.parametrize("selection", list(SELECTIONS))
@pytest.mark.parametrize("shape", ["scalar", "grouped"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("storage", ["memory", "packed"])
def test_compressed_aggregates_match_the_oracle(tables, storage, workers,
                                                shape, selection):
    table = tables[storage]
    values = _oracle_values(table)
    __, mask_of, summed = SELECTIONS[selection]
    mask = mask_of(values)
    operand, qty, cat = values[summed][mask], values["qty"][mask], values["cat"][mask]
    accumulator = np.uint64 if summed == "big" else np.int64

    query = _query(table, selection, shape, workers)
    plan = query.explain()
    assert "[decompress]" not in plan  # every aggregate runs compressed
    assert ("backend=process[2]" in plan) == (storage == "packed" and workers == 2)
    if shape == "scalar" and selection == "empty":
        with pytest.raises(QueryError) as excinfo:
            query.collect()
        assert str(excinfo.value) == "aggregate 'sum' over zero rows"
        return
    result = query.collect()
    assert result.row_count == int(mask.sum())

    if shape == "scalar":
        assert result.scalars == {
            "s": int(operand.sum(dtype=accumulator)), "lo": int(operand.min()),
            "hi": int(qty.max()), "n": int(mask.sum())}
        if selection == "uint64-wrap":  # the sum really did wrap
            assert sum(int(v) for v in operand) >= 2**64
    else:
        keys = np.unique(cat)
        expected = {
            "cat": keys,
            "s": np.array([operand[cat == k].sum(dtype=accumulator) for k in keys],
                          dtype=accumulator),
            "lo": np.array([operand[cat == k].min() for k in keys],
                           dtype=operand.dtype),
            "hi": np.array([qty[cat == k].max() for k in keys], dtype=np.int64),
            "n": np.array([(cat == k).sum() for k in keys], dtype=np.int64),
        }
        assert set(result.columns) == set(expected)
        for name, want in expected.items():
            got = result.columns[name].values
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    # What the scan did does not depend on where its ranges ran.
    serial = _query(table, selection, shape, workers=1).collect()
    assert result.scan_stats.comparable() == serial.scan_stats.comparable()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("storage", ["memory", "packed"])
def test_float_sum_materialises_and_equals_numpy(tables, storage, workers):
    """A float sum depends on the order its addends meet, so it has no
    mergeable state: the planner labels it ``[decompress]`` and it adds the
    selection's values in selection order — ``np.sum`` of the selection,
    to the last bit, on both backends."""
    table = tables[storage]
    values = _oracle_values(table)
    mask = (values["qty"] >= 16) & (values["qty"] <= 400)
    base = dataset(table).filter(col("qty").between(16, 400))
    if workers > 1:
        base = base.with_backend("process", workers=workers)

    scalar = base.agg(col("weight").sum().alias("w"),
                      col("price").sum().alias("s"))
    assert "agg w [decompress]" in scalar.explain()
    result = scalar.collect()
    assert result.scalars["w"] == float(np.sum(values["weight"][mask]))
    assert result.scalars["s"] == int(values["price"][mask].sum())

    grouped = base.group_by("cat").agg(col("weight").sum().alias("w"))
    assert "agg w [decompress]" in grouped.explain()
    result = grouped.collect()
    keys, codes = np.unique(values["cat"][mask], return_inverse=True)
    assert np.array_equal(result.columns["cat"].values, keys)
    assert np.array_equal(
        result.columns["w"].values,
        np.bincount(codes.reshape(-1), weights=values["weight"][mask],
                    minlength=keys.size))
    # Float min/max are order-free and still run compressed.
    assert "[decompress]" not in base.agg(col("weight").min()).explain()


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_table_carries_the_aggregate_plan(tables, workers):
    """``scan_table(aggregates=...)`` is the whole interface: ranges fold
    their rows into states, the scan returns the merged state and no
    selection, for either backend."""
    table = tables["packed"]
    values = _oracle_values(table)
    mask = (values["qty"] >= 16) & (values["qty"] <= 400)
    plan = {"key": None, "aggregates": [("s", "sum", "price"),
                                        ("n", "count", None)]}
    scan = scan_table(table, [Between("qty", 16, 400)], aggregates=plan,
                      context=ExecutionContext(workers=workers))
    assert scan.backend == ("serial" if workers == 1 else "process[2]")
    assert len(scan.selection) == 0
    assert scan.stats.rows_selected == int(mask.sum())
    assert scan.state["s"].finalize() == int(values["price"][mask].sum())
    assert scan.state["n"].finalize() == int(mask.sum())
    with pytest.raises(QueryError, match="unknown scan column 'nope'"):
        scan_table(table, [], aggregates={
            "key": None, "aggregates": [("s", "sum", "nope")]})
