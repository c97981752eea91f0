"""One range executor, one oracle: every foldable aggregate on every backend.

Serial scans and pool workers run the same per-range code
(:func:`repro.engine.scan.execute_range`), so there is nothing to compare
pairwise: every configuration — {in-memory, packed} × ``workers`` {1, 2} ×
{no predicate, sparse, empty selection, ``uint64`` sum wrapping mod 2**64} ×
aggregate shape (bare columns scalar / on a DICT key, a derived-column
operand, an expression key, a sorted RLE key read off its runs, an unsorted
NS key, a DELTA operand, ``count(*)`` beside a boolean ``sum``) — is checked
against one oracle, interpreter-decompress + NumPy, and the deterministic
``ScanStats`` must not depend on the backend either.  What the fold planner
turns away (float ``sum``, ``mean``, two keys) is checked against the same
oracle, and so are scalar aggregates over chunks a selection covers whole —
answered by their zone maps, or gathered with those switched off;
one section pins what a range hands back (a state, no positions, no
pieces), that a range its zone maps rule out — which allocates
no mask and gathers nothing — hands back what the same range evaluated with
zone maps off makes of its empty selection, that a span which is not one
chunk range is refused, and that the one pass which rules ranges out or
answers them before any is executed (``scan._live_ranges``) reports, counter
for counter, what the range executor reports when it is handed every range.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import col, count, dataset, lit
from repro.engine import ExecutionContext, parallel
from repro.engine import scan as scan_module
from repro.engine.operators import aggregate_state, merge_states
from repro.engine.resilience import FaultPlan, FaultPolicy
from repro.engine.scan import ScanSpec, execute_range, scan_table
from repro.engine.stats import ScanStats
from repro.errors import QueryError
from repro.io.reader import open_packed_table
from repro.io.writer import write_packed_table
from repro.schemes import (
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    PatchedFrameOfReference,
    RunLengthEncoding,
)
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
            "uq": rng.integers(0, 1 << 9, NUM_ROWS).astype(np.uint64),
            "day": np.sort(rng.integers(0, 40, NUM_ROWS)).astype(np.int64),
            "lane": rng.integers(0, 9, NUM_ROWS).astype(np.int64),
            "oid": np.cumsum(rng.integers(1, 5, NUM_ROWS)).astype(np.int64),
        },
        schemes={"price": FrameOfReference(segment_length=128),
                 "qty": NullSuppression(), "cat": DictionaryEncoding(),
                 "day": RunLengthEncoding(), "lane": NullSuppression(),
                 "oid": Delta()},
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


#: The column multiplied into the derived operand: same signedness as the
#: summed one, so the product stays in its integer family (and wraps there).
PARTNER = {"price": "qty", "big": "uq"}


def _shape(name, summed):
    """``(key, with_column, aggregates)`` of one aggregate shape.  *key* is
    ``(expression, NumPy twin)`` or ``None``; *with_column* is ``(name,
    expression)`` or ``None``; each aggregate is ``(output, op, operand
    expression | None, NumPy twin | None)``, the twins taking the selected
    values of every column."""
    operand = (col(summed), lambda v: v[summed])
    qty = (col("qty"), lambda v: v["qty"])
    oid = (col("oid"), lambda v: v["oid"])
    revenue = (col("rev"), lambda v: (v[summed] + 3) * v[PARTNER[summed]])
    bare = [("s", "sum", *operand), ("lo", "min", *operand),
            ("hi", "max", *qty), ("n", "count", *qty)]
    by_value = [("s", "sum", *operand), ("lo", "min", *operand),
                ("n", "count", None, None)]
    return {
        "scalar": (None, None, bare),
        "grouped": ((col("cat"), lambda v: v["cat"]), None, bare),
        "derived-operand": (None, ("rev", (col(summed) + 3) * col(PARTNER[summed])),
                            [("s", "sum", *revenue), ("hi", "max", *revenue)]),
        "expression-key": (((col("qty") % 7).alias("bucket"), lambda v: v["qty"] % 7),
                           None, by_value),
        "sorted-rle-key": ((col("day"), lambda v: v["day"]), None, by_value),
        "unsorted-ns-key": ((col("lane"), lambda v: v["lane"]), None, by_value),
        "delta-operand": (None, None, [("s", "sum", *oid), ("hi", "max", *oid),
                                       ("lo", "min", *operand)]),
        "delta-operand-on-dict-key": ((col("cat"), lambda v: v["cat"]), None,
                                      [("s", "sum", *oid), ("hi", "max", *oid)]),
        "count-star-and-boolean-sum": (
            None, None, [("n", "count", None, None),
                         ("b", "sum", col("qty") > 100, lambda v: v["qty"] > 100)]),
        "boolean-sum-on-ns-key": (
            (col("lane"), lambda v: v["lane"]), None,
            [("n", "count", None, None),
             ("b", "sum", col("qty") > 100, lambda v: v["qty"] > 100)]),
    }[name]


SHAPES = ["scalar", "grouped", "derived-operand", "expression-key",
          "sorted-rle-key", "unsorted-ns-key", "delta-operand",
          "delta-operand-on-dict-key", "count-star-and-boolean-sum",
          "boolean-sum-on-ns-key"]


def _query(table, selection, shape, workers):
    predicate, __, summed = SELECTIONS[selection]
    key, with_column, aggregates = _shape(shape, summed)
    ds = dataset(table)
    if predicate is not None:
        ds = ds.filter(predicate)
    if workers > 1:
        ds = ds.with_backend("process", workers=workers)
    if with_column is not None:
        ds = ds.with_column(*with_column)
    if key is not None:
        ds = ds.group_by(key[0])
    return ds.agg(*((count() if operand is None else getattr(operand, op)())
                    .alias(output) for output, op, operand, __ in aggregates))


def _result_dtype(op, operand):
    """int64 counts, sums in int64 (uint64 for unsigned operands), min/max
    in the operand dtype."""
    if op == "count":
        return np.dtype(np.int64)
    if op == "sum":
        return np.dtype(np.uint64 if operand.dtype.kind == "u" else np.int64)
    return operand.dtype


def _reduce(op, operand, rows):
    """One aggregate over *rows* selected values, as NumPy computes it."""
    if op == "count":
        return rows
    if op == "sum":
        return operand.sum(dtype=_result_dtype(op, operand))
    return operand.min() if op == "min" else operand.max()


def _expected(shape, summed, values, mask):
    """Scalars (``{output: int}``) or grouped columns (``{name: array}``)."""
    key, __, aggregates = _shape(shape, summed)
    selected = {name: column[mask] for name, column in values.items()}
    operands = {output: (op, None if twin is None else twin(selected))
                for output, op, __, twin in aggregates}
    if key is None:
        return {output: int(_reduce(op, operand, int(mask.sum())))
                for output, (op, operand) in operands.items()}
    key_values = key[1](selected)
    keys = np.unique(key_values)
    expected = {key[0].output_name(): keys}
    for output, (op, operand) in operands.items():
        cells = [_reduce(op, None if operand is None else operand[key_values == k],
                         int((key_values == k).sum())) for k in keys]
        expected[output] = np.array(cells, dtype=_result_dtype(op, operand))
    return expected


@pytest.mark.parametrize("selection", list(SELECTIONS))
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("storage", ["memory", "packed"])
def test_compressed_aggregates_match_the_oracle(tables, storage, workers,
                                                shape, selection):
    table = tables[storage]
    values = _oracle_values(table)
    __, mask_of, summed = SELECTIONS[selection]
    mask = mask_of(values)
    expected = _expected(shape, summed, values, mask) if mask.any() or \
        _shape(shape, summed)[0] is not None else None

    query = _query(table, selection, shape, workers)
    plan = query.explain()
    assert "materialises" not in plan  # every shape folds per range
    if shape in ("scalar", "grouped"):  # ... and these never decompress
        assert "[decompress]" not in plan
    # "empty": the zone maps rule every range out, and a scalar aggregate of
    # stored integer columns over every row is answered from them: either
    # way there is nothing to fan out.
    answered = selection == "none" and shape in ("scalar", "delta-operand")
    assert ("backend=process[2]" in plan) == (
        storage == "packed" and workers == 2 and selection != "empty" and not answered)
    if expected is None:  # a scalar aggregate over the empty selection
        with pytest.raises(QueryError) as excinfo:
            query.collect()
        assert str(excinfo.value) == "aggregate 'sum' over zero rows"
        return
    result = query.collect()
    assert result.row_count == int(mask.sum())

    if _shape(shape, summed)[0] is None:
        assert result.scalars == expected
        assert all(type(value) is int for value in result.scalars.values())
        if selection == "uint64-wrap" and shape == "scalar":  # it really wrapped
            assert sum(int(v) for v in values[summed][mask]) >= 2**64
    else:
        assert list(result.columns) == list(expected)
        for name, want in expected.items():
            got = result.columns[name].values
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    # What the scan did does not depend on where its ranges ran.
    serial = _query(table, selection, shape, workers=1).collect()
    assert result.scan_stats.comparable() == serial.scan_stats.comparable()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("storage", ["memory", "packed"])
def test_float_sum_mean_and_two_keys_materialise_and_equal_numpy(tables, storage,
                                                                 workers):
    """A float sum depends on the order its addends meet, NumPy's ``mean``
    is not ``exact_sum / count`` bit for bit, and two keys have no single
    sorted key dictionary to merge by: the planner says so in ``explain()``,
    labels the operands ``[decompress]``, and the selection's values reduce
    in selection order — NumPy's own answer to the last bit, on both
    backends."""
    table = tables[storage]
    values = _oracle_values(table)
    mask = (values["qty"] >= 16) & (values["qty"] <= 400)
    base = dataset(table).filter(col("qty").between(16, 400))
    if workers > 1:
        base = base.with_backend("process", workers=workers)

    def materialising(query, reason):
        plan = query.explain()
        assert f"note: materialises its input ({reason})" in plan
        assert "[compressed]" not in plan.split("Scan(")[0]  # the agg labels
        return query.collect()

    result = materialising(base.agg(col("weight").sum().alias("w"),
                                    col("price").sum().alias("s")),
                           "a float sum depends on the order of its addends")
    assert result.scalars["w"] == float(np.sum(values["weight"][mask]))
    assert result.scalars["s"] == int(values["price"][mask].sum())

    result = materialising(
        base.group_by("cat").agg(col("weight").sum().alias("w")),
        "a float sum depends on the order of its addends")
    keys, codes = np.unique(values["cat"][mask], return_inverse=True)
    assert np.array_equal(result.columns["cat"].values, keys)
    assert np.array_equal(
        result.columns["w"].values,
        np.bincount(codes.reshape(-1), weights=values["weight"][mask],
                    minlength=keys.size))

    result = materialising(base.agg(col("price").mean().alias("m")),
                           "mean has no bit-identical mergeable state")
    assert result.scalars["m"] == float(np.mean(values["price"][mask]))

    result = materialising(
        base.group_by("cat", "lane").agg(col("price").sum().alias("s")),
        "more than one group key")
    cat, lane, price = (values[name][mask] for name in ("cat", "lane", "price"))
    pairs = sorted(set(zip(cat.tolist(), lane.tolist())))
    assert list(zip(result.columns["cat"].values.tolist(),
                    result.columns["lane"].values.tolist())) == pairs
    assert result.columns["s"].values.tolist() == [
        int(price[(cat == c) & (lane == l)].sum()) for c, l in pairs]

    # Float min/max are order-free: they fold, and off the stored form.
    plan = base.agg(col("weight").min()).explain()
    assert "materialises" not in plan and "[decompress]" not in plan


def test_the_other_frames_the_fold_planner_turns_away(tables):
    """Float group keys, a provably empty scan, and frames that are not
    scans (post-sort/limit) run on the materialising executor — which is
    all that still does."""
    from repro.api.lower import aggregate_fold_plan

    table = tables["memory"]
    values = _oracle_values(table)
    ds = dataset(table)

    def reason(query):
        return aggregate_fold_plan(query.optimized_plan())

    float_key = ds.group_by("weight").agg(count().alias("n"))
    assert reason(float_key) == \
        "float group keys: NaN grouping is decided table-wide"
    result = float_key.collect()
    assert np.array_equal(result.columns["weight"].values,
                          np.unique(values["weight"]))

    nothing = ds.filter((col("qty") >= 0) & lit(False)).group_by("cat").agg(
        col("price").sum().alias("s"))
    assert reason(nothing) == "the scan is provably empty"
    result = nothing.collect()
    assert result.row_count == 0
    assert {name: column.dtype for name, column in result.columns.items()} \
        == {"cat": np.int64, "s": np.int64}

    top = ds.sort("price", descending=True).limit(10).agg(
        col("qty").sum().alias("s"))
    assert reason(top) == "no aggregate reads the scan"
    order = np.argsort(-values["price"], kind="stable")[:10]
    assert top.collect().scalars == {"s": int(values["qty"][order].sum())}


def test_a_range_stays_compressed_or_reads_each_chunk_the_cheaper_way(tables):
    """Kernels serve every operand and the key: nothing decompresses, dense
    or not.  One DELTA operand and the range decompresses anyway — then a
    dense FOR chunk is read from its decompressed values and a sparsely hit
    one still gathers positionally (the scan's own ``sparse_hits`` rule)."""
    ds, chunks = dataset(tables["memory"]), NUM_ROWS // CHUNK_SIZE
    total = col("price").sum().alias("s")

    served = ds.group_by("cat").agg(total)
    assert "[decompress]" not in served.explain()
    assert served.collect().scan_stats.chunks_decompressed == 0

    mixed = ds.group_by("cat").agg(total, col("oid").max().alias("hi"))
    assert "[compressed]" not in mixed.explain()
    dense = mixed.collect().scan_stats
    assert dense.chunks_decompressed == 2 * chunks  # price and oid
    sparse = ds.filter(col("qty").between(100, 104)).group_by("cat").agg(
        total, col("oid").max().alias("hi")).collect().scan_stats
    assert sparse.chunks_decompressed == chunks  # oid only
    assert sparse.rows_computed_compressed > dense.rows_computed_compressed


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
    scan = scan_table(table, [col("qty").between(16, 400)], aggregates=plan,
                      context=ExecutionContext(workers=workers))
    assert scan.backend == ("serial" if workers == 1 else "process[2]")
    assert len(scan.selection) == 0
    assert scan.stats.rows_selected == int(mask.sum())
    assert scan.state["s"].finalize() == int(values["price"][mask].sum())
    assert scan.state["n"].finalize() == int(mask.sum())
    with pytest.raises(QueryError, match="unknown scan column 'nope'"):
        scan_table(table, [], aggregates={
            "key": None, "aggregates": [("s", "sum", "nope")]})


# --------------------------------------------------------------------------- #
# Dtype limits, and sorted ranges next to unsorted ones
# --------------------------------------------------------------------------- #

I64 = np.iinfo(np.int64)
U64_MAX = np.iinfo(np.uint64).max


@pytest.mark.parametrize("workers", [1, 2])
def test_groups_and_extrema_at_the_dtype_limits(tmp_path, workers):
    """int64 min/max at ±2**63, keys at the limits of int64 and uint64, and
    a chunk range whose keys arrive sorted (groups read off the runs) merged
    with one whose keys do not (``np.unique``): same groups, same values."""
    values = np.array([I64.min, -1, 0, I64.max, I64.max, 7, I64.min, 3],
                      dtype=np.int64)
    data = {
        "v": values,
        # Range 0 is non-decreasing, range 1 is not; both touch the limits.
        "k": np.array([I64.min, I64.min, 0, I64.max, I64.max, 0, I64.min, 0],
                      dtype=np.int64),
        "u": np.array([0, 0, 5, U64_MAX, U64_MAX, 5, 0, U64_MAX],
                      dtype=np.uint64),
    }
    table = Table.from_pydict(data, chunk_size=4)
    if workers > 1:
        path = tmp_path / "limits.rpk"
        write_packed_table(table, path)
        table = open_packed_table(path).table
    try:
        for key in ("k", "u"):
            query = dataset(table).group_by(key).agg(
                col("v").min().alias("lo"), col("v").max().alias("hi"),
                col("v").sum().alias("s"), count().alias("n"))
            if workers > 1:
                query = query.with_backend("process", workers=workers)
            assert "materialises" not in query.explain()
            result = query.collect()
            keys = np.unique(data[key])
            groups = [values[data[key] == k] for k in keys]
            expected = {
                key: keys,
                "lo": np.array([g.min() for g in groups], dtype=np.int64),
                "hi": np.array([g.max() for g in groups], dtype=np.int64),
                "s": np.array([g.sum(dtype=np.int64) for g in groups],
                              dtype=np.int64),
                "n": np.array([g.size for g in groups], dtype=np.int64),
            }
            for name, want in expected.items():
                got = result.columns[name].values
                assert got.dtype == want.dtype and np.array_equal(got, want), name
        extrema = dataset(table).agg(col("v").min().alias("lo"),
                                     col("v").max().alias("hi")).collect()
        assert extrema.scalars == {"lo": I64.min, "hi": I64.max}
    finally:
        parallel.shutdown_pools()


# --------------------------------------------------------------------------- #
# Whole chunks: extrema and sums off their zone maps
# --------------------------------------------------------------------------- #

#: name -> (chunk size, rows): 100-row chunks with a 1-row last one; 1-row chunks.
WHOLE_TABLES = {"hundreds": (100, 701), "single-rows": (1, 9)}

#: Aggregated column -> scheme.  ``ref`` has FOR references beyond 2**53 and
#: ``top`` is FOR over ``uint64`` near 2**64: both sums wrap mod 2**64;
#: ``edge`` and ``runs`` hold the int64 limits (as PFOR patches, as runs).
WHOLE_SCHEMES = {"ref": FrameOfReference(segment_length=16),
                 "edge": PatchedFrameOfReference(segment_length=16),
                 "top": FrameOfReference(segment_length=16), "runs": RunLengthEncoding(),
                 "qty": NullSuppression(), "oid": Delta()}


def _whole_chunk_table(chunk, rows):
    rng = np.random.default_rng(29)
    edge = rng.integers(-50, 50, rows)
    edge[::7], edge[3::7] = I64.min, I64.max
    return Table.from_pydict(
        {"key": np.arange(rows, dtype=np.int64) // max(chunk // 2, 1),  # sorted
         "ref": (np.cumsum(rng.integers(-3, 4, rows)) + 2**60).astype(np.int64),
         "edge": edge.astype(np.int64),
         "top": (U64_MAX - rng.integers(0, 1_000, rows).astype(np.uint64)),
         "runs": np.repeat([I64.max, 5, I64.min, -1], -(-rows // 4))[:rows].astype(np.int64),
         "qty": rng.integers(0, 1 << 9, rows).astype(np.int64),
         "oid": np.cumsum(rng.integers(1, 5, rows)).astype(np.int64)},
        schemes=WHOLE_SCHEMES, chunk_size=chunk)


@pytest.fixture(scope="module")
def whole_tables(tmp_path_factory):
    built = {}
    for name, (chunk, rows) in WHOLE_TABLES.items():
        memory = _whole_chunk_table(chunk, rows)
        path = tmp_path_factory.mktemp("whole") / f"{name}.rpk"
        write_packed_table(memory, path)
        built[name] = {"memory": memory, "packed": open_packed_table(path).table}
    yield built
    parallel.shutdown_pools()


#: name -> conjunction: every chunk whole; whole chunks the zone maps accept
#: between partial ones; and a second conjunct that leaves only 1-row chunks whole.
WHOLE_SELECTIONS = {"every-row": (), "zone-map-accepted": (col("key").between(1, 8),),
                    "whole-and-partial": (col("key").between(1, 8), col("qty").between(0, 400))}


@pytest.mark.parametrize("switches", [(True, True), (True, False), (False, True), (False, False)],
                         ids=["both", "zone-maps-only", "kernels-only", "neither"])
@pytest.mark.parametrize("selection", list(WHOLE_SELECTIONS))
@pytest.mark.parametrize("layout", list(WHOLE_TABLES))
def test_scalar_aggregates_over_whole_chunks_match_the_oracle(whole_tables, layout,
                                                               selection, switches):
    """count/sum/min/max of every column, each op over each column in turn,
    over selections covering chunks whole: {in-memory, packed} × workers
    {1, 2} give the oracle's values in the oracle's dtypes, with the same
    comparable counters, whether a whole chunk is answered by its zone map
    or gathered."""
    tables = whole_tables[layout]
    values = _oracle_values(tables["memory"])
    predicates = WHOLE_SELECTIONS[selection]
    mask = np.ones(values["key"].size, dtype=bool)
    for predicate in predicates:
        name, low, high, __, __ = predicate.column_range()
        mask &= (values[name] >= low) & (values[name] <= high)
    assert mask.any()
    use_zone_maps, use_compressed_exec = switches
    for turn in range(3):  # each column under each op once
        plan = {"key": None, "aggregates": [("n", "count", None)] + [
            (name, ("sum", "min", "max")[(index + turn) % 3], name)
            for index, name in enumerate(WHOLE_SCHEMES)]}
        stats = []
        for storage in ("memory", "packed"):
            for workers in (1, 2):
                scan = scan_table(tables[storage], predicates, aggregates=plan,
                                  context=ExecutionContext(
                                      workers=workers, use_zone_maps=use_zone_maps,
                                      use_compressed_exec=use_compressed_exec))
                assert scan.state["n"].finalize() == int(mask.sum())
                for output, op, name in plan["aggregates"][1:]:
                    want = _reduce(op, values[name][mask], None)
                    got = scan.state[output].partial
                    assert np.asarray(got).dtype == want.dtype, (output, op)
                    assert got == want, (output, op, storage, workers)
                stats.append(scan.stats.comparable())
        assert all(counters == stats[0] for counters in stats)
        if not predicates:  # then only a zone map computes compressed (oid has no gather)
            assert bool(stats[0]["rows_computed_compressed"]) == use_zone_maps


def test_a_chunk_saved_from_decompression_counts_once_per_range(tables):
    """A conjunct pushed down on ``price`` and a sum folded over it serve the
    same chunks: each counts once (sparse hits gathered, whole chunks summed
    in the segment domain), and nothing decompresses."""
    values = _oracle_values(tables["memory"])["price"]
    low, high = (int(bound) for bound in np.quantile(values, [0.45, 0.46]))
    for table in tables.values():
        result = dataset(table).filter(col("price").between(low, high)).agg(
            col("price").sum().alias("s")).collect()
        assert result.scalars == {"s": int(values[(values >= low) & (values <= high)].sum())}
        stats = result.scan_stats
        assert stats.chunks_decompressed == 0 and stats.chunks_pushed_down > 0
        served = stats.chunks_total - stats.chunks_skipped
        assert stats.bytes_decompressed_saved == served * CHUNK_SIZE * 8 <= values.nbytes


# --------------------------------------------------------------------------- #
# What a range hands back (and so what crosses the pipe)
# --------------------------------------------------------------------------- #

REVENUE = (col("price") + 3) * col("qty")


def _revenue_by_cat_spec(**context):
    """A derived-operand grouped aggregate, as :func:`scan_table` carries it."""
    return ScanSpec(
        conjuncts=(col("qty").between(16, 400),),
        derive=(("rev", REVENUE),),
        aggregates={"key": "cat", "aggregates": [
            ("s", "sum", col("rev")),
            ("hi", "max", col("rev")),
            ("n", "count", None)]},
        context=ExecutionContext(**context))


def _revenue_by_cat_oracle(values, rows):
    """The state's arrays over *rows* (a mask), from NumPy."""
    mask = rows & (values["qty"] >= 16) & (values["qty"] <= 400)
    cat, revenue = values["cat"][mask], ((values["price"] + 3) * values["qty"])[mask]
    keys = np.unique(cat)
    return keys, {
        "s": np.array([revenue[cat == k].sum() for k in keys], dtype=np.int64),
        "hi": np.array([revenue[cat == k].max() for k in keys], dtype=np.int64),
        "n": np.array([(cat == k).sum() for k in keys], dtype=np.int64)}


def _assert_state(state, keys, arrays):
    assert state.keys.dtype == keys.dtype and np.array_equal(state.keys, keys)
    assert list(state.aggregates) == list(arrays)
    for name, want in arrays.items():
        got = state.aggregates[name][1]
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_a_range_returns_its_state_and_nothing_else(tables):
    """No process needed to see what the pipe would carry: the outcome of
    one range under an expression aggregate is a state of a few groups — no
    positions, no pieces — and pickles to a few KB."""
    table = tables["packed"]
    values = _oracle_values(table)
    spec = _revenue_by_cat_spec()
    outcome = execute_range(table, spec,
                            CHUNK_SIZE, 2 * CHUNK_SIZE)
    assert outcome.positions.size == 0 and outcome.pieces == {}
    in_range = np.zeros(NUM_ROWS, dtype=bool)
    in_range[CHUNK_SIZE:2 * CHUNK_SIZE] = True
    keys, arrays = _revenue_by_cat_oracle(values, in_range)
    assert keys.size == 12
    _assert_state(outcome.state, keys, arrays)
    assert outcome.stats.rows_selected == outcome.state.rows == int(arrays["n"].sum())
    assert len(pickle.dumps(outcome)) <= 4_096


def test_a_quarantined_range_merges_like_any_other(tmp_path):
    """Seeded bit flips under ``on_corruption="quarantine"``: a quarantined
    range's state has the dtypes of every other range's — expression
    operands included — so the merge is the oracle over the ranges that
    survived, and every skipped range is counted."""
    table = _build_table()
    path = tmp_path / "fresh.rpk"  # read faults fire on first segment loads
    write_packed_table(table, path)
    values = _oracle_values(table)
    table = open_packed_table(path).table
    spec = _revenue_by_cat_spec(
        fault_plan=FaultPlan(seed=3, bitflip_p=0.2),
        fault_policy=FaultPolicy(on_corruption="quarantine"))
    outcomes = [execute_range(table, spec, lo, lo + CHUNK_SIZE)
                for lo in range(0, NUM_ROWS, CHUNK_SIZE)]
    lost = [bool(outcome.stats.chunks_quarantined) for outcome in outcomes]
    assert 0 < sum(lost) < len(outcomes)

    empty_keys, empty_arrays = _revenue_by_cat_oracle(
        values, np.zeros(NUM_ROWS, dtype=bool))
    for outcome in (o for o, gone in zip(outcomes, lost) if gone):
        _assert_state(outcome.state, empty_keys, empty_arrays)
        assert outcome.positions.size == 0 and outcome.pieces == {}

    survived = np.repeat(~np.array(lost), CHUNK_SIZE)
    scan = scan_table(table, spec.conjuncts, derive=spec.derive,
                      aggregates=spec.aggregates, context=spec.context)
    _assert_state(scan.state, *_revenue_by_cat_oracle(values, survived))
    assert scan.stats.chunks_quarantined == sum(lost)
    assert scan.stats.rows_selected == scan.state.rows


def _chunk_state(table, positions, agg_spec, **arguments):
    """:func:`aggregate_state` over the sorted global *positions*, all in one
    chunk range of *table* (none: no chunk is read), decompressing where no
    kernel serves without any cache — as the range executor builds it."""
    starts = table.grid[0]
    index = int(np.searchsorted(starts, positions[0], side="right")) - 1 if positions.size \
        else None
    local = positions - (starts[index] if positions.size else 0)
    arguments.setdefault("served", lambda name, rows: None)
    arguments.setdefault("chunk_values", lambda name: table.column(name).chunks[index]
                         .decompress().values)
    return aggregate_state(table, index, local, agg_spec, **arguments)


@given(data=st.data(),
       rows=st.integers(min_value=1, max_value=120),
       sorted_keys=st.booleans())
@settings(max_examples=60, deadline=None)
def test_merging_any_split_equals_the_state_of_the_whole(data, rows, sorted_keys):
    """However a selection is cut — at every chunk boundary and anywhere
    inside a chunk, into pieces some with sorted keys, some without, some
    empty — ``merge_states`` of the pieces' states is the state of the
    whole selection read as one chunk: scalar and grouped."""
    keys = data.draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows))
    operand = data.draw(st.lists(st.integers(I64.min, I64.max),
                                 min_size=rows, max_size=rows))
    columns = {"k": np.array(sorted(keys) if sorted_keys else keys, dtype=np.int64),
               "v": np.array(operand, dtype=np.int64)}
    table = Table.from_pydict(columns, chunk_size=16)
    one_chunk = Table.from_pydict(columns, chunk_size=rows)
    selected = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    positions = np.flatnonzero(selected).astype(np.int64)
    cuts = data.draw(st.lists(st.integers(0, positions.size), max_size=5))
    cuts += np.searchsorted(positions, table.grid[0]).tolist()
    pieces = np.split(positions, sorted(cuts))

    def state(of, key, table):
        return _chunk_state(table, of, {"key": key, "aggregates": [
            ("s", "sum", "v"), ("lo", "min", "v"),
            ("hi", "max", col("k") * 2), ("n", "count", None)]},
            outputs={"k": columns["k"][of]})

    whole = state(positions, "k", one_chunk)
    merged = merge_states([state(piece, "k", table) for piece in pieces])
    assert merged.rows == whole.rows == positions.size
    _assert_state(merged, whole.keys,
                  {name: array for name, (__, array) in whole.aggregates.items()})

    whole = state(positions, None, one_chunk)
    merged = merge_states([state(piece, None, table) for piece in pieces])
    for name in whole:
        if positions.size or whole[name].op == "count":
            assert merged[name].finalize() == whole[name].finalize()
        else:
            with pytest.raises(QueryError, match="over zero rows"):
                merged[name].finalize()


# --------------------------------------------------------------------------- #
# A range its zone maps rule out costs its counters only
# --------------------------------------------------------------------------- #

PRUNED_SHAPES = {
    "projection": dict(materialize=("price", "cat")),
    "derived": dict(materialize=("qty",), derive=(("rev", REVENUE),)),
    "scalar": dict(aggregates={"key": None, "aggregates": [
        ("s", "sum", "price"), ("hi", "max", "big"), ("n", "count", None)]}),
    "grouped": dict(derive=(("rev", REVENUE),),
                    aggregates={"key": "cat", "aggregates": [
                        ("s", "sum", col("rev")), ("lo", "min", "price"),
                        ("n", "count", None)]}),
}

#: ``day`` is sorted, so its zone maps rule most ranges out — through a
#: column predicate (the conjunct after it is then short-circuited) or
#: through a row filter (``lane`` is 0..8: no day below 27 can qualify).
PRUNING_CONJUNCTIONS = {
    "predicate": dict(conjuncts=(col("day").between(14, 22), col("qty").between(16, 400))),
    "row-filter": dict(conjuncts=(col("qty").between(16, 400), col("day") >= col("lane") + 27)),
}


def _pruning_mask(values, conjunction):
    mask = (values["qty"] >= 16) & (values["qty"] <= 400)
    if conjunction == "predicate":
        return mask & (values["day"] >= 14) & (values["day"] <= 22)
    return mask & (values["day"] >= values["lane"] + 27)


def _same_state(got, want):
    if want is None:
        assert got is None
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for name, state in want.items():
            assert (got[name].op, got[name].rows) == (state.op, state.rows)
            assert np.asarray(got[name].partial).dtype == np.asarray(state.partial).dtype
            assert got[name].partial == state.partial
    else:
        assert got.rows == want.rows
        _assert_state(got, want.keys, {n: array for n, (__, array) in want.aggregates.items()})


#: The counters a conjunct's evaluation moves and a zone-map verdict spares:
#: what tells a range ruled out by its zone maps from one evaluated to no row.
EVALUATION_COUNTERS = ("chunks_skipped", "chunks_fully_accepted", "chunks_pushed_down",
                       "chunks_decompressed", "rows_computed_compressed",
                       "bytes_decompressed_saved")


def _slot_counters(stats):
    """Every comparable counter but :data:`EVALUATION_COUNTERS`: a slot per
    conjunct, the rows each scanned and the rows selected."""
    return {name: value for name, value in stats.comparable().items()
            if name not in EVALUATION_COUNTERS and not name.startswith("pushdown.")}


def _same_outcome(got, want):
    assert got.positions.dtype == want.positions.dtype
    assert np.array_equal(got.positions, want.positions)
    assert list(got.pieces) == list(want.pieces)
    for name, piece in want.pieces.items():
        assert got.pieces[name].dtype == piece.dtype
        assert np.array_equal(got.pieces[name], piece)
    _same_state(got.state, want.state)
    assert _slot_counters(got.stats) == _slot_counters(want.stats)


@pytest.mark.parametrize("shape", list(PRUNED_SHAPES))
@pytest.mark.parametrize("conjunction", list(PRUNING_CONJUNCTIONS))
@pytest.mark.parametrize("storage", ["memory", "packed"])
def test_a_range_ruled_out_equals_the_general_path_over_no_rows(
        tables, storage, conjunction, shape):
    """Range by range: what a range its zone maps rule out returns —
    positions, piece names and dtypes, state, every slot counter — is what
    the same range returns with zone maps off, where its conjuncts are
    evaluated to no row; live ranges return the same either way.  Without
    zone maps nothing is ruled out."""
    table = tables[storage]
    query = dict(PRUNING_CONJUNCTIONS[conjunction], **PRUNED_SHAPES[shape])
    spec = ScanSpec(**query)
    grid = [(lo, lo + CHUNK_SIZE) for lo in range(0, NUM_ROWS, CHUNK_SIZE)]
    short = [execute_range(table, spec, lo, hi) for lo, hi in grid]
    ruled_out = [outcome.stats for outcome in short if outcome.stats.chunks_skipped]
    assert 0 < len(ruled_out) < len(grid)
    assert all(stats.chunks_skipped == 1 and not stats.rows_selected for stats in ruled_out)

    unpruned = ScanSpec(**query, context=ExecutionContext(use_zone_maps=False))
    for got, (lo, hi) in zip(short, grid):
        want = execute_range(table, unpruned, lo, hi)
        assert want.stats.chunks_skipped == 0
        _same_outcome(got, want)


@pytest.mark.parametrize("shape", list(PRUNED_SHAPES))
@pytest.mark.parametrize("conjunction", list(PRUNING_CONJUNCTIONS))
@pytest.mark.parametrize("workers", [1, 2])
def test_ruled_out_ranges_merge_to_the_oracle_next_to_live_ones(
        tables, workers, conjunction, shape, monkeypatch):
    """The whole scan, serial and on the pool: empty outcomes fold between
    live ones into the oracle's answer, with the counters of a serial scan
    whose executor rules every range out itself, and the answer and slot
    counters of one without zone maps."""
    table = tables["packed"]
    values = _oracle_values(table)
    rows = np.flatnonzero(_pruning_mask(values, conjunction))
    assert rows.size
    query = dict(PRUNING_CONJUNCTIONS[conjunction], **PRUNED_SHAPES[shape])
    predicates = query.pop("conjuncts")
    scan = scan_table(table, predicates, **query,
                      context=ExecutionContext(workers=workers))
    assert scan.backend == ("serial" if workers == 1 else "process[2]")
    assert scan.stats.chunks_skipped > 0 and scan.stats.rows_selected == rows.size

    revenue = (values["price"] + 3) * values["qty"]
    if shape in ("projection", "derived"):
        assert np.array_equal(scan.selection.positions, rows)
        outputs = dict(values, rev=revenue)
        assert list(scan.columns) == list(query.get("materialize", ())) + [
            name for name, __ in query.get("derive", ())]
        for name, column in scan.columns.items():
            assert column.values.dtype == outputs[name].dtype
            assert np.array_equal(column.values, outputs[name][rows])
    elif shape == "scalar":
        assert {name: state.finalize() for name, state in scan.state.items()} == {
            "s": int(values["price"][rows].sum()), "hi": int(values["big"][rows].max()),
            "n": rows.size}
    else:
        keys = np.unique(values["cat"][rows])
        groups = [rows[values["cat"][rows] == key] for key in keys]
        _assert_state(scan.state, keys, {
            "s": np.array([revenue[g].sum() for g in groups], dtype=np.int64),
            "lo": np.array([values["price"][g].min() for g in groups], dtype=np.int64),
            "n": np.array([g.size for g in groups], dtype=np.int64)})

    # The long way round: no range is ruled out ahead of the executor, which
    # rules them out one by one, counter for counter; and with zone maps off,
    # where every range is evaluated, the same answer and slot counters.
    unpruned = scan_table(table, predicates, **query,
                          context=ExecutionContext(use_zone_maps=False))
    assert unpruned.stats.chunks_skipped == 0
    assert _slot_counters(scan.stats) == _slot_counters(unpruned.stats)
    assert np.array_equal(scan.selection.positions, unpruned.selection.positions)
    assert list(scan.columns) == list(unpruned.columns)
    for name, column in scan.columns.items():
        assert column.values.dtype == unpruned.columns[name].values.dtype
        assert np.array_equal(column.values, unpruned.columns[name].values)
    _same_state(scan.state, unpruned.state)
    live_ranges = scan_module._live_ranges
    monkeypatch.setattr(scan_module, "_live_ranges", lambda table, spec: live_ranges(
        table, replace(spec, context=ExecutionContext(use_zone_maps=False))))
    long_way = scan_table(table, predicates, **query)
    assert scan.stats.comparable() == long_way.stats.comparable()
    _same_state(scan.state, long_way.state)


# --------------------------------------------------------------------------- #
# Zone-map verdicts for every range in one pass
# --------------------------------------------------------------------------- #


def _mask_of(conjuncts, values):
    mask = np.ones(NUM_ROWS, dtype=bool)
    for conjunct in conjuncts:
        name, low, high, __, exact = conjunct.column_range()
        column = values[name]
        if not exact:  # isin
            mask &= np.isin(column, conjunct.candidates)
        else:
            # Python ints: a bound outside the dtype must not be cast to it.
            mask &= np.array([low <= int(v) <= high for v in column]) \
                if abs(low) >= 2**63 or abs(high) >= 2**63 else (column >= low) & (column <= high)
    return mask


def _every_range_executed(table, predicates, row_filters, context, **outputs):
    """The scan as the range executor alone performs it: every range of the
    grid handed to :func:`execute_range`, outcomes folded in order."""
    spec = ScanSpec(conjuncts=tuple(predicates) + tuple(row_filters),
                    context=context, **outputs)
    grid, __ = scan_module._live_ranges(table, replace(spec, context=ExecutionContext(
        use_zone_maps=False)))
    outcomes = [execute_range(table, spec, lo, hi) for lo, hi in grid]
    stats = ScanStats(predicates_total=len(predicates) + len(row_filters))
    for outcome in outcomes:
        stats.merge(outcome.stats)
    return np.concatenate([outcome.positions for outcome in outcomes]), stats, len(grid)


LANE_FILTER = col("day") >= col("lane") + 10


def _ruled_out(values, conjuncts):
    """How many ranges the leading *conjuncts* rule out, from the oracle's
    values in Python integers: some conjunct holds for no value of the
    range."""
    count = 0
    for lo in range(0, NUM_ROWS, CHUNK_SIZE):
        for conjunct in conjuncts:
            name, low, high, __, __ = conjunct.column_range()
            chunk = values[name][lo:lo + CHUNK_SIZE]
            if high < int(chunk.min()) or low > int(chunk.max()):
                count += 1
                break
    return count


#: name -> (predicates, row filters, how many leading conjuncts the pass can
#: decide in bulk).  ``day`` and ``oid`` are sorted, ``qty`` is 0..511 in
#: every chunk, ``big`` is uint64 beyond 2**63.
PASS_CONJUNCTIONS = {
    "first-conjunct-rejects": ([col("day").between(14, 22), col("qty").between(16, 400)], (), 2),
    "cut-then-rejected": ([col("qty").between(16, 400), col("day").between(14, 22)], (), 2),
    "accepted-cut-then-rejected": ([col("big").between(0, 1 << 64), col("qty").between(16, 400),
                                    col("day").between(14, 22)], (), 3),
    "accepted-then-rejected": ([col("qty").between(0, 511), col("day").between(14, 22),
                                col("price").between(0, 1 << 40)], (), 3),
    "point": ([col("day") == 20], (), 1),
    "every-range-ruled-out": ([col("day").between(41, 50), col("qty").between(0, 9)],
                              (LANE_FILTER,), 2),
    "bounds-below-the-dtype": ([col("big").between(-(1 << 70), -1)], (), 1),
    "bounds-around-the-dtype": ([col("big").between(-5, 1 << 70), col("day").between(0, 9)],
                                (), 2),
    "bounds-past-int64": ([col("day").between(1 << 63, 1 << 70)], (), 1),
    "row-filter-behind": ([col("day").between(14, 22)], (LANE_FILTER,), 1),
    "nothing-to-rule-out": ([col("qty").between(100, 104)], (), 1),
    # The executor still prunes these chunk by chunk; the pass stops at the
    # first conjunct it cannot decide in bulk.
    "unpushable-first": ([col("day").isin([3, 4]), col("day").between(0, 10)], (), 0),
    "float-column-first": ([col("weight").between(0, 1), col("day").between(14, 22)], (), 0),
}
EXPECT_RULED_OUT = {"every-range-ruled-out": 12, "bounds-below-the-dtype": 12,
                    "bounds-past-int64": 12, "nothing-to-rule-out": 0}


@pytest.mark.parametrize("conjunction", list(PASS_CONJUNCTIONS))
@pytest.mark.parametrize("use_zone_maps", [True, False], ids=["zone-maps", "no-zone-maps"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("storage", ["memory", "packed"])
def test_the_pruning_pass_reports_what_the_range_executor_reports(
        tables, storage, workers, use_zone_maps, conjunction, monkeypatch):
    """Rows against the oracle; every comparable counter against the range
    executor handed every range; and the ranges ruled out are never executed
    — counted where ranges run in this process."""
    table = tables[storage]
    predicates, row_filters, bulk = PASS_CONJUNCTIONS[conjunction]
    context = ExecutionContext(workers=workers, use_zone_maps=use_zone_maps)
    positions, stats, ranges = _every_range_executed(
        table, predicates, row_filters, ExecutionContext(use_zone_maps=use_zone_maps),
        materialize=("price",))
    values = _oracle_values(table)
    mask = _mask_of(predicates, values)
    if row_filters:
        mask &= values["day"] >= values["lane"] + 10
    assert np.array_equal(positions, np.flatnonzero(mask))

    executed = []
    run = scan_module.execute_range
    monkeypatch.setattr(scan_module, "execute_range",
                        lambda *args, **kwargs: executed.append(args[2]) or run(*args, **kwargs))
    scan = scan_table(table, list(predicates) + list(row_filters),
                      materialize=("price",), context=context)
    assert np.array_equal(scan.selection.positions, positions)
    assert np.array_equal(scan.columns["price"].values, values["price"][positions])
    assert scan.stats.comparable() == stats.comparable()
    ruled_out = _ruled_out(values, predicates[:bulk]) if use_zone_maps else 0
    if use_zone_maps and bulk:
        assert ruled_out == EXPECT_RULED_OUT.get(conjunction, ruled_out) and \
            (0 < ruled_out < ranges or conjunction in EXPECT_RULED_OUT)
    live = ranges - ruled_out
    pooled = storage == "packed" and workers == 2 and live >= 2
    assert scan.backend.startswith("process[2]" if pooled else "serial")
    if not pooled:
        assert len(executed) == live


#: name -> a conjunct after ``qty``'s cut whose zone map rejects some
#: ranges, and which of them it rejects from a range's ``day``/``lane`` values.
LATER_REJECTIONS = {
    "range": (col("day").between(14, 22),
              lambda day, lane: day.max() < 14 or day.min() > 22),
    "points": (col("day").isin([14, 22]),  # its zone verdict reads the hull [14, 22]
               lambda day, lane: day.max() < 14 or day.min() > 22),
    "row-filter": (col("day") >= col("lane") + 27,
                   lambda day, lane: day.max() < lane.min() + 27),
}


@pytest.mark.parametrize("later", list(LATER_REJECTIONS))
@pytest.mark.parametrize("storage", ["memory", "packed"])
def test_no_kernel_runs_in_a_range_a_later_zone_map_rules_out(tables, storage, later,
                                                             monkeypatch):
    """``qty``'s range cuts every range, so its kernel runs in every range
    that is evaluated; a later conjunct whose zone map rejects a range —
    one the pruning pass decides in bulk, a point list and a row filter the
    range executor decides — rules that range out before ``qty``'s kernel
    runs there, and the rows are the oracle's either way."""
    from repro.engine import kernels

    table = tables[storage]
    values = _oracle_values(table)
    conjunct, rejects = LATER_REJECTIONS[later]
    starts = range(0, NUM_ROWS, CHUNK_SIZE)
    ruled_out = {lo for lo in starts if rejects(values["day"][lo:lo + CHUNK_SIZE],
                                                values["lane"][lo:lo + CHUNK_SIZE])}
    assert 0 < len(ruled_out) < len(starts)
    range_of = {id(chunk.form): lo for lo, chunk in zip(starts, table.column("qty").chunks)}
    filtered = []
    run = kernels.filter_range
    monkeypatch.setattr(kernels, "filter_range", lambda scheme, form, bounds: filtered.append(
        range_of.get(id(form))) or run(scheme, form, bounds))
    predicates = [col("qty").between(16, 400), conjunct]
    scan = scan_table(table, predicates, materialize=("price",))
    assert sorted(lo for lo in filtered if lo is not None) == sorted(set(starts) - ruled_out)
    assert scan.stats.chunks_skipped == len(ruled_out)
    assert np.array_equal(scan.selection.positions,
                          np.flatnonzero(_mask_of(predicates[:1], values)
                                         & np.asarray(conjunct.evaluate(values))))


#: name -> (predicates, scalar aggregates).  ``day`` is sorted over 0..39, so
#: its conjuncts accept some ranges whole, cut others and reject the rest;
#: ``qty`` is 0..511 in every range; ``big`` is uint64 beyond 2**63.
ANSWERED_QUERIES = {
    "predicate-free": ((), [("s", "sum", "price"), ("lo", "min", "price"),
                            ("hi", "max", "price"), ("n", "count", None)]),
    "accepted-between-cut": ((col("day").between(10, 30),), [
        ("s", "sum", "big"), ("hi", "max", "qty"), ("lo", "min", "oid"), ("n", "count", None)]),
    "two-conjuncts": ((col("qty").between(0, 511), col("day").between(5, 35)), [
        ("s", "sum", "price"), ("t", "sum", "uq"), ("n", "count", "qty")]),
    "several-over-one-column": ((col("day").between(0, 20),), [
        ("s", "sum", "oid"), ("lo", "min", "oid"), ("hi", "max", "oid")]),
}


def _accepted_whole(values, predicates):
    """How many ranges every conjunct accepts whole, from the oracle's values."""
    ranges = [predicate.column_range() for predicate in predicates]
    return sum(all(low <= values[name][lo:lo + CHUNK_SIZE].min()
                   and values[name][lo:lo + CHUNK_SIZE].max() <= high
                   for name, low, high, __, __ in ranges)
               for lo in range(0, NUM_ROWS, CHUNK_SIZE))


@pytest.mark.parametrize("query", list(ANSWERED_QUERIES))
@pytest.mark.parametrize("use_zone_maps", [True, False], ids=["zone-maps", "no-zone-maps"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("storage", ["memory", "packed"])
def test_the_answering_pass_reports_what_the_range_executor_reports(
        tables, storage, workers, use_zone_maps, query, monkeypatch):
    """A range every conjunct accepts whole, in a scalar count/sum/min/max
    scan of stored integer columns, is answered from its zone maps: the
    oracle's values in the oracle's dtypes, the state and every comparable
    counter of the range executor handed every range, and the range is never
    executed — a predicate-free scan maps no segment at all."""
    table = tables[storage]
    predicates, aggregates = ANSWERED_QUERIES[query]
    plan = {"key": None, "aggregates": aggregates}
    spec = ScanSpec(conjuncts=predicates, aggregates=plan,
                    context=ExecutionContext(use_zone_maps=use_zone_maps))
    grid, __ = scan_module._live_ranges(table, replace(spec, context=ExecutionContext(
        use_zone_maps=False)))
    outcomes = [execute_range(table, spec, lo, hi) for lo, hi in grid]
    stats = ScanStats(predicates_total=len(predicates))
    for outcome in outcomes:
        stats.merge(outcome.stats)

    executed = []
    run = scan_module.execute_range
    monkeypatch.setattr(scan_module, "execute_range",
                        lambda *args, **kwargs: executed.append(args[2]) or run(*args, **kwargs))
    scan = scan_table(table, predicates, aggregates=plan, context=ExecutionContext(
        workers=workers, use_zone_maps=use_zone_maps))
    assert scan.stats.comparable() == stats.comparable()
    _same_state(scan.state, merge_states([outcome.state for outcome in outcomes]))
    values = _oracle_values(table)
    mask = _mask_of(predicates, values)
    for output, op, name in aggregates:
        want = _reduce(op, None if name is None else values[name][mask], int(mask.sum()))
        assert scan.state[output].finalize() == int(want), output
        if op != "count":
            assert np.asarray(scan.state[output].partial).dtype == want.dtype, output

    answered = _accepted_whole(values, predicates) if use_zone_maps else 0
    if use_zone_maps:
        assert 0 < answered < len(grid) or query == "predicate-free"
    live = len(grid) - answered - (_ruled_out(values, predicates) if use_zone_maps else 0)
    pooled = storage == "packed" and workers == 2 and live >= 2
    assert scan.backend.startswith("process[2]" if pooled else "serial")
    if not pooled:
        assert len(executed) == live

    if storage == "packed" and query == "predicate-free":  # a cold file, read or not
        fresh = open_packed_table(parallel.packed_source_path(table))
        scan = scan_table(fresh.table, predicates, aggregates=plan,
                          context=ExecutionContext(use_zone_maps=use_zone_maps))
        assert (fresh.segments_mapped == 0) == use_zone_maps
        assert (fresh.bytes_mapped == 0) == use_zone_maps
        fresh.close()


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_drawn_conjunctions_prune_like_the_range_executor(tables, data):
    """Bounds drawn inside, across and outside every column's domain, one to
    three conjuncts deep, in memory and packed, zone maps on and off."""
    table = tables[data.draw(st.sampled_from(["memory", "packed"]))]
    domains = {"day": (-2, 42), "qty": (-10, 520), "oid": (-5, 16_000), "cat": (-1, 12),
               "uq": (-3, 515), "big": (2**63 - 2, 2**64 + 2)}
    predicates = []
    for name in data.draw(st.lists(st.sampled_from(sorted(domains)), min_size=1, max_size=3)):
        low, high = sorted(data.draw(st.tuples(*[st.integers(*domains[name])] * 2)))
        predicates.append((col(name) == low) if data.draw(st.booleans())
                          else col(name).between(low, high))
    context = ExecutionContext(use_zone_maps=data.draw(st.booleans()))
    positions, stats, __ = _every_range_executed(table, predicates, (), context)
    assert np.array_equal(positions, np.flatnonzero(_mask_of(predicates, _oracle_values(table))))
    scan = scan_table(table, predicates, context=context)
    assert np.array_equal(scan.selection.positions, positions)
    assert scan.stats.comparable() == stats.comparable()


@given(data=st.data(), dtype=st.sampled_from([np.int64, np.uint64, np.int8]),
       chunk=st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_the_vector_verdict_is_the_scalar_verdict(data, dtype, chunk):
    """One definition: for every chunk, what ``_zone_verdicts`` says of it in
    bulk is what ``decide`` says of its zone map as the range executor reads
    it — values at the dtype's limits, ``uint64`` near 2**64, bounds outside
    the dtype, single-value chunks."""
    info = np.iinfo(dtype)
    near = st.one_of(st.integers(info.min, info.min + 3), st.integers(info.max - 3, info.max),
                     st.integers(max(info.min, -3), 3))
    values = data.draw(st.lists(near, min_size=1, max_size=12))
    table = Table.from_pydict({"v": np.array(values, dtype=dtype)}, chunk_size=chunk)
    stored = table.column("v")
    __, __, minima, maxima, __ = stored.zone_maps()
    assert minima.dtype == maxima.dtype == dtype
    beyond = st.one_of(near, st.integers(info.min - 3, info.min), st.integers(info.max, info.max + 3),
                       st.sampled_from([-2**70, 2**70]))
    low, high = sorted(data.draw(st.tuples(beyond, beyond)))
    for predicate in (col("v").between(low, high), col("v") == low):
        rejected, accepted = scan_module._zone_verdicts(
            scan_module.kernel_bounds(predicate, table), minima, maxima)
        decisions = [predicate.decide({"v": scan_module._zone_bounds(table, "v", c)})
                     for c in stored.chunks]
        assert rejected.tolist() == [decision is False for decision in decisions]
        assert accepted.tolist() == [decision is True for decision in decisions]


@pytest.mark.parametrize("storage", ["memory", "packed"])
def test_a_span_that_is_not_a_chunk_range_is_refused(tables, storage):
    """A range is one chunk of every column: half a chunk, a span across a
    chunk boundary, two chunks or rows past the table are refused, on the
    projection and the aggregate path alike."""
    table = tables[storage]
    for outputs in (dict(materialize=("price",)), PRUNED_SHAPES["scalar"]):
        spec = ScanSpec(conjuncts=(col("qty").between(16, 400),), **outputs)
        assert execute_range(table, spec, CHUNK_SIZE, 2 * CHUNK_SIZE).stats.chunks_total == 1
        for lo, hi in [(0, CHUNK_SIZE // 2), (CHUNK_SIZE // 2, CHUNK_SIZE),
                       (CHUNK_SIZE // 2, 3 * CHUNK_SIZE // 2), (0, 2 * CHUNK_SIZE),
                       (NUM_ROWS, NUM_ROWS + CHUNK_SIZE)]:
            with pytest.raises(QueryError, match=rf"rows \[{lo}, {hi}\) are not a chunk "
                                                 "range of the table"):
                execute_range(table, spec, lo, hi)


def test_a_query_whose_every_range_is_ruled_out_stays_off_the_pool(tables):
    """Nothing survives the zone maps, so there is nothing to fan out: the
    scan is serial and says so, ``explain()`` prints the same label, and no
    pool is started for it."""
    parallel.shutdown_pools()
    table = tables["packed"]
    query = dataset(table).filter(col("day").between(41, 50)).select("price") \
        .with_backend("process", workers=2)
    label = "serial (process[2] resolved to 1 worker)"
    assert f"backend={label}," in query.explain()
    scan = scan_table(table, [col("day").between(41, 50)], materialize=("price",),
                      context=ExecutionContext(workers=2))
    assert scan.backend == label and len(scan.selection) == 0
    assert scan.columns["price"].values.dtype == np.int64
    assert scan.stats.chunks_skipped == scan.stats.chunks_total == NUM_ROWS // CHUNK_SIZE
    assert query.collect().row_count == 0
    assert parallel._POOLS == {}
    # One range survives: still nothing to fan out.  Two: the pool.
    needle = col("oid") == int(_oracle_values(table)["oid"][700])  # strictly increasing
    assert scan_table(table, [needle], context=ExecutionContext(workers=2)).backend == label
    assert "backend=process[2]," in dataset(table).filter(col("day").between(14, 22)) \
        .with_backend("process", workers=2).explain()


# --------------------------------------------------------------------------- #
# What the pool sends back: in band, or through the spool
# --------------------------------------------------------------------------- #

#: rows, chunk: the largest outcome of the first is 500 rows x 5 arrays x 8 B
#: (in band), a full range of the second 16 384 x 5 x 8 B = 640 KiB (spooled).
TRANSPORT_TABLES = {"in-band": (6_000, 500), "spooled": (65_536, 16_384)}

PROJECTION = dict(
    materialize=("price", "weight"),
    derive=(("ratio", col("price") / (col("qty") + 1)),  # float64
            ("cheap", col("price") < 5_000)))            # bool

#: name -> (predicates, NumPy mask).  ``day`` is sorted, so its zone maps rule
#: whole ranges out; ``qty`` is even everywhere, so no zone map can tell that
#: 101 selects nothing.
TRANSPORT_SELECTIONS = {
    "every-row-alive": ((), lambda v: np.ones(v["qty"].size, dtype=bool)),
    "zone-map-pruned": ((col("day").between(12, 22), col("qty").between(16, 400)),
                        lambda v: (v["day"] >= 12) & (v["day"] <= 22)
                        & (v["qty"] >= 16) & (v["qty"] <= 400)),
    "zero-rows": ((col("qty").between(101, 101),),
                  lambda v: np.zeros(v["qty"].size, dtype=bool)),
}


@pytest.fixture(scope="module")
def transport_tables(tmp_path_factory):
    built = {}
    for name, (rows, chunk) in TRANSPORT_TABLES.items():
        rng = np.random.default_rng(24)
        table = Table.from_pydict(
            {"price": (np.cumsum(rng.integers(-3, 4, rows)) + 5_000).astype(np.int64),
             "qty": rng.integers(0, 256, rows).astype(np.int64) * 2,
             "weight": rng.random(rows),
             "day": np.sort(rng.integers(0, 40, rows)).astype(np.int64)},
            schemes={"price": FrameOfReference(segment_length=128),
                     "qty": NullSuppression(), "day": RunLengthEncoding()},
            chunk_size=chunk)
        path = tmp_path_factory.mktemp("transport") / f"{name}.rpk"
        write_packed_table(table, path)
        built[name] = open_packed_table(path).table
    yield built
    parallel.shutdown_pools()


@pytest.mark.parametrize("selection", list(TRANSPORT_SELECTIONS))
@pytest.mark.parametrize("transport", list(TRANSPORT_TABLES))
def test_projections_match_the_oracle_in_band_and_spooled(transport_tables,
                                                          transport, selection):
    """process ≡ serial ≡ NumPy — values, dtypes, order, comparable stats —
    whichever way each range's arrays came back; and the ranges of each
    table do take the way its name says."""
    table = transport_tables[transport]
    values = _oracle_values(table)
    predicates, mask_of = TRANSPORT_SELECTIONS[selection]
    rows = np.flatnonzero(mask_of(values))
    want = {"price": values["price"][rows], "weight": values["weight"][rows],
            "ratio": (values["price"] / (values["qty"] + 1))[rows],
            "cheap": (values["price"] < 5_000)[rows]}
    assert want["ratio"].dtype == np.float64 and want["cheap"].dtype == bool

    scans = {workers: scan_table(table, predicates, **PROJECTION,
                                 context=ExecutionContext(workers=workers))
             for workers in (1, 2)}
    assert [scan.backend for scan in scans.values()] == ["serial", "process[2]"]
    for scan in scans.values():
        assert scan.selection.positions.values.dtype == np.int64
        assert np.array_equal(scan.selection.positions.values, rows)
        assert list(scan.columns) == list(want)
        for name, column in scan.columns.items():
            assert column.values.dtype == want[name].dtype, name
            assert np.array_equal(column.values, want[name]), name
    assert scans[1].stats.comparable() == scans[2].stats.comparable()
    if selection == "zone-map-pruned":
        assert 0 < scans[2].stats.chunks_skipped < scans[2].stats.chunks_total

    # Which way each range went is a function of its outcome alone.
    spec = ScanSpec(conjuncts=tuple(predicates), **PROJECTION)
    chunk = TRANSPORT_TABLES[transport][1]
    spools = []
    for lo in range(0, table.row_count, chunk):
        outcome = execute_range(table, spec, lo, lo + chunk)
        spools.append(sum(array.nbytes for array in (
            outcome.positions, *outcome.pieces.values())) > parallel.SPOOL_THRESHOLD)
    live = [bool(np.any((rows >= lo) & (rows < lo + chunk)))
            for lo in range(0, table.row_count, chunk)]
    assert spools == [transport == "spooled" and alive for alive in live]
    if transport == "spooled" and selection != "zero-rows":
        assert any(spools)
    if selection == "zone-map-pruned":
        assert not all(live)


# --------------------------------------------------------------------------- #
# Dictionary codes as group codes, per chunk range, merged across ranges
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("positions", [
    np.arange(0, 100), np.arange(10, 60), np.arange(0, 300), np.arange(150, 250),
    np.arange(3, 300, 7), np.array([5, 120, 299])],
    ids=["one-whole-chunk", "one-chunk", "all-chunks", "two-chunks", "strided", "sparse"])
def test_dictionary_codes_group_like_numpy_unique(positions):
    """The three chunks' dictionaries differ ({1, 5, 9}, {5, 7}, {2, 5, 9,
    11}): each chunk range groups by its own dictionary's codes, and the
    chunks' states merged give the state ``np.unique`` gives over the whole
    selection — and no chunk is decompressed for it."""
    rng = np.random.default_rng(40)
    key = np.concatenate([rng.choice([1, 5, 9], 100), rng.choice([5, 7], 100),
                          rng.choice([2, 5, 9, 11], 100)]).astype(np.int64)
    value = rng.integers(-1_000, 1_000, 300).astype(np.int64)
    table = Table.from_pydict({"k": key, "v": value}, schemes={"k": DictionaryEncoding()},
                              chunk_size=100)
    served = []
    state = merge_states([_chunk_state(
        table, positions[(positions >= lo) & (positions < lo + 100)],
        {"key": "k", "aggregates": [("n", "count", None), ("s", "sum", "v")]},
        served=lambda name, rows: served.append(name),
        chunk_values=lambda name: pytest.fail("decompressed a chunk")) for lo in (0, 100, 200)])
    keys, codes = np.unique(key[positions], return_inverse=True)
    sums = np.zeros(keys.size, dtype=np.int64)
    np.add.at(sums, codes, value[positions])
    _assert_state(state, keys, {"n": np.bincount(codes, minlength=keys.size), "s": sums})
    assert "k" in served


# --------------------------------------------------------------------------- #
# Packed streams at the widths the comparison used to split on
# --------------------------------------------------------------------------- #

#: Code/value widths on both sides of the removed word-parallel split (it
#: served 1, 2, 4, 8 and 16; 10 always unpacked), and per DICT width a
#: dictionary size that needs it.
STREAM_WIDTHS = {1: 2, 2: 3, 4: 12, 8: 200, 10: 1_000, 16: 33_000}
STREAM_CHUNK = 34_000  # holds a 33 000-entry dictionary
STREAM_ROWS = 2 * STREAM_CHUNK


def _stream_data():
    rng = np.random.default_rng(30)
    data = {"pick": rng.integers(0, 1_000, STREAM_ROWS).astype(np.int64)}
    for width, size in STREAM_WIDTHS.items():
        data[f"ns{width}"] = rng.integers(0, 1 << width, STREAM_ROWS).astype(np.int64)
        data[f"ns{width}"][::STREAM_CHUNK] = (1 << width) - 1  # every chunk needs the width
        # Every entry in every chunk, so each chunk's codes need the width.
        data[f"dict{width}"] = np.concatenate([
            rng.permutation(STREAM_CHUNK) % size for __ in range(2)]).astype(np.int64) * 3 - 7
    return data


@pytest.fixture(scope="module")
def stream_tables(tmp_path_factory):
    data = _stream_data()
    schemes = {name: NullSuppression() if name.startswith("ns") else DictionaryEncoding()
               for name in data if name != "pick"}
    memory = Table.from_pydict(data, schemes=schemes, chunk_size=STREAM_CHUNK)
    for width in STREAM_WIDTHS:
        for chunk in memory.column(f"ns{width}").chunks:
            assert chunk.form.parameters["width"] == width
        for chunk in memory.column(f"dict{width}").chunks:
            assert chunk.form.parameters["code_width"] == width
    path = tmp_path_factory.mktemp("streams") / "streams.rpk"
    write_packed_table(memory, path)
    yield data, {"memory": memory, "packed": open_packed_table(path).table}
    parallel.shutdown_pools()


def _stream_queries(name, values, data):
    """``{op: (query builder, oracle)}`` over the stream column *name*: a
    filter on it (the packed comparison), gathers of it at dense and sparse
    positions, and a group-by on it (DICT: by its codes)."""
    distinct = np.unique(values).tolist()  # bounds inside every chunk's zone map
    third = len(distinct) // 3
    low, high = distinct[third], distinct[max(third, 2 * third - 1)]
    inside = (values >= low) & (values <= high)
    dense, sparse = data["pick"] < 400, data["pick"] < 15
    keys, counts = np.unique(values[dense], return_counts=True)
    return {
        "filter": (lambda ds: ds.filter(col(name).between(low, high)).agg(count().alias("n")),
                   lambda result: result.scalars == {"n": int(inside.sum())}),
        "gather-dense": (lambda ds: ds.filter(col("pick") < 400).select(name),
                         lambda result: np.array_equal(result.columns[name].values,
                                                       values[dense])),
        "gather-sparse": (lambda ds: ds.filter(col("pick") < 15).select(name),
                          lambda result: np.array_equal(result.columns[name].values,
                                                        values[sparse])),
        "group-by": (lambda ds: ds.filter(col("pick") < 400).group_by(name).agg(
                         count().alias("n")),
                     lambda result: np.array_equal(result.columns[name].values, keys)
                     and np.array_equal(result.columns["n"].values, counts)),
    }


@pytest.mark.parametrize("name", [f"{kind}{width}" for kind in ("ns", "dict")
                                  for width in STREAM_WIDTHS])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("storage", ["memory", "packed"])
def test_packed_streams_match_the_oracle_at_every_width(stream_tables, storage, workers,
                                                        name):
    """Filter, gather and group-by over NS and DICT streams at widths 1, 2,
    4, 8, 10 and 16, with pushdown on and off: one oracle, and the same
    comparable counters on both backends."""
    data, tables = stream_tables
    for op, (build, correct) in _stream_queries(name, data[name], data).items():
        for pushdown in (True, False):
            ds = dataset(tables[storage])
            ds = ds if pushdown else ds.without_pushdown()
            query = build(ds if workers == 1 else ds.with_backend("process", workers=workers))
            assert ("backend=process[2]" in query.explain()) == (
                storage == "packed" and workers == 2)
            result = query.collect()
            assert correct(result), (op, pushdown)
            assert result.scan_stats.comparable() == build(ds).collect().scan_stats.comparable()
            if op == "filter" and pushdown:
                assert result.scan_stats.chunks_pushed_down == STREAM_ROWS // STREAM_CHUNK
