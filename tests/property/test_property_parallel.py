"""Property tests (hypothesis): process-backend scans ≡ serial, bit for bit.

For every registered lossless scheme and the standard cascades, over packed
tables with odd chunk sizes: the multiprocess backend must select the same
positions, materialise the same bytes, produce the same merged
``ScanStats.comparable()``, and finalise the same scalar and grouped
aggregates as the serial path — including empty selections.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import col, dataset
from repro.columnar import Column
from repro.engine import ExecutionContext, parallel
from repro.engine.scan import scan_table
from repro.errors import QueryError
from repro.io.reader import open_packed_table
from repro.io.writer import write_packed_table
from repro.schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    NullSuppression,
    RunLengthEncoding,
    RunPositionEncoding,
)
from repro.schemes.registry import SCHEME_FACTORIES, make_scheme
from repro.storage import Table

# Values bounded so signed arithmetic cannot overflow anywhere in a cascade.
VALUE = st.integers(min_value=-(2**40), max_value=2**40)


def columns(min_size=1, max_size=230):
    return st.lists(VALUE, min_size=min_size, max_size=max_size).map(
        lambda xs: Column(np.array(xs, dtype=np.int64)))


LOSSLESS_STANDALONE = [
    make_scheme(name) for name in sorted(SCHEME_FACTORIES)
    if make_scheme(name).is_lossless
]

CASCADES = [
    Cascade(RunLengthEncoding(), {"values": Delta(),
                                  "lengths": NullSuppression()}),
    Cascade(RunPositionEncoding(), {"values": Delta(),
                                    "run_positions": Delta()}),
    Cascade(RunLengthEncoding(),
            {"values": Cascade(Delta(narrow=False),
                               {"deltas": NullSuppression()})}),
]

ALL_SCHEMES = LOSSLESS_STANDALONE + CASCADES
ALL_IDS = [s.describe() for s in ALL_SCHEMES]


def _pack(tmp_path, name, column, scheme, chunk_size):
    table = Table.from_pydict({"v": column.values},
                              schemes={"v": scheme}, chunk_size=chunk_size)
    path = tmp_path / f"{name}.rpk"
    write_packed_table(table, path)
    return open_packed_table(path).table


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    parallel.shutdown_pools()


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=ALL_IDS)
@given(column=columns(min_size=1, max_size=230),
       chunk_size=st.integers(min_value=1, max_value=61),
       lo=VALUE, span=st.integers(min_value=0, max_value=2**41),
       workers=st.integers(min_value=2, max_value=4))
@settings(max_examples=10, deadline=None)
def test_process_scan_bit_identical_to_serial(tmp_path_factory, scheme,
                                              column, chunk_size, lo, span,
                                              workers):
    tmp = tmp_path_factory.mktemp("prop")
    table = _pack(tmp, "scan", column, scheme, chunk_size)
    predicates = [col("v").between(lo, lo + span)]
    serial = scan_table(table, predicates, materialize=["v"])
    proc = scan_table(table, predicates, materialize=["v"],
                      context=ExecutionContext(workers=workers))
    assert np.array_equal(serial.selection.positions.values,
                          proc.selection.positions.values)
    assert np.array_equal(serial.columns["v"].values,
                          proc.columns["v"].values)
    assert serial.columns["v"].dtype == proc.columns["v"].dtype
    assert serial.stats.comparable() == proc.stats.comparable()


@given(column=columns(min_size=1, max_size=300),
       chunk_size=st.integers(min_value=1, max_value=47),
       lo=VALUE, span=st.integers(min_value=0, max_value=2**41),
       workers=st.integers(min_value=2, max_value=4))
@settings(max_examples=15, deadline=None)
def test_process_scalar_aggregates_match_serial(tmp_path_factory, column,
                                                chunk_size, lo, span, workers):
    tmp = tmp_path_factory.mktemp("prop")
    table = _pack(tmp, "agg", column, NullSuppression(), chunk_size)
    base = dataset(table).filter(col("v").between(lo, lo + span))
    aggs = (col("v").sum().alias("s"), col("v").min().alias("lo"),
            col("v").max().alias("hi"), col("v").count().alias("n"))
    proc_ds = base.with_backend("process", workers=workers).agg(*aggs)
    try:
        serial = base.agg(*aggs).collect()
    except QueryError:
        # empty selection: sum/min/max over zero rows raise on the serial
        # path — the process backend must raise the same way, not hang or
        # return a partial answer
        with pytest.raises(QueryError):
            proc_ds.collect()
        return
    proc = proc_ds.collect()
    assert serial.scalars == proc.scalars


@given(keys=st.lists(st.integers(min_value=0, max_value=9),
                     min_size=1, max_size=300),
       chunk_size=st.integers(min_value=1, max_value=47),
       lo=st.integers(min_value=-(2**40), max_value=2**40),
       span=st.integers(min_value=0, max_value=2**41),
       seed=st.integers(min_value=0, max_value=2**31),
       workers=st.integers(min_value=2, max_value=4))
@settings(max_examples=15, deadline=None)
def test_process_grouped_aggregates_match_serial(tmp_path_factory, keys,
                                                 chunk_size, lo, span, seed,
                                                 workers):
    rng = np.random.default_rng(seed)
    values = rng.integers(-(2**40), 2**40, len(keys)).astype(np.int64)
    table = Table.from_pydict(
        {"k": np.array(keys, dtype=np.int64), "v": values},
        schemes={"k": DictionaryEncoding(), "v": NullSuppression()},
        chunk_size=chunk_size)
    tmp = tmp_path_factory.mktemp("prop")
    path = tmp / "grouped.rpk"
    write_packed_table(table, path)
    table = open_packed_table(path).table

    base = (dataset(table).filter(col("v").between(lo, lo + span))
            .group_by("k")
            .agg(col("v").sum().alias("s"), col("v").min().alias("lo"),
                 col("v").max().alias("hi"), col("v").count().alias("n")))
    serial = base.collect()
    proc = base.with_backend("process", workers=workers).collect()
    assert list(serial.columns) == list(proc.columns)
    for name in serial.columns:
        assert np.array_equal(serial.columns[name].values,
                              proc.columns[name].values), name
        assert serial.columns[name].dtype == proc.columns[name].dtype
