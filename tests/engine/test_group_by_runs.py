"""A run-encoded group key groups by its runs.

A key stored as RLE or RPE — bare, or as a cascade's outer scheme — takes
its groups from the form's run values and run ends: the run starts are
located among a range's selected rows, and every operand reduces per run.
The key is never decoded.  Each case is checked against NumPy over the
key's ``decompress_interpreted`` values: in memory and packed, serial and
on a process pool.
"""

import numpy as np
import pytest

from repro.api import col, count, dataset
from repro.engine import parallel
from repro.io.reader import open_packed_table
from repro.io.writer import write_packed_table
from repro.schemes import Cascade, Delta, NullSuppression, RunLengthEncoding, RunPositionEncoding
from repro.storage import Table

CHUNK = 256

KEY_SCHEMES = {
    "RLE": RunLengthEncoding,
    "RPE": RunPositionEncoding,
    "RLE-cascade": lambda: Cascade(RunLengthEncoding(),
                                   {"values": Delta(), "lengths": NullSuppression()}),
    "RPE-cascade": lambda: Cascade(RunPositionEncoding(), {"run_positions": Delta()}),
}


def _keys(case: str) -> np.ndarray:
    """The key column of *case*: runs of 1-11 rows with three long ones
    (so runs cross the chunk boundaries every 256 rows)."""
    rng = np.random.default_rng(7)
    if case == "int32-limits":
        info = np.iinfo(np.int32)
        values = np.array([info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max],
                          dtype=np.int32)
    elif case == "uint64-limits":
        values = np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
    else:
        values = np.arange(120, dtype=np.int64) * 3 - 100
        if case == "unsorted":
            values = rng.permutation(values)
    lengths = rng.integers(1, 12, values.size)
    lengths[[0, values.size // 2, -1]] = [300, 600, 290]
    return np.repeat(values, lengths)


#: selection -> the filter (``None``: every row).  ``r % 7 == 9`` holds for no
#: row, and the zone maps cannot tell, so every range runs with none selected.
SELECTIONS = {
    "every-row": None,
    "no-row": lambda: (col("r") % 7) == 9,
    "one-row": lambda: col("r") == 700,
    "empties-runs": lambda: (col("r") % 5) == 0,
}

ROW_MASKS = {
    "every-row": lambda r: np.ones(r.size, dtype=bool),
    "no-row": lambda r: r % 7 == 9,
    "one-row": lambda r: r == 700,
    "empties-runs": lambda r: r % 5 == 0,
}


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """(scheme, case) -> {"memory", "packed"} tables of key ``k``, row
    number ``r`` and int64 operand ``v`` near 2**62, so sums wrap."""
    built = {}
    for scheme_name, scheme in KEY_SCHEMES.items():
        for case in ("sorted", "unsorted", "int32-limits", "uint64-limits"):
            keys = _keys(case)
            rows = np.arange(keys.size, dtype=np.int64)
            operand = np.random.default_rng(3).integers(2**62, 2**63 - 1, keys.size)
            memory = Table.from_pydict({"k": keys, "r": rows, "v": operand},
                                       schemes={"k": scheme()}, chunk_size=CHUNK)
            path = tmp_path_factory.mktemp("runs") / f"{scheme_name}-{case}.rpk"
            built[scheme_name, case] = {
                "memory": memory,
                "packed": open_packed_table(write_packed_table(memory, path)).table}
    yield built
    parallel.shutdown_pools()


def _expected(table, mask: np.ndarray):
    """NumPy's grouped count/sum/min/max over the key as
    ``decompress_interpreted`` decodes it, and the operand."""
    keys = np.concatenate([chunk.scheme.decompress_interpreted(chunk.form).values
                           for chunk in table.column("k").chunks])
    operand = np.concatenate([chunk.decompress().values for chunk in table.column("v").chunks])
    unique, codes = np.unique(keys[mask], return_inverse=True)
    selected = operand[mask]
    sums = np.zeros(unique.size, dtype=np.int64)
    np.add.at(sums, codes, selected)
    minima = np.full(unique.size, np.iinfo(np.int64).max)
    np.minimum.at(minima, codes, selected)
    maxima = np.full(unique.size, np.iinfo(np.int64).min)
    np.maximum.at(maxima, codes, selected)
    return {"k": unique, "n": np.bincount(codes, minlength=unique.size), "s": sums,
            "lo": minima, "hi": maxima}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("storage", ["memory", "packed"])
@pytest.mark.parametrize("case", ["sorted", "unsorted", "int32-limits", "uint64-limits"])
@pytest.mark.parametrize("scheme", list(KEY_SCHEMES))
def test_a_run_key_groups_as_numpy_over_the_decoded_key(tables, scheme, case, storage, workers):
    """count/sum/min/max per key under every selection, bit for bit and
    dtype for dtype; unsorted run values take the fallback."""
    table = tables[scheme, case][storage]
    ds = dataset(table).with_backend("process" if workers > 1 else "serial", workers=workers)
    rows = np.arange(table.row_count)
    for selection, make in SELECTIONS.items():
        query = ds if make is None else ds.filter(make())
        result = query.group_by("k").agg(
            count().alias("n"), col("v").sum().alias("s"),
            col("v").min().alias("lo"), col("v").max().alias("hi")).collect()
        for name, want in _expected(tables[scheme, case]["memory"],
                                    ROW_MASKS[selection](rows)).items():
            got = result.columns[name].values
            assert got.dtype == want.dtype, (selection, name)
            assert np.array_equal(got, want), (selection, name)


@pytest.mark.parametrize("scheme", list(KEY_SCHEMES))
def test_the_key_chunks_are_not_decompressed(tables, scheme):
    """Grouping a sorted run key decodes none of its chunks; the oracle
    configuration decodes every one, and the fallback each chunk whose run
    values are out of order."""
    table = tables[scheme, "sorted"]["memory"]
    chunks = len(table.column("k").chunks)
    ds = dataset(table).group_by("k").agg(count().alias("n"))
    stats = ds.collect().scan_stats
    assert stats.chunks_decompressed == 0
    assert stats.rows_computed_compressed == table.row_count
    oracle = dataset(table).without_compressed_execution().group_by("k").agg(count().alias("n"))
    assert oracle.collect().scan_stats.chunks_decompressed == chunks
    unsorted = tables[scheme, "unsorted"]["memory"]
    falling = sum(bool(np.any(np.diff(chunk.decompress().values) < 0))
                  for chunk in unsorted.column("k").chunks)
    assert 0 < falling < chunks
    stats = dataset(unsorted).group_by("k").agg(count()).collect().scan_stats
    assert stats.chunks_decompressed == falling


def test_explain_labels_are_unchanged(tables):
    """The runs key adds no label: the key and its operands read as before."""
    ds = dataset(tables["RLE-cascade", "sorted"]["memory"]).filter(col("r") % 5 == 0)
    text = ds.group_by("k").agg(col("v").sum().alias("s"), count().alias("n")).explain()
    assert "agg group by k [decompress]" in text
    assert "agg s [decompress]" in text
    assert "agg n [decompress]" in text
