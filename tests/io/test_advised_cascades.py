"""The cascades the advisor now generates, end to end: chosen, written,
verified, reopened, decoded on both paths, filtered and gathered."""

import crosscheck  # tests/io/crosscheck.py, the CI's cross-version write/verify pair
import numpy as np

from repro.api import col, dataset
from repro.columnar.compile import clear_caches
from repro.io.reader import open_packed_table
from repro.io.verify import verify_packed_file
from repro.io.writer import write_packed_table
from repro.schemes import Cascade, Delta, PatchedFrameOfReference
from repro.storage import Table

ROWS, CHUNK = 32_768, 16_384


def ingest_columns(rng, rows):
    """perf/workloads.make_columns: the five columns of the benchmark's tables."""
    return {
        "mode": rng.integers(0, 16, rows) * 5,
        "date": np.sort(rng.integers(0, 2_000, rows)),
        "price": np.cumsum(rng.integers(-4, 5, rows)) + 100_000,
        "qty": rng.integers(0, 1 << 10, rows),
        "oid": np.cumsum(rng.integers(1, 5, rows)),
    }


def test_advised_table_round_trips_through_a_packed_file(tmp_path):
    data = ingest_columns(np.random.default_rng(20180416), ROWS)
    data["oid_patched"] = data["oid"]
    advised = Table.from_pydict(data, schemes="auto", chunk_size=CHUNK)
    # With DELTA's base apart the advisor prefers NS under DELTA on the random
    # walk (±4 steps zig-zag to 4 bits) and DICT on the key (four gaps, 2
    # bits); PFOR, half a bit behind DICT, is written explicitly so the
    # width-, dictionary- and patch-based cascades are all stored.
    delta_pfor = Cascade(Delta(narrow=False), {"deltas": PatchedFrameOfReference()})
    schemes = {name: advised.column(name).chunks[0].scheme for name in data}
    schemes["oid_patched"] = delta_pfor
    assert schemes["price"].name == "DELTA∘[deltas=NS]"
    assert schemes["oid"].name == "DELTA∘[deltas=DICT]"
    table = Table.from_pydict(data, schemes=schemes, chunk_size=CHUNK)

    path = write_packed_table(table, tmp_path / "advised.rpk")
    report = verify_packed_file(path)
    assert report.ok, report.problems
    clear_caches()
    with open_packed_table(path) as handle:
        stored = handle.table
        for name, values in data.items():
            for chunk in stored.column(name).chunks:
                want = values[chunk.row_offset:chunk.row_offset + chunk.row_count]
                compiled = chunk.scheme.decompress(chunk.form).values
                interpreted = chunk.scheme.decompress_interpreted(chunk.form).values
                assert compiled.dtype == interpreted.dtype == want.dtype
                assert np.array_equal(compiled, want) and np.array_equal(interpreted, want)

        lo, hi = int(data["oid"][ROWS // 3]), int(data["oid"][ROWS // 2])
        for name in ("oid", "oid_patched", "price"):
            low, high = (lo, hi) if name != "price" else (99_990, 100_010)
            selected = (dataset(stored).filter(col(name).between(low, high))
                        .select(name, "qty").collect())
            mask = (data[name] >= low) & (data[name] <= high)
            assert mask.any() and not mask.all()
            assert np.array_equal(selected.column(name).values, data[name][mask])
            assert np.array_equal(selected.column("qty").values, data["qty"][mask])
        # a gather over the cascades at positions another column selects
        picked = (dataset(stored).filter(col("mode") == 35)
                  .select("price", "oid", "oid_patched").collect())
        rows = np.flatnonzero(data["mode"] == 35)
        for name in ("price", "oid", "oid_patched"):
            assert np.array_equal(picked.column(name).values, data[name][rows])


def test_crosscheck_file_still_verifies(tmp_path, capsys):
    assert crosscheck.write_command(tmp_path) == 0
    assert crosscheck.verify_command(tmp_path) == 0
    assert "verify OK" in capsys.readouterr().out
