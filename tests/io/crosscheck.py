"""Cross-version format check: write a packed table, verify it elsewhere.

CI writes a packed file on the oldest supported Python and verifies it on
the newest (artifact handoff between jobs), proving the format is
bit-stable across interpreter and NumPy versions::

    python tests/io/crosscheck.py write  crosscheck-dir
    python tests/io/crosscheck.py verify crosscheck-dir

``write`` builds a deterministic multi-scheme table (fixed seed), saves it
packed, and records the ground truth next to it: per-column SHA-256 digests
of the materialised values and the answers of a few selective queries.
``verify`` re-opens the file cold, re-runs everything, and exits non-zero
on any mismatch — it also asserts that a scalar aggregate over every row,
answered from the footer's zone maps, maps no segment byte at all, and that
the selective query maps fewer bytes than the file holds, so the laziness
contract is checked cross-version too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.api import col, dataset
from repro.io import open_packed_table, write_packed_table
from repro.schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage.table import Table

NUM_ROWS = 100_000
CHUNK_SIZE = 8_192
SEED = 20_180_416

PACKED_NAME = "dataset.rpk"
EXPECTED_NAME = "expected.json"


def build_table() -> Table:
    """A deterministic table exercising plain, segmented and cascaded schemes."""
    rng = np.random.default_rng(SEED)
    data = {
        "ship_date": np.sort(rng.integers(0, 1_000, NUM_ROWS)).astype(np.int64),
        "price": (np.cumsum(rng.integers(-4, 5, NUM_ROWS)) + 50_000).astype(np.int64),
        "quantity": rng.integers(0, 512, NUM_ROWS).astype(np.int64),
        "category": rng.integers(0, 40, NUM_ROWS).astype(np.int64),
    }
    return Table.from_pydict(
        data,
        schemes={
            "ship_date": Cascade(RunLengthEncoding(), {"values": Delta()}),
            "price": FrameOfReference(segment_length=256),
            "quantity": NullSuppression(),
            "category": DictionaryEncoding(),
        },
        chunk_size=CHUNK_SIZE,
    )


def _column_digest(values: np.ndarray) -> str:
    arr = np.ascontiguousarray(values.astype("<i8"))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _whole_range(table: Table) -> Dict[str, int]:
    """count/sum/min/max over every row: each range answered from its zone maps."""
    result = (dataset(table)
              .agg(col("price").sum(), col("quantity").max(), col("ship_date").min(),
                   col("category").count())
              .collect())
    return {name: int(value) for name, value in result.scalars.items()}


def _run_queries(table: Table) -> Dict[str, Any]:
    selective = (dataset(table)
                 .filter(col("ship_date").between(100, 160))
                 .agg(col("price").sum())
                 .collect())
    broad = (dataset(table)
             .filter(col("quantity").between(0, 255))
             .agg(col("quantity").count())
             .collect())
    return {
        "selective_sum_price": int(selective.scalars["sum(price)"]),
        "selective_rows": int(selective.row_count),
        "broad_count": int(broad.scalars["count(quantity)"]),
    }


def write_command(directory: Path) -> int:
    directory.mkdir(parents=True, exist_ok=True)
    table = build_table()
    path = write_packed_table(table, directory / PACKED_NAME)
    expected = {
        "written_on": {"python": platform.python_version(),
                       "numpy": np.__version__},
        "row_count": int(table.row_count),
        "columns": {name: _column_digest(table.column(name).materialize().values)
                    for name in table.column_names},
        "queries": _run_queries(table),
        "whole_range": _whole_range(table),
        "file_size": path.stat().st_size,
    }
    (directory / EXPECTED_NAME).write_text(json.dumps(expected, indent=2,
                                                      sort_keys=True))
    print(f"wrote {path} ({path.stat().st_size} bytes) on "
          f"Python {platform.python_version()} / NumPy {np.__version__}")
    return 0


def verify_command(directory: Path) -> int:
    expected = json.loads((directory / EXPECTED_NAME).read_text())
    packed = open_packed_table(directory / PACKED_NAME)
    failures: List[str] = []

    def check(label: str, got: Any, want: Any) -> None:
        if got != want:
            failures.append(f"{label}: got {got!r}, expected {want!r}")

    check("file_size", packed.file_size, expected["file_size"])
    check("row_count", packed.table.row_count, expected["row_count"])

    # Answered from the footer: not one segment is mapped.
    packed.reset_accounting()
    check("whole_range", _whole_range(packed.table), expected["whole_range"])
    check("whole_range segments mapped", packed.segments_mapped, 0)
    check("whole_range bytes mapped", packed.bytes_mapped, 0)

    # Selective cold query next: it must not map the whole file.
    packed.reset_accounting()
    check("queries", _run_queries(packed.table), expected["queries"])
    if packed.bytes_mapped >= packed.file_size:
        failures.append(
            f"selective queries mapped {packed.bytes_mapped} bytes, not fewer "
            f"than the {packed.file_size}-byte file"
        )
    selective_bytes = packed.bytes_mapped

    for name, want in expected["columns"].items():
        got = _column_digest(packed.table.column(name).materialize().values)
        check(f"column {name!r} digest", got, want)

    if failures:
        print(f"cross-version verify FAILED on Python "
              f"{platform.python_version()} / NumPy {np.__version__}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"cross-version verify OK on Python {platform.python_version()} / "
          f"NumPy {np.__version__} (written on Python "
          f"{expected['written_on']['python']} / NumPy "
          f"{expected['written_on']['numpy']}); selective queries mapped "
          f"{selective_bytes}/{packed.file_size} bytes")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command", choices=["write", "verify"])
    parser.add_argument("directory", type=Path,
                        help="directory holding dataset.rpk + expected.json")
    args = parser.parse_args(argv)
    if args.command == "write":
        return write_command(args.directory)
    return verify_command(args.directory)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
