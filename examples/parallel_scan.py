#!/usr/bin/env python
"""Multiprocess scans over a packed table: backends, fallbacks, merged partials.

This walks the parallel-execution surface of :mod:`repro.engine.parallel`:

1.  pack a table to one file — the process backend's precondition, since
    worker processes share the data by **mmap-ing the same file**, not by
    pickling columns;
2.  run the same filter on the ``serial`` and ``process`` backends and
    check the answers are bit-identical;
3.  read the backend decision out of ``explain()`` and
    ``ScanResult.backend`` — including the serial *fallback with a reason*
    when the table is not packed;
4.  run a grouped aggregate whose per-range partial states are merged by
    the coordinator (exact integer sums, min/max lattice joins).

Run it with::

    python examples/parallel_scan.py
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from repro.api import col, dataset
from repro.engine import ExecutionContext, shutdown_pools
from repro.engine.predicates import Between
from repro.engine.scan import scan_table
from repro.io.reader import open_packed_table
from repro.io.writer import write_packed_table
from repro.schemes import (
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage import Table


def build_orders(num_rows: int = 200_000) -> Table:
    rng = np.random.default_rng(42)
    return Table.from_pydict(
        {
            "ship_date": np.sort(rng.integers(0, 730, num_rows)).astype(np.int64),
            "price": (np.cumsum(rng.integers(-3, 4, num_rows)) + 20_000).astype(np.int64),
            "quantity": rng.integers(1, 50, num_rows).astype(np.int64),
            "region": rng.integers(0, 8, num_rows).astype(np.int64),
        },
        schemes={
            "ship_date": RunLengthEncoding(),
            "price": FrameOfReference(segment_length=256),
            "quantity": NullSuppression(),
            "region": DictionaryEncoding(),
        },
        chunk_size=16_384,
    )


def main() -> None:
    memory_table = build_orders()
    predicates = [Between("ship_date", 100, 400), Between("quantity", 5, 40)]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "orders.rpk"
        write_packed_table(memory_table, path)
        table = open_packed_table(path).table

        # -- one scan, two backends ------------------------------------ #
        print(f"cpu_count: {os.cpu_count()}")
        four_workers = ExecutionContext(workers=4)
        serial = scan_table(table, predicates)
        result = scan_table(table, predicates, context=four_workers)
        identical = np.array_equal(serial.selection.positions.values,
                                   result.selection.positions.values)
        print(f"{result.backend:>12}: {result.selection.positions.values.size}"
              f" rows, bit-identical to serial: {identical}")

        # -- the decision is visible, including fallbacks --------------- #
        ds = (dataset(table).filter(col("ship_date").between(100, 400))
              .with_backend("process", workers=4))
        print("\nexplain() on the packed table:")
        print(ds.explain())
        fallback = scan_table(memory_table, predicates, context=four_workers)
        print(f"in-memory table falls back: backend={fallback.backend!r}")

        # -- grouped aggregate via partial-state merge ------------------ #
        grouped = (dataset(table).filter(col("quantity").between(5, 40))
                   .group_by("region")
                   .agg(col("price").sum().alias("revenue"),
                        col("price").count().alias("orders")))
        serial_frame = grouped.collect()
        process_frame = grouped.with_backend("process", workers=4).collect()
        same = all(np.array_equal(serial_frame.columns[name].values,
                                  process_frame.columns[name].values)
                   for name in serial_frame.columns)
        print(f"\ngrouped aggregate merged from worker partials, "
              f"bit-identical: {same}")

    shutdown_pools()


if __name__ == "__main__":
    main()
