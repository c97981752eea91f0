#!/usr/bin/env python
"""Durable tables: save a table packed, then query it cold and lazily.

This walks the full persistence cycle of :mod:`repro.io`:

1.  build a compressed table (per-column schemes, chunked);
2.  save it as **one packed file** — constituent segments plus a JSON
    footer carrying schemes, chunk boundaries and zone-map statistics;
3.  reopen it **cold** and run a selective query: chunk pruning happens on
    the persisted zone maps *before any segment I/O*, so the scan maps only
    a sliver of the file — the I/O account printed at the end proves it.

Run it with::

    python examples/persistence.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.api import col, dataset
from repro.io import open_table, save_table
from repro.schemes import Cascade, Delta, FrameOfReference, RunLengthEncoding
from repro.storage import Table


def build_orders(num_rows: int = 200_000) -> Table:
    """A shipped-orders table: clustered dates, smooth prices, random sizes."""
    rng = np.random.default_rng(42)
    return Table.from_pydict(
        {
            "ship_date": np.sort(rng.integers(0, 730, num_rows)).astype(np.int64),
            "price": (np.cumsum(rng.integers(-3, 4, num_rows)) + 20_000).astype(np.int64),
            "quantity": rng.integers(1, 50, num_rows).astype(np.int64),
        },
        schemes={
            "ship_date": Cascade(RunLengthEncoding(), {"values": Delta()}),
            "price": FrameOfReference(segment_length=256),
        },
        chunk_size=16_384,
    )


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-persistence-") as workdir:
        save_and_query(build_orders(), Path(workdir) / "orders.rpk")


def save_and_query(table: Table, path: Path) -> None:
    # --- save: one packed file per table ------------------------------------
    path = save_table(table, path)
    print(f"saved {table.row_count} rows into {path.name} "
          f"({path.stat().st_size} bytes, one file)")

    # --- reopen cold: footer only, zero segment bytes ----------------------
    packed = open_table(path)
    print(f"columns (footer only): {packed.table.column_names}")
    print(f"\ncold open: bytes mapped so far = {packed.bytes_mapped}")

    # --- a selective query prunes chunks before any I/O ---------------------
    result = (
        dataset(packed.table)
        .filter(col("ship_date").between(100, 130))
        .agg((col("price") * col("quantity")).sum().alias("revenue"))
        .collect()
    )
    print(f"Q: revenue of days 100..130  ->  {result.scalars['revenue']}")
    stats = result.scan_stats
    print(f"   chunks: {stats.chunks_skipped} zone-map-skipped of "
          f"{stats.chunks_total}; {stats.chunks_decompressed} decompressed")
    print(f"   I/O: mapped {packed.bytes_mapped} of {packed.file_size} bytes "
          f"({100.0 * packed.bytes_mapped / packed.file_size:.1f}% of the file)")
    assert packed.bytes_mapped < packed.file_size

    # --- the answer matches the in-memory table ----------------------------
    reference = (
        dataset(table)
        .filter(col("ship_date").between(100, 130))
        .agg((col("price") * col("quantity")).sum().alias("revenue"))
        .collect()
    )
    assert result.scalars == reference.scalars
    print("\ncold packed query agrees with the in-memory table: OK")
    packed.close()


if __name__ == "__main__":
    main()
