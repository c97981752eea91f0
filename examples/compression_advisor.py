#!/usr/bin/env python
"""The compression advisor across a whole table of differently-shaped columns.

Generates the TPC-H-flavoured shipped-orders workload and, for every lineitem
column, prints the advisor's ranked scheme comparison (measured bits per
value and decompression cost on a sample) followed by the candidates it did
not need to trial — their stated size bound already put them out of reach —
then stores the table with the winning scheme per chunk and reports the
end-to-end compression achieved.

This is the "why the richer scheme space matters" demo: different columns
win with different schemes, and several win with *composites* that only
exist because schemes decompose into re-usable constituents.

Run it with::

    python examples/compression_advisor.py
"""

from repro.planner import advise, choose_scheme
from repro.storage import Table
from repro.workloads import generate_orders_workload


def main() -> None:
    workload = generate_orders_workload(num_orders=50_000, num_days=1_500, seed=11)
    print(f"lineitem: {workload.num_lineitems} rows, "
          f"{len(workload.lineitem)} columns\n")

    for name, column in workload.lineitem.items():
        report = advise(column, seed=0)
        print(report.summary())
        best = report.best
        print(f"  → chosen: {best.scheme.describe()} "
              f"({best.bits_per_value:.2f} bits/value)\n")

    table = Table.from_columns(
        workload.lineitem,
        schemes={name: choose_scheme for name in workload.lineitem},
        chunk_size=65_536,
    )
    print("resulting storage layout:")
    print(table.summary())
    print(f"\nwhole-table compression ratio: {table.compression_ratio():.2f}x "
          f"({table.uncompressed_size_bytes() / 1e6:.1f} MB → "
          f"{table.compressed_size_bytes() / 1e6:.1f} MB)")


if __name__ == "__main__":
    main()
