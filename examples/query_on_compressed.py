#!/usr/bin/env python
"""Querying compressed data: pushdown, partial decompression, and why it matters.

The paper's "lessons learned" argue that decompression is made of the same
columnar operators as query plans, so a query need not decompress at all.
This example builds a shipped-orders table (TPC-H-flavoured), stores every
column with an advisor-chosen scheme, and runs the same analytical query
three ways:

* with compressed-form pushdown and zone maps (the default engine behaviour),
* with both disabled (decompress-then-filter),
* and, for the date predicate alone, entirely in the run domain.

All three return identical answers; the printed scan statistics show how
much work each avoided.

Run it with::

    python examples/query_on_compressed.py
"""

import time

import numpy as np

from repro.api import col, count, dataset
from repro.engine import RangeBounds, kernels
from repro.planner import choose_scheme
from repro.schemes import RunLengthEncoding
from repro.storage import Table
from repro.workloads import generate_orders_workload


def timed(label, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    print(f"  {label:45s} {elapsed * 1e3:8.2f} ms")
    return result


def main() -> None:
    workload = generate_orders_workload(num_orders=100_000, num_days=2_000, seed=1)
    print(f"lineitem table: {workload.num_lineitems} rows")

    table = Table.from_columns(
        workload.lineitem,
        schemes={name: choose_scheme for name in workload.lineitem},
        chunk_size=65_536,
    )
    print("\nstorage summary (schemes chosen per chunk by the advisor):")
    print(table.summary())

    lo = workload.date_range.start + 400
    hi = workload.date_range.start + 460
    print(f"\nquery: SUM(price), COUNT(*) WHERE {lo} <= ship_date <= {hi}")

    query = (dataset(table)
             .filter(col("ship_date").between(lo, hi))
             .agg(col("price").sum(), count()))

    def with_pushdown():
        return query.collect()

    def without_pushdown():
        return query.without_pushdown().without_zone_maps().collect()

    fast = timed("engine, pushdown + zone maps", with_pushdown)
    slow = timed("engine, decompress-then-filter", without_pushdown)
    assert fast.scalars == slow.scalars
    print(f"  answers agree: {fast.scalars}")

    stats = fast.scan_stats
    print("\nscan statistics (pushdown run):")
    print(f"  chunks: {stats.chunks_total} total, {stats.chunks_skipped} skipped via "
          f"zone maps, {stats.chunks_pushed_down} answered on the compressed form, "
          f"{stats.chunks_decompressed} decompressed")
    print(f"  rows selected: {stats.rows_selected} of {stats.rows_scanned}")

    # --- the date predicate alone, entirely in the run domain ---------------
    print("\nthe same date predicate, aggregated without leaving the run domain:")
    dates = table.column("ship_date").materialize()
    scheme = RunLengthEncoding()
    form = scheme.compress(dates)
    # The filter's query plan is Algorithm 1 with Between appended; the
    # optimizer moves the Between onto the run values, so the plan's prefix
    # up to the per-run verdicts never leaves the run domain.
    plan = kernels.query_plan(scheme, form, kernels.KERNEL_FILTER_RANGE).plan
    print("  the filter's query plan, as the optimizer left it:")
    print("    " + plan.describe().replace("\n", "\n    "))
    verdicts = kernels.run_domain_plan(scheme, form, kernels.KERNEL_FILTER_RANGE).run(
        kernels.query_inputs(scheme, form, RangeBounds(lo, hi))).values
    values = form.constituent("values").values.astype(np.int64)
    lengths = form.constituent("lengths").values.astype(np.int64)
    total = int((values[verdicts] * lengths[verdicts]).sum())
    print(f"  SUM(ship_date) over qualifying rows = {total} "
          f"(computed from {verdicts.size} run verdicts, no row-grain value decoded)")


if __name__ == "__main__":
    main()
