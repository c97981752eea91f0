#!/usr/bin/env python
"""The paper's §I example: a shipped-orders date column and scheme composition.

"A table holds shipped order details, with a date column.  Data accrues over
time, so the dates form a monotone-increasing sequence with long runs for the
orders shipped every day.  Applying an RLE scheme to the dates, then applying
DELTA to the run values, achieves a much stronger compression ratio than any
single scheme individually."

This example generates that column synthetically, lets the compression
advisor rank the whole scheme space (stand-alone schemes and the composites
the decomposition view suggests), and prints the comparison the paper argues
from.  It then shows the §II-A identity on the same data: RLE's lengths are
exactly the DELTA compression of RPE's run positions.

Run it with::

    python examples/shipping_dates.py [num_rows]
"""

import sys

from repro.bench import compare_schemes, format_table
from repro.planner import advise
from repro.schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
    RunPositionEncoding,
)
from repro.schemes.decomposition import RLE_VIA_RPE
from repro.workloads import shipping_dates


def main(num_rows: int = 1_000_000) -> None:
    dates = shipping_dates(num_rows, orders_per_day_mean=2_000, seed=7)
    print(f"shipping-dates column: {num_rows} rows, "
          f"{dates.nbytes / 1e6:.1f} MB uncompressed, "
          f"{int(dates.max()) - int(dates.min()) + 1} distinct days\n")

    # --- every scheme, one table -------------------------------------------
    schemes = [
        NullSuppression(),
        Delta(),
        DictionaryEncoding(),
        FrameOfReference(segment_length=128),
        RunLengthEncoding(),
        RunPositionEncoding(),
        Cascade(RunLengthEncoding(), {"values": Delta()}),
        Cascade(RunLengthEncoding(), {"values": Delta(), "lengths": NullSuppression()}),
    ]
    rows = compare_schemes(schemes, dates, repeats=1)
    print(format_table(
        rows,
        columns=["scheme", "ratio", "bits_per_value", "plan_operators",
                 "optimized_operators", "decompress_plan_s"],
        title="Compression schemes on the shipping-dates column (§I example)"))

    # --- the advisor reaches the paper's conclusion on its own --------------
    report = advise(dates, seed=0)
    print("\n" + report.summary())
    print(f"\nadvisor's choice: {report.best.scheme.describe()}")

    # --- the §II-A identity on this very column -----------------------------
    verdict = RLE_VIA_RPE.verify(dates)
    print(f"\nidentity check — {RLE_VIA_RPE.name}: "
          f"{'holds' if verdict.holds else 'FAILS'}")
    for check, passed in verdict.details.items():
        print(f"  {check}: {'ok' if passed else 'FAIL'}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000)
