"""Compressed-execution benchmark: kernels vs decompress-then-compute.

Measures, over a multi-chunk table whose columns are FOR-, DICT- and
RLE-cascade-compressed, the same selective filter+aggregate queries two ways:

* the **compressed** path (the default): range conjuncts dispatch through
  :mod:`repro.engine.kernels` (run-domain masks, translated segment bounds,
  packed values compared at their own width), aggregate inputs are gathered
  positionally from the compressed forms, and dictionary group-bys reuse the
  stored codes as group codes;
* the **decompress** path (``.without_pushdown().without_compressed_execution()``):
  every surviving chunk is decompressed and the aggregates reduce over
  materialised values — the classical decompress-then-compute execution.

Zone maps stay ON for both paths (chunk pruning is orthogonal to
compressed-domain execution, and the filter columns are deliberately
unsorted so zone maps cannot decide chunks either way).  Every scenario
asserts bit-identical results between the two paths and records the
compressed-execution counters (``rows_computed_compressed``,
``bytes_decompressed_saved``).  Results go to ``BENCH_compressed_exec.json``.

Run as a module::

    python -m repro.bench.compressed_exec [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..api import Dataset, col, dataset
from ..columnar.compile import clear_caches
from ..schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from ..storage.table import Table
from .harness import time_callable

DEFAULT_NUM_ROWS = 1_000_000
QUICK_NUM_ROWS = 131_072
CHUNK_SIZE = 65_536


def build_table(num_rows: int, seed: int = 20_180_416) -> Tuple[Dict[str, np.ndarray], Table]:
    """The benchmark table.

    * ``mode`` — 16 distinct spread-out values in random order (DICT, packed
      4-bit codes; unsorted so zone maps cannot prune);
    * ``date`` — sorted with long runs (the RLE∘DELTA cascade of the
      paper's §I example, lengths narrowed);
    * ``price`` — a smooth random walk (FOR, packed offsets);
    * ``qty`` — uniform noise (NS, packed).
    """
    rng = np.random.default_rng(seed)
    data = {
        "mode": (rng.integers(0, 16, num_rows) * 5).astype(np.int64),
        "date": np.sort(rng.integers(0, 2_000, num_rows)).astype(np.int64),
        "price": (np.cumsum(rng.integers(-4, 5, num_rows)) + 100_000).astype(np.int64),
        "qty": rng.integers(0, 1 << 10, num_rows).astype(np.int64),
    }
    table = Table.from_pydict(
        data,
        schemes={
            "mode": DictionaryEncoding(),
            "date": Cascade(
                RunLengthEncoding(),
                {"values": Delta(), "lengths": NullSuppression()},
            ),
            "price": FrameOfReference(segment_length=256),
            "qty": NullSuppression(),
        },
        chunk_size=CHUNK_SIZE,
    )
    return data, table


def _scenarios(data: Dict[str, np.ndarray], table: Table) -> List[Dict[str, Any]]:
    date_hi = int(data["date"].max())
    ds = dataset(table, "bench")
    date_lo = date_hi // 4
    return [
        {
            "name": "selective_filter_sum",
            "description": (
                "dict-code filter (narrow codes) + selective date range, "
                "SUM over FOR-gathered price (the acceptance query)"
            ),
            "dataset": ds.filter(
                col("mode").between(20, 25)
                & col("date").between(date_lo, date_lo + date_hi // 10)
            ).agg(col("price").sum().alias("total")),
        },
        {
            "name": "run_domain_sum",
            "description": (
                "dict filter, SUM/MIN over the RLE∘DELTA cascade in the run domain"
            ),
            "dataset": ds.filter(col("mode") == 35).agg(
                col("date").sum().alias("total"),
                col("date").min().alias("first"),
            ),
        },
        {
            "name": "word_parallel_count",
            "description": "NS packed range filter (10-bit, unpacked narrow) + count",
            "dataset": ds.filter(col("qty").between(100, 227)).agg(
                col("price").min().alias("floor"),
            ),
        },
        {
            "name": "group_by_dict_codes",
            "description": "date-range filter, GROUP BY dictionary codes, SUM(price)",
            "dataset": ds.filter(col("date").between(date_hi // 3, (date_hi * 2) // 3))
            .group_by("mode")
            .agg(col("price").sum().alias("total")),
        },
    ]


def _assert_identical(compressed, decompressed, name: str) -> None:
    assert compressed.scalars == decompressed.scalars, name
    assert sorted(compressed.columns) == sorted(decompressed.columns), name
    for column in compressed.columns:
        left = compressed.columns[column].values
        right = decompressed.columns[column].values
        assert left.dtype == right.dtype, (name, column)
        assert np.array_equal(left, right), (name, column)


def measure_scenario(scenario: Dict[str, Any], repeats: int) -> Dict[str, Any]:
    fast: Dataset = scenario["dataset"]
    slow: Dataset = fast.without_pushdown().without_compressed_execution()

    compressed = fast.collect()
    baseline = slow.collect()
    _assert_identical(compressed, baseline, scenario["name"])
    stats = compressed.scan_stats
    assert stats is not None and stats.rows_computed_compressed > 0, scenario["name"]

    fast_timing = time_callable(fast.collect, repeats=repeats, warmup=1)
    slow_timing = time_callable(slow.collect, repeats=repeats, warmup=1)
    baseline_stats = baseline.scan_stats
    return {
        "scenario": scenario["name"],
        "description": scenario["description"],
        "rows_selected": compressed.row_count,
        "compressed_s": fast_timing.best_seconds,
        "decompress_s": slow_timing.best_seconds,
        "speedup": slow_timing.best_seconds / max(fast_timing.best_seconds, 1e-12),
        "rows_computed_compressed": stats.rows_computed_compressed,
        "bytes_decompressed_saved": stats.bytes_decompressed_saved,
        "chunks_pushed_down": stats.chunks_pushed_down,
        "chunks_decompressed": stats.chunks_decompressed,
        "baseline_chunks_decompressed": (
            baseline_stats.chunks_decompressed if baseline_stats is not None else None
        ),
    }


def run_benchmark(quick: bool = False, repeats: Optional[int] = None) -> Dict[str, Any]:
    num_rows = QUICK_NUM_ROWS if quick else DEFAULT_NUM_ROWS
    repeats = repeats if repeats is not None else (2 if quick else 5)
    clear_caches()
    data, table = build_table(num_rows)
    rows = [measure_scenario(scenario, repeats) for scenario in _scenarios(data, table)]
    return {
        "benchmark": "compressed_exec",
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "rows": rows,
        "num_rows": num_rows,
        "chunk_size": CHUNK_SIZE,
    }


def write_bench_json(
    path: str = "BENCH_compressed_exec.json",
    quick: bool = False,
) -> Dict[str, Any]:
    report = run_benchmark(quick=quick)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    return report


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - CLI
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small data, few repeats (CI smoke mode)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_compressed_exec.json",
        help="output JSON path",
    )
    args = parser.parse_args(argv)
    report = write_bench_json(args.out, quick=args.quick)
    for row in report["rows"]:
        print(
            f"{row['scenario']:>22}"
            f"  decompress {row['decompress_s'] * 1e3:8.2f} ms"
            f"  compressed {row['compressed_s'] * 1e3:8.2f} ms"
            f"  speedup {row['speedup']:5.2f}x"
            f"  rows-compressed {row['rows_computed_compressed']}"
            f"  saved {row['bytes_decompressed_saved'] / 1e6:.1f} MB"
        )
    print(f"wrote {args.out} (cpu_count={report['cpu_count']})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
