"""The five workloads: inputs from a seed, program-side set-up, op slots,
NumPy oracles and mechanism guards.

A workload is a fixed list of K operation *slots* generated from the seed.
The program only ever sees the generated arrays and the query constants.
Each slot's expected result is computed here from the raw arrays with plain
NumPy, before anything is timed; ``inspect`` compares a result with it.
"""

from __future__ import annotations

import os
import shutil
from time import perf_counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import col, dataset
from repro.columnar.compile import clear_caches
from repro.engine import parallel
from repro.io import reader, verify, writer
from repro.schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    RunLengthEncoding,
)
from repro.storage.table import Table

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Sizes:
    rows: int  # lineitem5
    chunk: int
    ingest_rows: int  # one ingest slot's table
    ingest_chunk: int
    #: How many times each workload's template pattern repeats; K is this
    #: times the pattern length.
    repeats: Dict[str, int]


#: K is frozen here (and stated in perf/README.md): pushdown_warm 24,
#: decode_warm 9, cold_needle 75, process_scan 12, ingest 4.
FULL = Sizes(rows=2_097_152, chunk=65_536, ingest_rows=131_072,
             ingest_chunk=65_536,
             repeats={"pushdown_warm": 4, "decode_warm": 3, "cold_needle": 15,
                      "process_scan": 4, "ingest": 4})
QUICK = Sizes(rows=131_072, chunk=4_096, ingest_rows=16_384,
              ingest_chunk=8_192,
              repeats={"pushdown_warm": 1, "decode_warm": 1, "cold_needle": 2,
                       "process_scan": 1, "ingest": 2})

DATE_DOMAIN = 2_000


def make_columns(rng: np.random.Generator, rows: int) -> Dict[str, np.ndarray]:
    """The five int64 columns every table here is made of."""
    return {
        "mode": rng.integers(0, 16, rows) * 5,  # 16 spread values, unsorted
        "date": np.sort(rng.integers(0, DATE_DOMAIN, rows)),
        "price": np.cumsum(rng.integers(-4, 5, rows)) + 100_000,  # random walk
        "qty": rng.integers(0, 1 << 10, rows),  # uniform 10-bit
        "oid": np.cumsum(rng.integers(1, 5, rows)),  # monotone, gaps 1-4
    }


def explicit_schemes() -> Dict[str, Any]:
    """Fixed per column, so advisor changes cannot move the query workloads."""
    return {
        "mode": DictionaryEncoding(),
        "date": Cascade(RunLengthEncoding(),
                        {"values": Delta(), "lengths": NullSuppression()}),
        "price": FrameOfReference(segment_length=256),
        "qty": NullSuppression(),
        "oid": Delta(),
    }


def worker_count() -> int:
    """min(nproc, 4) — but never below 2, or the process backend resolves to
    serial and the workload would stop measuring what it names."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(2, min(cpus, 4))


# --------------------------------------------------------------------------- #
# Expected results and their comparison
# --------------------------------------------------------------------------- #

@dataclass
class Expected:
    scalars: Dict[str, int] = field(default_factory=dict)
    columns: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Grouped results are compared after sorting the result by this key.
    key: Optional[str] = None


def matches(result: Any, expected: Expected) -> bool:
    """Values, dtypes, and group order after a key sort."""
    if set(result.scalars) != set(expected.scalars):
        return False
    for name, value in expected.scalars.items():
        got = result.scalars[name]
        if not isinstance(got, (int, np.integer)) or int(got) != value:
            return False
    if set(result.columns) != set(expected.columns):
        return False
    order = None
    if expected.key is not None:
        order = np.argsort(result.columns[expected.key].values, kind="stable")
    for name, want in expected.columns.items():
        got = result.columns[name].values
        if order is not None:
            got = got[order]
        if got.dtype != want.dtype or not np.array_equal(got, want):
            return False
    return True


def _grouped(keys: np.ndarray, **reductions: Tuple[np.ufunc, np.ndarray]
             ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Sorted distinct *keys* and, per name, ``ufunc`` reduced per group."""
    unique, inverse = np.unique(keys, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[order], np.arange(unique.size))
    return unique, {name: ufunc.reduceat(values[order], starts)
                    for name, (ufunc, values) in reductions.items()}


def _between(values: np.ndarray, low: int, high: int) -> np.ndarray:
    return (values >= low) & (values <= high)


# --------------------------------------------------------------------------- #
# Query templates: constants -> (plan builder, oracle)
# --------------------------------------------------------------------------- #

Template = Callable[[np.random.Generator, Dict[str, np.ndarray], Sizes],
                    Tuple[Callable, Callable]]


def selective_filter_sum(rng, data, sizes):
    mode = int(rng.integers(0, 15)) * 5
    low = int(rng.integers(0, DATE_DOMAIN - 200))

    def build(ds):
        return ds.filter(col("mode").between(mode, mode + 5)
                         & col("date").between(low, low + 199)
                         ).agg(col("price").sum().alias("total"))

    def oracle():
        mask = _between(data["mode"], mode, mode + 5) \
            & _between(data["date"], low, low + 199)
        return Expected(scalars={"total": int(data["price"][mask].sum())})

    return build, oracle


def run_domain_sum(rng, data, sizes):
    mode = int(rng.integers(0, 16)) * 5

    def build(ds):
        return ds.filter(col("mode") == mode).agg(
            col("date").sum().alias("total"), col("date").min().alias("first"))

    def oracle():
        dates = data["date"][data["mode"] == mode]
        return Expected(scalars={"total": int(dates.sum()),
                                 "first": int(dates.min())})

    return build, oracle


def word_parallel_count(rng, data, sizes):
    low = int(rng.integers(0, 896))

    def build(ds):
        return ds.filter(col("qty").between(low, low + 127)).agg(
            col("price").min().alias("floor"))

    def oracle():
        mask = _between(data["qty"], low, low + 127)
        return Expected(scalars={"floor": int(data["price"][mask].min())})

    return build, oracle


def group_by_dict_codes(rng, data, sizes):
    low = int(rng.integers(0, DATE_DOMAIN // 3))

    def build(ds):
        return ds.filter(col("date").between(low, low + DATE_DOMAIN // 3)
                         ).group_by("mode").agg(col("price").sum().alias("total"))

    def oracle():
        mask = _between(data["date"], low, low + DATE_DOMAIN // 3)
        keys, sums = _grouped(data["mode"][mask],
                              total=(np.add, data["price"][mask]))
        return Expected(columns={"mode": keys, **sums}, key="mode")

    return build, oracle


def wide_project(rng, data, sizes):
    low = int(rng.integers(0, 1_024 - 500))
    # The row filter fails only rows near the end of the last chunk, so no
    # chunk's zone map can decide it false: zone maps must prune nothing here.
    slack = int(data["oid"][-1]) - int(rng.integers(0, 2 * sizes.chunk))

    def build(ds):
        return ds.filter(col("qty").between(low, low + 499)
                         & (col("price") > col("oid") - slack)
                         ).select("price", "qty", "oid")

    def oracle():
        mask = _between(data["qty"], low, low + 499) \
            & (data["price"] > data["oid"] - slack)
        return Expected(columns={name: data[name][mask]
                                 for name in ("price", "qty", "oid")})

    return build, oracle


def derived_agg(rng, data, sizes):
    bump = int(rng.integers(0, 1_000))

    def build(ds):
        return ds.with_column("rev", (col("price") + bump) * col("qty")).agg(
            col("rev").sum().alias("revenue"), col("oid").max().alias("last"))

    def oracle():
        revenue = ((data["price"] + bump) * data["qty"]).sum()
        return Expected(scalars={"revenue": int(revenue),
                                 "last": int(data["oid"].max())})

    return build, oracle


def expr_group_by(rng, data, sizes):
    bound = int(rng.integers(480, 520))

    def build(ds):
        return ds.filter((col("qty") + col("mode")) > bound
                         ).group_by("date").agg(col("price").sum().alias("s"))

    def oracle():
        mask = (data["qty"] + data["mode"]) > bound
        keys, sums = _grouped(data["date"][mask],
                              s=(np.add, data["price"][mask]))
        return Expected(columns={"date": keys, **sums}, key="date")

    return build, oracle


def three_columns(rng, data, sizes):
    date_low = DATE_DOMAIN // 10 + int(rng.integers(0, DATE_DOMAIN // 10))
    date_high = date_low + DATE_DOMAIN // 2
    price_low = int(data["price"].min()) + 200
    price_high = int(data["price"].max()) - 200
    qty_low = int(rng.integers(0, 64))

    def build(ds):
        return ds.filter(col("date").between(date_low, date_high)
                         & col("price").between(price_low, price_high)
                         & col("qty").between(qty_low, qty_low + 736)
                         ).select("qty")

    def oracle():
        mask = _between(data["date"], date_low, date_high) \
            & _between(data["price"], price_low, price_high) \
            & _between(data["qty"], qty_low, qty_low + 736)
        return Expected(columns={"qty": data["qty"][mask]})

    return build, oracle


def grouped_aggregate(rng, data, sizes):
    low = int(rng.integers(0, 64))

    def build(ds):
        return ds.filter(col("qty").between(low, low + 736)).group_by("mode").agg(
            col("price").sum().alias("revenue"),
            col("price").min().alias("floor"),
            col("qty").count().alias("n"))

    def oracle():
        mask = _between(data["qty"], low, low + 736)
        price = data["price"][mask]
        keys, reduced = _grouped(data["mode"][mask], revenue=(np.add, price),
                                 floor=(np.minimum, price),
                                 n=(np.add, np.ones(price.size, np.int64)))
        return Expected(columns={"mode": keys, **reduced}, key="mode")

    return build, oracle


def needle(width: int) -> Template:
    def template(rng, data, sizes):
        low = int(rng.integers(0, DATE_DOMAIN - width))

        def build(ds):
            return ds.filter(col("date").between(low, low + width - 1)).agg(
                col("price").sum().alias("s"), col("qty").max().alias("m"))

        def oracle():
            mask = _between(data["date"], low, low + width - 1)
            return Expected(scalars={"s": int(data["price"][mask].sum()),
                                     "m": int(data["qty"][mask].max())})

        return build, oracle

    template.__name__ = f"needle_{width}"
    return template


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #

@dataclass
class Observation:
    """What ``inspect`` read off one op's result, outside the timed region."""

    ok: bool
    stats: Any = None  # the op's ScanStats, when it scanned with predicates
    counters: Dict[str, int] = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    #: Guards that need span counts (a traced round) on top of ScanStats.
    needs_spans = False
    #: Scans run on the process pool, so a serial twin can be timed.
    uses_pool = False
    pool_start_s = 0.0

    def __init__(self, seed: int, sizes: Sizes, index: int):
        self.sizes = sizes
        self.rng = np.random.default_rng([seed, index])
        self.dir = OUT_DIR / f"tmp-{self.name}-{os.getpid()}"
        self.templates: List[str] = []
        #: Table rows one op covers (queries) or writes (ingest).
        self.rows_per_op = 0

    @property
    def k(self) -> int:
        return len(self.templates)

    def reset(self) -> None:
        """Back to the program's fresh state: no compiled plans, no pool, no
        files.  Not timed."""
        parallel.shutdown_pools()
        clear_caches()
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def close(self) -> None:
        parallel.shutdown_pools()
        shutil.rmtree(self.dir, ignore_errors=True)

    def set_up(self) -> None:
        raise NotImplementedError

    def run(self, slot: int, tracer) -> Any:
        raise NotImplementedError

    def inspect(self, slot: int, value: Any) -> Observation:
        raise NotImplementedError

    def stored_ratio(self, counts: Dict[str, float]) -> float:
        """Packed file bytes per raw array byte."""
        raise NotImplementedError

    def broken_guards(self, counts: Dict[str, float]) -> List[str]:
        raise NotImplementedError


class QueryWorkload(Workload):
    """Queries over the shared table ``lineitem5``."""

    #: The template pattern; its order is the slot order, repeated.
    pattern: Sequence[Template] = ()

    def __init__(self, seed: int, sizes: Sizes, index: int):
        super().__init__(seed, sizes, index)
        # Every query workload draws the same table for a seed.
        self.data = make_columns(np.random.default_rng([seed, 0]), sizes.rows)
        self.raw_bytes = sum(a.nbytes for a in self.data.values())
        self.rows_per_op = sizes.rows
        self.builders: List[Callable] = []
        self.expected: List[Expected] = []
        for __ in range(sizes.repeats[self.name]):
            for template in self.pattern:
                build, oracle = template(self.rng, self.data, sizes)
                self.templates.append(template.__name__)
                self.builders.append(build)
                self.expected.append(oracle())
        self.table: Optional[Table] = None
        self.path: Optional[Path] = None
        self.ds = None

    def compress_and_write(self) -> None:
        self.table = Table.from_pydict(self.data, schemes=explicit_schemes(),
                                       chunk_size=self.sizes.chunk)
        self.path = writer.write_packed_table(self.table,
                                              self.dir / "lineitem5.rpk")

    def set_up(self) -> None:
        self.compress_and_write()
        self.ds = dataset(self.table, "lineitem5")

    def query(self, slot: int, ds, tracer):
        with tracer.span("api.plan_build"):
            return self.builders[slot](ds)

    def run(self, slot: int, tracer) -> Any:
        return self.query(slot, self.ds, tracer).collect()

    def inspect(self, slot: int, value: Any) -> Observation:
        return Observation(ok=matches(value, self.expected[slot]),
                           stats=value.scan_stats)

    def stored_ratio(self, counts) -> float:
        return self.path.stat().st_size / self.raw_bytes


class PushdownWarm(QueryWorkload):
    name = "pushdown_warm"
    why = ("in-memory table, every conjunct and aggregate runs on the "
           "compressed forms (kernels, translate, zone maps); nothing "
           "decompresses, so a decode change must not show here")
    # The two cheap templates take a third of the slots, so p50 and p90 both
    # fall inside a template's cluster of slot times, not between two.
    pattern = (selective_filter_sum, run_domain_sum, group_by_dict_codes,
               word_parallel_count, group_by_dict_codes, word_parallel_count)

    def broken_guards(self, counts):
        if counts["chunks_decompressed"] != 0:
            return [f"pushdown_warm decompressed "
                    f"{counts['chunks_decompressed']} chunks, expected 0"]
        return []


class DecodeWarm(QueryWorkload):
    name = "decode_warm"
    why = ("same table, queries the kernels cannot serve: compiled-plan "
           "decompression, gather and aggregate do the work and zone maps "
           "prune nothing")
    pattern = (wide_project, derived_agg, expr_group_by)

    def broken_guards(self, counts):
        broken = []
        if counts["chunks_decompressed"] <= 0:
            broken.append("decode_warm decompressed no chunk")
        if counts["chunks_skipped"] != 0:
            broken.append(f"decode_warm skipped {counts['chunks_skipped']} "
                          "chunks, expected 0")
        return broken


class ColdNeedle(QueryWorkload):
    name = "cold_needle"
    why = ("packed file reopened per op with the program's caches cleared: "
           "footer parse, table build, zone-map pruning, segment mmap, CRC "
           "and first plan compile dominate (OS page cache stays warm)")
    pattern = (needle(10), needle(10), needle(10), needle(100), needle(400))

    def set_up(self) -> None:
        self.compress_and_write()

    def run(self, slot: int, tracer) -> Any:
        with tracer.span("harness.clear_caches"):
            clear_caches()
        handle = reader.open_packed_table(self.path)
        try:
            with tracer.span("io.reader.table"):
                table = handle.table
            result = self.query(slot, dataset(table, "lineitem5"),
                                tracer).collect()
            mapped = {"bytes_mapped": handle.bytes_mapped,
                      "segments_mapped": handle.segments_mapped,
                      "file_bytes": handle.file_size}
        finally:
            # Dropping the last references frees the table's object graph,
            # which costs more than close() itself; keep it inside the span.
            with tracer.span("io.reader.close"):
                handle.close()
                handle = table = None
        return result, mapped

    def inspect(self, slot: int, value: Any) -> Observation:
        result, mapped = value
        return Observation(ok=matches(result, self.expected[slot]),
                           stats=result.scan_stats, counters=mapped)

    def broken_guards(self, counts):
        broken = []
        prune = counts["chunks_skipped"] / counts["chunks_total"]
        if prune < 0.85:
            broken.append(f"cold_needle prune ratio {prune:.3f} < 0.85")
        mapped = counts["bytes_mapped"] / counts["file_bytes"]
        if mapped > 0.35:
            broken.append(f"cold_needle mapped fraction {mapped:.3f} > 0.35")
        return broken


class ProcessScan(QueryWorkload):
    name = "process_scan"
    why = ("packed file opened once, scans fan out over the process pool: "
           "the only workload with pickle, pipe, range queue and "
           "partial-state merge on the path")
    pattern = (three_columns, grouped_aggregate, wide_project)
    needs_spans = True
    uses_pool = True

    def __init__(self, seed: int, sizes: Sizes, index: int):
        super().__init__(seed, sizes, index)
        self.workers = worker_count()
        self.handle = None

    def reset(self) -> None:
        if self.handle is not None:
            self.handle.close()
            self.handle = None
        super().reset()

    def close(self) -> None:
        if self.handle is not None:
            self.handle.close()
        super().close()

    def set_up(self) -> None:
        self.compress_and_write()
        self.handle = reader.open_packed_table(self.path)
        self.ds = dataset(self.handle.table, "lineitem5")
        start = perf_counter()
        parallel.get_pool(self.workers)
        self.pool_start_s = perf_counter() - start

    def run(self, slot: int, tracer) -> Any:
        return self.query(slot, self.ds, tracer).with_backend(
            "process", workers=self.workers).collect()

    def run_serial(self, slot: int, tracer) -> Any:
        """The serial twin of a slot, for ``speedup_vs_serial``."""
        return self.query(slot, self.ds, tracer).collect()

    def broken_guards(self, counts):
        if counts["fallback_ops"] != 0:
            return [f"process_scan: {counts['fallback_ops']} ops did not run "
                    "on the process pool"]
        return []


class Ingest(Workload):
    name = "ingest"
    why = ("the write direction: advisor-chosen schemes, compress, write, "
           "verify; the only place planner.advisor runs, so a decode-cost "
           "change that flips its choices shows as stored bytes")
    needs_spans = True

    def __init__(self, seed: int, sizes: Sizes, index: int):
        super().__init__(seed, sizes, index)
        self.tables = [
            make_columns(np.random.default_rng([seed, index, slot]),
                         sizes.ingest_rows)
            for slot in range(sizes.repeats[self.name])]
        self.templates = ["ingest"] * len(self.tables)
        self.rows_per_op = sizes.ingest_rows
        self.column_chunks = (len(self.tables) * len(self.tables[0])
                              * -(-sizes.ingest_rows // sizes.ingest_chunk))

    def set_up(self) -> None:
        pass  # nothing to build: the warm round is the set-up

    def run(self, slot: int, tracer) -> Any:
        table = Table.from_pydict(self.tables[slot], schemes="auto",
                                  chunk_size=self.sizes.ingest_chunk)
        path = writer.write_packed_table(table,
                                         self.dir / f"ingest-{slot}.rpk")
        return table, path, verify.verify_packed_file(path)

    def inspect(self, slot: int, value: Any) -> Observation:
        table, path, report = value
        data = self.tables[slot]
        ok = bool(report.ok)
        with reader.open_packed_table(path) as handle:
            stored = handle.table
            for name, want in data.items():
                got = stored.column(name).materialize().values
                ok = ok and got.dtype == want.dtype \
                    and np.array_equal(got, want)
        return Observation(ok=ok, counters={
            "bytes_written": path.stat().st_size,
            "raw_bytes": sum(a.nbytes for a in data.values()),
            "compressed_bytes": table.compressed_size_bytes(),
            "values": sum(a.size for a in data.values()),
        })

    def stored_ratio(self, counts) -> float:
        return counts["bytes_written"] / counts["raw_bytes"]

    def broken_guards(self, counts):
        if counts["advise_calls"] < self.column_chunks:
            return [f"ingest: {counts['advise_calls']} advise calls for "
                    f"{self.column_chunks} column chunks"]
        return []


WORKLOADS = (PushdownWarm, DecodeWarm, ColdNeedle, ProcessScan, Ingest)


def make(name: str, seed: int, quick: bool) -> Workload:
    for index, cls in enumerate(WORKLOADS, start=1):
        if cls.name == name:
            return cls(seed, QUICK if quick else FULL, index)
    raise SystemExit(f"unknown workload {name!r}; known: "
                     f"{[cls.name for cls in WORKLOADS]}")
