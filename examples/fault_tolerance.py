#!/usr/bin/env python
"""Fault tolerance: checksums, self-healing workers, quarantine, degradation.

This walks the resilience surface of :mod:`repro.engine.resilience` with
**deterministic, seeded fault injection** — every fault below is injected
on purpose and heals (or fails) the same way on every run:

1.  pack a table — v4 files carry a CRC32 digest per segment, so storage
    corruption is *detected* instead of silently decoding garbage;
2.  kill a worker mid-range and watch the pool respawn it, re-queue the
    lost work and still return results bit-identical to a serial scan;
3.  make a worker die on *every* attempt (a sticky fault) under
    ``on_fault="degrade"`` and read the process → serial fallback reason
    out of ``ScanResult.backend``;
4.  flip a byte on disk: the digest check raises a typed
    :class:`~repro.errors.CorruptionError` naming the exact segment, or —
    under ``on_corruption="quarantine"`` — skips just that chunk with the
    skip accounted in ``ScanStats.chunks_quarantined``;
5.  verify the damaged file offline with ``python -m repro.io.verify``.

Run it with::

    python examples/fault_tolerance.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.api import col, dataset
from repro.engine import ExecutionContext, shutdown_pools
from repro.engine.resilience import FaultPlan, FaultPolicy
from repro.engine.scan import scan_table
from repro.errors import CorruptionError
from repro.io.reader import open_packed_table
from repro.io.verify import verify_packed_file
from repro.io.writer import write_packed_table
from repro.schemes import NullSuppression, RunLengthEncoding
from repro.storage import Table

NUM_ROWS = 50_000
CHUNK_SIZE = 2_048


def build_table() -> Table:
    rng = np.random.default_rng(42)
    return Table.from_pydict(
        {
            "ship_date": np.sort(rng.integers(0, 730, NUM_ROWS)).astype(np.int64),
            "quantity": rng.integers(1, 50, NUM_ROWS).astype(np.int64),
        },
        schemes={"ship_date": RunLengthEncoding(),
                 "quantity": NullSuppression()},
        chunk_size=CHUNK_SIZE,
    )


def corrupt_one_chunk(path: Path, chunk_index: int) -> None:
    """Flip one byte inside a segment of the given chunk, on disk.  (A
    chunk's descriptor document sits right behind its segments, so the byte
    before it is the last one of the chunk's last segment.)"""
    packed = open_packed_table(path)
    position = packed.footer["columns"][0]["descriptors"]["offset"][chunk_index] - 1
    packed.close()
    with open(path, "r+b") as handle:
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0xFF]))


def main() -> None:
    predicates = [col("ship_date").between(100, 400)]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "orders.rpk"
        write_packed_table(build_table(), path)
        table = open_packed_table(path).table
        serial = scan_table(table, predicates, materialize=["quantity"])
        print(f"fault-free serial scan: "
              f"{serial.selection.positions.values.size} rows")

        # -- a worker is killed mid-scan; the pool heals ---------------- #
        healed = scan_table(
            table, predicates, materialize=["quantity"],
            context=ExecutionContext(
                workers=2, fault_plan=FaultPlan(seed=7, kill_ranges=(2,))))
        identical = np.array_equal(serial.selection.positions.values,
                                   healed.selection.positions.values)
        print(f"\nworker killed on range 2 -> backend={healed.backend!r}, "
              f"respawned={healed.stats.workers_respawned}, "
              f"retried={healed.stats.ranges_retried}, "
              f"bit-identical: {identical}")
        assert identical and healed.stats.workers_respawned >= 1

        # -- a sticky fault exhausts retries; the scan degrades --------- #
        degraded = scan_table(
            table, predicates, materialize=["quantity"],
            context=ExecutionContext(
                workers=2,
                fault_plan=FaultPlan(seed=7, kill_ranges=(2,), sticky=True),
                fault_policy=FaultPolicy(on_fault="degrade", retries=1,
                                         backoff_s=0.0)))
        print(f"\nsticky kill under on_fault='degrade':\n"
              f"  backend={degraded.backend!r}")
        assert "degraded" in degraded.backend
        assert np.array_equal(serial.selection.positions.values,
                              degraded.selection.positions.values)

        # -- real on-disk corruption: detected, located, quarantinable -- #
        bad_chunk = 3
        corrupt_one_chunk(path, bad_chunk)
        fresh = open_packed_table(path).table
        try:
            scan_table(fresh, predicates, materialize=["quantity"],
                       context=ExecutionContext(use_zone_maps=False))
        except CorruptionError as error:
            print(f"\nflipped one byte on disk -> {error}")

        quarantined = scan_table(
            open_packed_table(path).table, predicates,
            materialize=["quantity"],
            context=ExecutionContext(
                use_zone_maps=False,
                fault_policy=FaultPolicy(on_corruption="quarantine")))
        print(f"quarantined instead: "
              f"{quarantined.selection.positions.values.size} rows, "
              f"chunks_quarantined={quarantined.stats.chunks_quarantined}")
        assert quarantined.stats.chunks_quarantined == 1

        # -- the same policy, through the lazy API ---------------------- #
        plan = (dataset(open_packed_table(path).table)
                .filter(col("ship_date").between(100, 400))
                .with_fault_policy(on_corruption="quarantine", retries=3))
        print(f"\nexplain() records the policy:\n{plan.explain()}")

        # -- offline verification locates the damage -------------------- #
        report = verify_packed_file(path)
        print(f"\npython -m repro.io.verify:\n  {report.summary()}")
        for problem in report.problems:
            print(f"  {problem}")
        assert not report.ok and len(report.problems) == 1

    shutdown_pools()


if __name__ == "__main__":
    main()
