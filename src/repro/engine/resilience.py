"""Deterministic fault injection and the fault policy for resilient scans.

The ROADMAP's robustness claim — *every query either returns results
bit-identical to a fault-free serial scan or raises a typed error naming
the fault* — is only testable if faults can be produced on demand,
deterministically, in CI.  This module provides both halves:

* :class:`FaultPlan` — a seeded, picklable description of faults to
  inject: bit flips and truncated/slow reads on the storage read path
  (installed into :mod:`repro.io.reader` via :func:`active`), and worker
  kills / hangs / exceptions / corrupted result payloads inside the
  process pool (consulted by :mod:`repro.engine.parallel` workers).
  Every decision is a pure function of ``(seed, fault kind, site key)``
  through CRC32 — the same plan injects the same faults on every run, in
  every process, so a chaos test that passes locally passes in CI.
* :class:`FaultPolicy` — what the engine does when a fault (injected or
  real) surfaces: how many times to retry a failed chunk range, how long
  a scan may run (``deadline_s``), whether corrupt chunks are fatal
  (``on_corruption="raise"``) or skipped with accounting
  (``"quarantine"``), and whether an unusable process pool is fatal
  (``on_fault="raise"``) or degrades process → serial (``"degrade"``).

Worker-side faults fire only on a range's **first** attempt unless the
plan is ``sticky`` — so retries heal them, which is exactly the behaviour
the self-healing pool is supposed to demonstrate.  Read-path faults are
keyed on the segment (not the attempt): like real disk corruption they
persist across retries, and only the digest check / quarantine policy can
deal with them.

The ``REPRO_FAULT_PLAN`` environment variable (JSON object of
:class:`FaultPlan` fields) injects a plan into scans that did not pass one
explicitly — the hook CI's chaos job uses to run the ordinary test suite
under faults.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import time
import zlib
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator, Optional, Tuple

from ..errors import QueryError, StorageError

__all__ = [
    "DEFAULT_FAULT_POLICY",
    "ENV_VAR",
    "FaultPlan",
    "FaultPolicy",
    "InjectedFault",
    "active",
    "plan_from_env",
]

#: Environment variable holding a JSON :class:`FaultPlan` for scans that
#: were not handed one explicitly (the CI chaos job sets it).
ENV_VAR = "REPRO_FAULT_PLAN"


class InjectedFault(RuntimeError):
    """An injected worker-side failure (exception flavour).

    Deliberately *not* a :class:`~repro.errors.ReproError`: it models an
    arbitrary crash inside a worker, and the pool must survive arbitrary
    crashes, not just well-typed ones.
    """


# --------------------------------------------------------------------------- #
# Policy: what the engine does about faults
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class FaultPolicy:
    """How a scan responds to faults (injected or real).

    Attributes
    ----------
    on_corruption:
        ``"raise"`` (default): a failed segment digest aborts the query
        with :class:`~repro.errors.CorruptionError`.  ``"quarantine"``:
        the chunk range containing the corrupt segment is skipped — it
        contributes no rows — and the skip is accounted in
        ``ScanStats.chunks_quarantined``.
    on_fault:
        ``"raise"`` (default): a chunk range that keeps failing after
        *retries* attempts (or a pool that cannot be kept alive) aborts
        the query.  ``"degrade"``: the scan falls back process → serial,
        recording the reason in ``ScanResult.backend``.
    retries:
        How many times a failed chunk range is re-executed (on a fresh
        worker) before the failure is considered permanent.  Retrying is
        safe unconditionally: scans are read-only and range execution is
        idempotent.
    backoff_s:
        Base of the exponential backoff between retries of the same
        range: attempt *n* waits ``backoff_s * 2**(n-1)`` seconds.
    deadline_s:
        Wall-clock budget for one scan.  When exceeded, in-flight work is
        cancelled and the scan raises
        :class:`~repro.errors.ScanTimeoutError` (stragglers cannot stall
        a query forever).  ``None`` (default) means no deadline.
    """

    on_corruption: str = "raise"
    on_fault: str = "raise"
    retries: int = 2
    backoff_s: float = 0.01
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.on_corruption not in ("raise", "quarantine"):
            raise QueryError(
                f"FaultPolicy.on_corruption must be 'raise' or 'quarantine', "
                f"got {self.on_corruption!r}")
        if self.on_fault not in ("raise", "degrade"):
            raise QueryError(
                f"FaultPolicy.on_fault must be 'raise' or 'degrade', "
                f"got {self.on_fault!r}")
        if self.retries < 0:
            raise QueryError(f"FaultPolicy.retries must be >= 0, "
                             f"got {self.retries!r}")
        if self.backoff_s < 0:
            raise QueryError(f"FaultPolicy.backoff_s must be >= 0, "
                             f"got {self.backoff_s!r}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise QueryError(f"FaultPolicy.deadline_s must be positive "
                             f"(or None), got {self.deadline_s!r}")

    def describe(self) -> str:
        """Compact one-line form for ``explain()`` reports."""
        parts = [f"on_corruption={self.on_corruption}",
                 f"on_fault={self.on_fault}", f"retries={self.retries}"]
        if self.deadline_s is not None:
            parts.append(f"deadline_s={self.deadline_s:g}")
        return ", ".join(parts)


#: The policy scans run under when none is configured: fail loudly, but
#: absorb transient worker faults with two retries.
DEFAULT_FAULT_POLICY = FaultPolicy()


# --------------------------------------------------------------------------- #
# Plan: which faults to inject, where
# --------------------------------------------------------------------------- #

def _uniform(seed: int, kind: str, key: Tuple) -> float:
    """A deterministic pseudo-uniform draw in ``[0, 1)`` for one fault site.

    CRC32 over the repr of ``(seed, kind, key)`` — stable across processes
    and Python versions (ints and strs repr canonically; no hash
    randomisation involved), which is what makes a :class:`FaultPlan`
    reproducible in every pool worker.
    """
    digest = zlib.crc32(repr((seed, kind, key)).encode("utf-8"))
    return (digest & 0xFFFFFFFF) / 2.0 ** 32


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of faults to inject.

    Probabilistic knobs (``*_p``) draw per site from the seeded stream;
    the ``*_ranges`` tuples name explicit chunk-range indices for surgical
    tests ("kill the worker executing range 3").  All fields default to
    *no fault*, so ``FaultPlan(seed=7, kill_ranges=(0,))`` injects exactly
    one fault kind.

    Read-path faults (``bitflip_p``, ``truncate_p``, ``slow_read_p``) fire
    in whichever process performs the segment read and are keyed on the
    segment, so — like real disk corruption — they persist across retries.
    Worker faults (``kill_ranges``/``worker_kill_p``, ``hang_ranges``,
    ``exception_ranges``/``worker_exception_p``,
    ``corrupt_result_ranges``/``corrupt_result_p``) fire only inside pool
    worker processes, and only on a range's first attempt unless *sticky*
    — a sticky plan models a persistent fault (used to exercise deadlines
    and the degradation chain).
    """

    seed: int = 0
    # Read-path faults (any process that materialises a segment).
    bitflip_p: float = 0.0
    truncate_p: float = 0.0
    slow_read_p: float = 0.0
    slow_read_s: float = 0.05
    # Worker faults (pool worker processes only).
    worker_kill_p: float = 0.0
    worker_exception_p: float = 0.0
    corrupt_result_p: float = 0.0
    kill_ranges: Tuple[int, ...] = ()
    hang_ranges: Tuple[int, ...] = ()
    hang_s: float = 30.0
    exception_ranges: Tuple[int, ...] = ()
    corrupt_result_ranges: Tuple[int, ...] = ()
    sticky: bool = False

    def __post_init__(self) -> None:
        for name in ("bitflip_p", "truncate_p", "slow_read_p",
                     "worker_kill_p", "worker_exception_p",
                     "corrupt_result_p"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise QueryError(f"FaultPlan.{name} must be in [0, 1], "
                                 f"got {value!r}")
        # JSON (the env hook) delivers lists; normalise to hashable tuples.
        for name in ("kill_ranges", "hang_ranges", "exception_ranges",
                     "corrupt_result_ranges"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(int(v) for v in value))

    # -- introspection ------------------------------------------------------

    @property
    def has_read_faults(self) -> bool:
        return bool(self.bitflip_p or self.truncate_p or self.slow_read_p)

    def _roll(self, kind: str, *key: Any) -> float:
        return _uniform(self.seed, kind, key)

    # -- read path ----------------------------------------------------------

    def read_fault(self, path: Any, descriptor: Dict[str, Any], name: str,
                   raw: Any) -> Optional[bytes]:
        """The :data:`repro.io.reader._FAULT_HOOK` implementation.

        Called with the segment's mapped bytes before digest verification;
        may sleep (slow read), raise (truncated read), or return corrupted
        replacement bytes (bit flip — caught by the digest check that
        follows, which is the point of the digest).
        """
        offset = int(descriptor.get("offset", 0))
        site = (name, offset)
        if self.slow_read_p and self._roll("slow", *site) < self.slow_read_p:
            time.sleep(self.slow_read_s)
        if self.truncate_p and self._roll("truncate", *site) < self.truncate_p:
            raise StorageError(
                f"{path}: injected truncated read of segment {name!r} "
                f"(expected {int(descriptor.get('nbytes', 0))} bytes at "
                f"offset {offset})")
        if self.bitflip_p and len(raw) \
                and self._roll("bitflip", *site) < self.bitflip_p:
            data = bytearray(bytes(raw))
            position = int(self._roll("bitflip-pos", *site) * len(data))
            data[position % len(data)] ^= 1 << int(
                self._roll("bitflip-bit", *site) * 8)
            return bytes(data)
        return None

    # -- worker side --------------------------------------------------------

    def worker_action(self, index: int, attempt: int) -> Optional[str]:
        """The fault (if any) a pool worker injects before executing range
        *index* on the given *attempt*: ``"kill"``, ``"hang"``,
        ``"exception"``, ``"corrupt-result"``, or ``None``."""
        if attempt > 0 and not self.sticky:
            return None
        if index in self.kill_ranges or (
                self.worker_kill_p
                and self._roll("kill", index) < self.worker_kill_p):
            return "kill"
        if index in self.hang_ranges:
            return "hang"
        if index in self.exception_ranges or (
                self.worker_exception_p
                and self._roll("exception", index) < self.worker_exception_p):
            return "exception"
        if index in self.corrupt_result_ranges or (
                self.corrupt_result_p
                and self._roll("corrupt", index) < self.corrupt_result_p):
            return "corrupt-result"
        return None

    def perform(self, action: str, index: int) -> None:
        """Execute a worker fault *action* in-process (``"corrupt-result"``
        is handled by the caller, which owns the payload)."""
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif action == "hang":
            time.sleep(self.hang_s)
        elif action == "exception":
            raise InjectedFault(
                f"injected worker exception on chunk range {index}")

    # -- (de)serialisation --------------------------------------------------

    def to_spec(self) -> Dict[str, Any]:
        """A JSON-safe dict of the non-default fields (round-trips through
        :meth:`from_spec` / the ``REPRO_FAULT_PLAN`` env hook)."""
        defaults = FaultPlan()
        spec = {}
        for field_ in fields(self):
            value = getattr(self, field_.name)
            if value != getattr(defaults, field_.name):
                spec[field_.name] = list(value) if isinstance(value, tuple) \
                    else value
        return spec

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "FaultPlan":
        known = {field_.name for field_ in fields(cls)}
        unknown = sorted(set(spec) - known)
        if unknown:
            raise QueryError(
                f"unknown FaultPlan field(s) {unknown!r}; "
                f"known: {sorted(known)!r}")
        return cls(**spec)


def plan_from_env() -> Optional[FaultPlan]:
    """The :class:`FaultPlan` described by ``REPRO_FAULT_PLAN``, or ``None``.

    The variable holds a JSON object of plan fields, e.g.
    ``{"seed": 7, "worker_kill_p": 0.2}``.  Malformed JSON or unknown
    fields raise :class:`~repro.errors.QueryError` — a chaos job with a
    typo must fail loudly, not silently run fault-free.
    """
    raw = os.environ.get(ENV_VAR)
    if not raw or not raw.strip():
        return None
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as error:
        raise QueryError(f"{ENV_VAR} is not valid JSON: {error}") from None
    if not isinstance(spec, dict):
        raise QueryError(f"{ENV_VAR} must be a JSON object of FaultPlan "
                         f"fields, got {type(spec).__name__}")
    return FaultPlan.from_spec(spec)


@contextlib.contextmanager
def active(plan: Optional[FaultPlan]) -> Iterator[None]:
    """Install *plan*'s read-path faults into the packed-format reader for
    the duration of the block (no-op for plans without read faults).

    The hook is process-global — fault injection is a test/chaos harness,
    not a per-query production feature — but the previous hook is restored
    on exit, so nested faulted scans compose.
    """
    if plan is None or not plan.has_read_faults:
        yield
        return
    from ..io import reader

    previous = reader._FAULT_HOOK
    reader._FAULT_HOOK = plan.read_fault
    try:
        yield
    finally:
        reader._FAULT_HOOK = previous
