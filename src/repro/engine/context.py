"""The one options object of query execution.

Every execution option is stated once, here.  :class:`repro.api.Dataset`
carries an :class:`ExecutionContext`, the optimizer and the lowering pass
receive it, :func:`repro.engine.scan.scan_table` takes it as its single
option-carrying parameter, and :class:`repro.engine.parallel.ScanSpec` ships
the same object to the pool workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from ..errors import QueryError
from .resilience import DEFAULT_FAULT_POLICY, FaultPlan, FaultPolicy, plan_from_env

__all__ = ["ExecutionContext"]


@dataclass(frozen=True)
class ExecutionContext:
    """How a query executes (what it computes is the plan's business)."""

    #: Scan workers: ``1`` runs serially; more than one — or ``"auto"``,
    #: meaning ``min(cpu_count, chunk ranges)`` — fans chunk ranges out over
    #: the process pool when the table is one packed file.  The rule lives
    #: in :func:`repro.engine.scan.choose_backend`.
    workers: Union[int, str] = 1
    #: Evaluate range/point conjuncts on the compressed forms.
    use_pushdown: bool = True
    #: Skip or accept whole chunks from their statistics.
    use_zone_maps: bool = True
    #: Route eligible aggregates and sparse gathers through the
    #: compressed-domain kernels (:mod:`repro.engine.kernels`).  Results are
    #: bit-identical; off is the decompress-then-compute baseline.
    use_compressed_exec: bool = True
    #: Keep filter conjuncts in source order instead of reordering them by
    #: estimated selectivity (baseline mode).
    preserve_filter_order: bool = False
    #: How scans respond to faults: retries, deadline, corruption
    #: quarantine, process → serial degradation.
    fault_policy: FaultPolicy = DEFAULT_FAULT_POLICY
    #: Deterministic fault injection for chaos testing; ``None`` defers to
    #: the ``REPRO_FAULT_PLAN`` environment hook (see :meth:`resolved`).
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        workers = self.workers
        if workers != "auto" and (isinstance(workers, bool)
                                  or not isinstance(workers, int)
                                  or workers < 1):
            raise QueryError(
                f"workers must be an int >= 1 or 'auto', got {workers!r}")

    def resolved(self) -> "ExecutionContext":
        """This context with an unset ``fault_plan`` filled in from
        ``REPRO_FAULT_PLAN``.  The coordinator resolves before it scans or
        ships a spec, so pool workers never consult their own environment."""
        if self.fault_plan is not None:
            return self
        plan = plan_from_env()
        return self if plan is None else replace(self, fault_plan=plan)
