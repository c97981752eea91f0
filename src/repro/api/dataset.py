"""The lazy :class:`Dataset` facade: build a logical plan, collect when ready.

::

    from repro.api import col, dataset

    top5 = (dataset(table, "lineitem")
            .filter((col("ship_date").between(9100, 9200))
                    & ~col("discount").isin([0, 1]))
            .with_column("revenue", col("price") * col("quantity"))
            .group_by("discount")
            .agg(col("revenue").sum().alias("total"), count())
            .sort("total", descending=True)
            .limit(5)
            .collect())

Every method returns a **new** ``Dataset`` whose immutable logical plan is
this one's with one stage appended — nothing executes until
:meth:`Dataset.collect`.  Validation happens
at construction (unknown columns, aggregates outside ``agg()``, ``group_by``
without aggregates), so mistakes surface where they are written.
:meth:`Dataset.explain` shows the optimized plan: per-scan conjunct order
with pushdown classification and zone-map selectivity estimates, derived
expressions evaluated inside the scan, and the pruned materialisation list.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..engine.context import ExecutionContext
from ..errors import QueryError
from ..storage.table import Table
from . import logical
from .expr import Expr, col
from .lower import run_plan
from .optimize import optimize

__all__ = ["Dataset", "GroupedDataset", "dataset"]

IntoExpr = Union[str, Expr]


def _as_expr(value: IntoExpr, what: str) -> Expr:
    if isinstance(value, str):
        return col(value)
    if isinstance(value, Expr):
        return value
    raise QueryError(f"{what} must be a column name or an expression, "
                     f"got {value!r}")


class Dataset:
    """A lazy, immutable view over a stored table (or a composed plan)."""

    def __init__(self, plan: logical.Chain,
                 context: ExecutionContext = ExecutionContext()):
        self._plan = plan
        self._context = context

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_table(table: Table, name: str = "table") -> "Dataset":
        """Wrap a stored :class:`~repro.storage.table.Table`."""
        return Dataset(logical.Chain.over(logical.Scan(table, name)))

    @staticmethod
    def from_result(result, name: str = "result",
                    schemes: Any = "auto") -> "Dataset":
        """Wrap a collected :class:`~repro.engine.query.QueryResult` so it can
        be queried again (it round-trips through the scheme registry)."""
        return Dataset.from_table(result.to_table(schemes=schemes), name)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def schema(self) -> Tuple[str, ...]:
        """Ordered output column names of the current plan."""
        return self._plan.schema

    @property
    def logical_plan(self) -> logical.Chain:
        """The unoptimized logical plan (immutable)."""
        return self._plan

    def optimized_plan(self) -> logical.Chain:
        """Run the optimizer and return the optimized plan."""
        return optimize(self._plan, self._context)

    def __repr__(self) -> str:
        return f"Dataset(schema={list(self.schema)})"

    # ------------------------------------------------------------------ #
    # Plan building
    # ------------------------------------------------------------------ #

    def _then(self, stage: logical.Stage) -> "Dataset":
        return Dataset(self._plan.then(stage), self._context)

    def filter(self, predicate: Expr) -> "Dataset":
        """Keep rows satisfying *predicate* (combine with ``& | ~``)."""
        if not isinstance(predicate, Expr):
            raise QueryError(
                f"filter() takes an expression (e.g. col('x') > 3), "
                f"got {predicate!r}")
        if not predicate.columns():
            # Constant *conjuncts* inside a larger predicate are folded by
            # the optimizer; a whole filter referencing no columns is
            # almost certainly a mistake, so reject it at the API surface.
            raise QueryError(
                f"Filter({predicate!r}): the predicate references no columns "
                "— a constant filter is not supported"
            )
        return self._then(logical.Filter(predicate))

    def select(self, *exprs: IntoExpr) -> "Dataset":
        """Project to the given columns / expressions, in order."""
        parsed = [_as_expr(e, "select() argument") for e in exprs]
        return self._then(logical.Project(parsed))

    def with_column(self, name: str, expr: Expr) -> "Dataset":
        """Append a derived column *name* computed by *expr*."""
        return self._then(logical.WithColumn(name, _as_expr(expr, "with_column()")))

    def group_by(self, *keys: IntoExpr) -> "GroupedDataset":
        """Start a grouped aggregation; follow with ``.agg(...)``."""
        if not keys:
            raise QueryError("group_by() needs at least one key; for scalar "
                             "aggregates use .agg(...) directly")
        parsed = [_as_expr(k, "group_by() key") for k in keys]
        return GroupedDataset(self, parsed)

    def agg(self, *aggregates: Expr) -> "Dataset":
        """Scalar aggregation over all qualifying rows."""
        return self._then(logical.Aggregate((), aggregates))

    def sort(self, *by: IntoExpr,
             descending: Union[bool, Sequence[bool]] = False) -> "Dataset":
        """Stable sort by one or more keys."""
        keys = [_as_expr(k, "sort() key") for k in by]
        if isinstance(descending, bool):
            flags: List[bool] = [descending] * len(keys)
        else:
            flags = list(descending)
        return self._then(logical.Sort(keys, flags))

    def limit(self, count: int) -> "Dataset":
        """Keep the first *count* rows (top-k when stacked on ``sort``)."""
        return self._then(logical.Limit(count))

    def head(self, count: int = 10) -> "Dataset":
        """Alias for :meth:`limit`."""
        return self.limit(count)

    # ------------------------------------------------------------------ #
    # Physical knobs
    # ------------------------------------------------------------------ #

    def _with_context(self, **changes: Any) -> "Dataset":
        return Dataset(self._plan, replace(self._context, **changes))

    def with_backend(self, backend: str,
                     workers: Optional[Union[int, str]] = None) -> "Dataset":
        """Choose the scan execution backend.

        *backend* is ``"serial"`` or ``"process"``.  The process backend
        runs scans on a pool of long-lived worker processes that mmap the
        same packed table file (see :mod:`repro.engine.parallel`) and falls
        back to serial — recorded in ``explain()`` and
        ``ScanResult.backend`` — for tables not backed by a packed file.
        *workers* is the pool's worker count: an int, or ``"auto"`` (the
        default for ``"process"``) for ``min(cpu_count, chunks)`` per scan
        with a serial fallback on tiny tables; ``"serial"`` takes none.
        """
        from ..engine.scan import BACKENDS

        if backend not in BACKENDS:
            raise QueryError(f"unknown execution backend {backend!r}; "
                             f"known: {BACKENDS}")
        if backend == "serial":
            if workers not in (None, 1):
                raise QueryError(f"the serial backend runs on one worker, "
                                 f"got workers={workers!r}")
            workers = 1
        elif workers is None:
            workers = "auto"
        return self._with_context(workers=workers)

    def without_pushdown(self) -> "Dataset":
        """Disable compressed-form pushdown (benchmark baseline mode)."""
        return self._with_context(use_pushdown=False)

    def without_zone_maps(self) -> "Dataset":
        """Disable zone-map chunk skipping (benchmark baseline mode)."""
        return self._with_context(use_zone_maps=False)

    def without_compressed_execution(self) -> "Dataset":
        """Disable compressed-domain aggregates and gathers (baseline mode).

        The same per-range fold runs, but no aggregate, gather or group-codes
        kernel is consulted: every operand is read from decompressed chunk
        values — the decompress-then-compute baseline.  Results are
        bit-identical either way.
        """
        return self._with_context(use_compressed_exec=False)

    def without_optimizer_reordering(self) -> "Dataset":
        """Keep filter conjuncts in source order (benchmark baseline mode)."""
        return self._with_context(preserve_filter_order=True)

    def with_fault_policy(self, on_corruption: Optional[str] = None,
                          on_fault: Optional[str] = None,
                          retries: Optional[int] = None,
                          backoff_s: Optional[float] = None,
                          deadline_s: Optional[float] = None) -> "Dataset":
        """Configure how this dataset's scans respond to faults.

        *on_corruption* is ``"raise"`` (a failed segment digest aborts the
        query with :class:`~repro.errors.CorruptionError`) or
        ``"quarantine"`` (the corrupt chunk range contributes no rows,
        accounted in ``ScanStats.chunks_quarantined``); *on_fault* is
        ``"raise"`` or ``"degrade"`` (fall back process → serial, recording
        the reason in the result's backend string); *retries*
        bounds re-executions of a failed chunk range; *deadline_s* bounds a
        scan's wall clock (:class:`~repro.errors.ScanTimeoutError` on
        expiry).  Unspecified arguments keep the current policy's values —
        see :class:`repro.engine.resilience.FaultPolicy` for defaults.
        """
        changes = {name: value for name, value in (
            ("on_corruption", on_corruption), ("on_fault", on_fault),
            ("retries", retries), ("backoff_s", backoff_s),
            ("deadline_s", deadline_s)) if value is not None}
        return self._with_context(
            fault_policy=replace(self._context.fault_policy, **changes))

    def with_fault_injection(self, plan) -> "Dataset":
        """Inject deterministic faults into this dataset's scans (chaos
        testing) — *plan* is a :class:`repro.engine.resilience.FaultPlan`
        (or a dict of its fields).  Pass ``None`` to clear a previously set
        plan (the ``REPRO_FAULT_PLAN`` environment hook, when set, still
        applies)."""
        from ..engine.resilience import FaultPlan

        if isinstance(plan, dict):
            plan = FaultPlan.from_spec(plan)
        if plan is not None and not isinstance(plan, FaultPlan):
            raise QueryError(
                f"with_fault_injection() expects a FaultPlan, a dict of its "
                f"fields, or None, got {type(plan).__name__}")
        return self._with_context(fault_plan=plan)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def collect(self):
        """Optimize, lower onto the scan scheduler, and execute.

        Returns a :class:`~repro.engine.query.QueryResult`; wrap it back
        into a dataset with :meth:`Dataset.from_result` to query it again.
        """
        return run_plan(self.optimized_plan(), self._context)

    def explain(self, optimized: bool = True) -> str:
        """Render the (optimized, by default) plan as an indented tree: the
        last stage on top, each stage above the one it reads, the scan at
        the bottom."""
        from .lower import aggregate_execution_domains, aggregate_fold_plan

        plan = self.optimized_plan() if optimized else self._plan
        lines: List[str] = []
        fold = None  # the plan of an aggregate folding into the scan (what it gathers)
        for depth, stage in enumerate(reversed(plan.stages)):
            pad = "  " * depth
            lines.append(pad + stage.label())
            reads_scan = depth == len(plan.stages) - 1
            if optimized and reads_scan and isinstance(stage, logical.Aggregate):
                fold = aggregate_fold_plan(plan)
                if isinstance(fold, str):
                    lines.append(f"{pad}  note: materialises its input ({fold})")
                    fold = None
                for label, domain in aggregate_execution_domains(plan, self._context):
                    lines.append(f"{pad}  agg {label} [{domain}]")
        pad = "  " * len(plan.stages)
        if optimized:
            lines.extend(self._render_scan(plan.scan, fold, pad))
        else:
            lines.append(pad + plan.scan.label())
        return "\n".join(lines)

    def _render_scan(self, scan: logical.PScan, fold: Optional[Dict[str, Any]],
                     pad: str) -> List[str]:
        from ..engine.resilience import DEFAULT_FAULT_POLICY
        from ..engine.scan import columns_read_decoded, describe_backend
        from .lower import conjunct_execution_domain

        context = self._context
        conjuncts = [conjunct.expr for conjunct in scan.conjuncts]
        backend = describe_backend(scan.table, conjuncts, context, **(fold or {}))
        outputs = columns_read_decoded(
            scan.materialize if fold is None else fold["materialize"], conjuncts)
        flags = [f"backend={backend}",
                 f"workers={context.workers}",
                 f"pushdown={'on' if context.use_pushdown else 'off'}",
                 f"zone-maps={'on' if context.use_zone_maps else 'off'}"]
        if context.fault_policy != DEFAULT_FAULT_POLICY:
            flags.append(f"fault-policy=[{context.fault_policy.describe()}]")
        if context.fault_plan is not None:
            flags.append("fault-injection=on")
        lines = [f"{pad}{scan.label()} [{', '.join(flags)}]"]
        lines += [f"{pad}  note: {note}" for note in scan.notes]
        for conjunct in scan.conjuncts:
            domain = conjunct_execution_domain(conjunct, scan.table, context, outputs)
            lines.append(f"{pad}  where {conjunct.describe(domain)}")
        lines += [f"{pad}  derive {name} = {expr!r}" for name, expr in scan.derived]
        return lines


class GroupedDataset:
    """The intermediate ``group_by`` state; only ``.agg(...)`` completes it."""

    def __init__(self, parent: Dataset, keys: Sequence[Expr]):
        self._parent = parent
        self._keys = tuple(keys)
        # Validate the keys *now* — this object is a plan under construction.
        known = set(parent.schema)
        for key in self._keys:
            if key.contains_aggregate():
                raise QueryError(
                    f"group_by(): aggregate expressions are not allowed in "
                    f"group_by() keys (got {key!r})"
                )
            for name in key.columns():
                if name not in known:
                    raise QueryError(
                        f"group_by(): key {key!r} references unknown column "
                        f"{name!r}; available: {sorted(known)}"
                    )

    def agg(self, *aggregates: Expr) -> Dataset:
        """Aggregate each group; at least one aggregate expression required."""
        return self._parent._then(logical.Aggregate(self._keys, aggregates))

    def collect(self):
        raise QueryError(
            "group_by() without aggregates cannot execute; call "
            ".agg(col(...).sum(), ...) to complete the aggregation"
        )


def dataset(table: Table, name: str = "table") -> Dataset:
    """Convenience alias for :meth:`Dataset.from_table`."""
    return Dataset.from_table(table, name)
