"""Compiled-plan caches keyed by structural signatures.

Two levels of caching make "optimize once, execute everywhere" hold across
the whole stack:

* the **plan cache** maps a plan's *structural signature* — inputs, output,
  and every step's (operator, bindings, parameters) — to its
  :class:`~repro.columnar.compile.executor.CompiledPlan`.  Rebuilding the
  same plan object (as ``CompressionScheme.decompression_plan`` does per
  call) therefore costs one signature computation, not a re-optimization;
* the **scheme cache** sits above it and maps a *scheme structural
  signature* (scheme class + configuration + the form parameters its plan
  depends on) straight to the compiled plan, skipping plan construction
  entirely.  All chunks of a stored column encoded with the same scheme
  share one compiled plan through this cache.

Both caches are process-wide, bounded (FIFO eviction), thread-safe
(callers may run scans from several threads of their own, all compiling
and reading through them), and assume the default operator registry; callers using a custom
registry should compile explicitly via
:func:`~repro.columnar.compile.executor.compile_plan`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from ..plan import Plan
from ..ops.registry import DEFAULT_REGISTRY, OperatorRegistry
from .executor import CompiledPlan, compile_plan
from .optimizer import freeze_value


def plan_signature(plan: Plan) -> Tuple:
    """A hashable key identifying the plan's structure (not its description)."""
    return (
        plan.inputs,
        plan.output,
        tuple(
            (step.output, step.op,
             tuple(sorted(step.column_inputs.items())),
             tuple(sorted((key, freeze_value(value))
                          for key, value in step.params.items())))
            for step in plan.steps
        ),
    )


class PlanCompileCache:
    """A bounded structural-signature → :class:`CompiledPlan` cache."""

    def __init__(self, registry: OperatorRegistry = DEFAULT_REGISTRY,
                 max_entries: int = 512):
        self.registry = registry
        self.max_entries = max_entries
        self._plans: "OrderedDict[Tuple, CompiledPlan]" = OrderedDict()
        self._schemes: "OrderedDict[Tuple, CompiledPlan]" = OrderedDict()
        self.plan_hits = 0
        self.plan_misses = 0
        self.scheme_hits = 0
        self.scheme_misses = 0
        #: Reentrant: ``compiled_for_scheme`` takes it and then calls
        #: ``compiled`` which takes it again.  Compilation happens inside the
        #: lock, so two threads racing on a cold key compile once.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #

    def _store(self, cache: "OrderedDict[Tuple, CompiledPlan]", key: Tuple,
               compiled: CompiledPlan) -> None:
        cache[key] = compiled
        while len(cache) > self.max_entries:
            cache.popitem(last=False)

    def compiled(self, plan: Plan) -> CompiledPlan:
        """The compiled form of *plan*, compiling on first sight."""
        key = plan_signature(plan)
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self.plan_hits += 1
                return cached
            self.plan_misses += 1
            compiled = compile_plan(plan, registry=self.registry)
            self._store(self._plans, key, compiled)
            return compiled

    def compiled_for_key(self, key: Optional[Tuple], build: Callable[[], Plan]) -> CompiledPlan:
        """The compiled plan kept under the structural *key*, compiling
        ``build()`` on first sight; without a key (``None``) the plan is
        rebuilt and cached by its signature only."""
        if key is None:
            return self.compiled(build())
        with self._lock:
            cached = self._schemes.get(key)
            if cached is not None:
                self.scheme_hits += 1
                return cached
            self.scheme_misses += 1
            compiled = self.compiled(build())
            self._store(self._schemes, key, compiled)
            return compiled

    def compiled_for_scheme(self, scheme, form) -> CompiledPlan:
        """The compiled decompression plan for *form* under *scheme*, keyed by
        ``scheme.plan_cache_key(form)`` (see :meth:`compiled_for_key`)."""
        return self.compiled_for_key(scheme.plan_cache_key(form),
                                     lambda: scheme.decompression_plan(form))

    # ------------------------------------------------------------------ #

    def info(self) -> Dict[str, int]:
        """Hit/miss/size statistics of both cache levels."""
        with self._lock:
            return {
                "plan_hits": self.plan_hits,
                "plan_misses": self.plan_misses,
                "plan_entries": len(self._plans),
                "scheme_hits": self.scheme_hits,
                "scheme_misses": self.scheme_misses,
                "scheme_entries": len(self._schemes),
            }

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._schemes.clear()
            self.plan_hits = self.plan_misses = 0
            self.scheme_hits = self.scheme_misses = 0


#: The process-wide cache used by the scheme, storage and engine layers.
GLOBAL_CACHE = PlanCompileCache()


def compiled_plan(plan: Plan) -> CompiledPlan:
    """Compile *plan* through the process-wide cache."""
    return GLOBAL_CACHE.compiled(plan)


def compiled_plan_for_key(key: Optional[Tuple], build: Callable[[], Plan]) -> CompiledPlan:
    """The plan kept under *key* in the process-wide cache, compiled from
    ``build()`` on first sight (a query plan's, :mod:`repro.engine.kernels`)."""
    return GLOBAL_CACHE.compiled_for_key(key, build)


def compiled_plan_for_scheme(scheme, form) -> CompiledPlan:
    """Compiled decompression plan for (scheme, form), through both cache levels."""
    return GLOBAL_CACHE.compiled_for_scheme(scheme, form)


def cache_info() -> Dict[str, int]:
    """Statistics of the process-wide compile cache."""
    return GLOBAL_CACHE.info()


def clear_caches() -> None:
    """Empty the process-wide compile cache (used by tests and benchmarks)."""
    GLOBAL_CACHE.clear()
