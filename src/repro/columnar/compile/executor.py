"""Compiled-plan executor: liveness-aware evaluation with buffer reuse.

The interpreted evaluator (:meth:`repro.columnar.plan.Plan.evaluate_detailed`)
re-resolves every operator per call, keeps every intermediate binding alive
until the evaluation ends, and re-materialises generated columns (the zeros,
ones and constants at the head of most decompression plans) on every call.

:class:`CompiledPlan` removes all three costs:

* operator specs are resolved once, at compile time;
* a binding-liveness analysis records, per step, which bindings have just
  seen their last consumer — those are dropped from the environment
  immediately, so their buffers can be reclaimed (or reused by NumPy's
  allocator) while the rest of the plan still runs;
* steps that generate content-determined columns (``Zeros``, ``Ones``,
  ``Constant``, ``Iota``) are served from a bounded, process-wide cache of
  immutable columns: every column in this library is read-only, so the same
  zeros column can safely back thousands of chunk decompressions.

A decoded value is written once: operators hand their fresh arrays to the
column they return (:meth:`Column.adopt`), so no step result and no plan
output is copied on the way out, and fused regions compute in place.  With
the optimizer's re-compositions, LINEAR/POLY's ``Iota(n) % l`` is the one
cached subplan left in the registered schemes' packed plans.

Cost accounting and full-binding retention remain available behind explicit
flags, so the fast path pays for neither.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ...errors import PlanError
from ..column import Column
from ..plan import EvaluationResult, ParamRef, Plan, PlanCost
from ..plan_types import step_output_length
from ..ops.registry import DEFAULT_REGISTRY, OperatorRegistry
from .optimizer import DEFAULT_PASSES, deterministic_steps, optimize


# --------------------------------------------------------------------------- #
# Generated-column cache (the executor's buffer-reuse mechanism)
# --------------------------------------------------------------------------- #

#: Operators whose output is fully determined by their (scalar) parameters.
_CACHEABLE_GENERATORS = frozenset(("Zeros", "Ones", "Constant", "Iota"))

#: Cost weights of fused-region instructions, mirroring the registered
#: weights of the operators they were fused from (movement stays expensive:
#: fusion removes materialisation, not random access).
_FUSED_INSTRUCTION_WEIGHTS = {"binary": 1.0, "unary": 1.0, "gather": 2.0,
                              "replicate": 1.5, "unpack": 1.5}


def _fused_cost_weight(params: Tuple[Tuple[str, Any], ...]) -> float:
    """Cost weight of a FusedElementwise step: its most expensive instruction."""
    chain = dict(params).get("chain", ())
    weights = [_FUSED_INSTRUCTION_WEIGHTS.get(instruction[0], 1.0)
               for instruction in chain]
    return max(weights, default=1.0)


def lightest_step_weight(registry: OperatorRegistry = DEFAULT_REGISTRY) -> float:
    """The least cost weight a compiled step can carry, a registered
    operator's or a fused kernel's: what a scheme's cost floor charges for
    each value a step of its plan must touch."""
    return min(1.0, *_FUSED_INSTRUCTION_WEIGHTS.values(),
               *(spec.cost_weight for _, spec in registry.items()))


_GENERATED_CACHE: "OrderedDict[Tuple, Column]" = OrderedDict()
_GENERATED_CACHE_MAX_ENTRIES = 128
_GENERATED_CACHE_MAX_BYTES = 128 * (1 << 20)
_generated_cache_bytes = 0
_generated_cache_hits = 0
_generated_cache_misses = 0
#: Guards the cache's recency order, byte accounting and eviction loop —
#: compiled plans execute concurrently under the chunk-parallel scanner.
_generated_cache_lock = threading.Lock()


def _generated_cache_key(op: str, kwargs: Mapping[str, Any]) -> Optional[Tuple]:
    parts: List[Tuple[str, Any]] = []
    for key, value in kwargs.items():
        if isinstance(value, np.dtype):
            value = value.str
        elif isinstance(value, type) and issubclass(value, np.generic):
            value = np.dtype(value).str
        elif isinstance(value, np.generic):
            value = value.item()
        try:
            hash(value)
        except TypeError:
            return None
        parts.append((key, value))
    return (op, tuple(sorted(parts)))


def _note_cache_hit(key: Tuple) -> None:
    global _generated_cache_hits
    with _generated_cache_lock:
        if key in _GENERATED_CACHE:
            _GENERATED_CACHE.move_to_end(key)
        _generated_cache_hits += 1


def _store_generated(key: Tuple, column: Column) -> None:
    global _generated_cache_bytes, _generated_cache_misses
    with _generated_cache_lock:
        _generated_cache_misses += 1
        previous = _GENERATED_CACHE.get(key)
        if previous is not None:
            _generated_cache_bytes -= previous.nbytes
        _GENERATED_CACHE[key] = column
        _generated_cache_bytes += column.nbytes
        while (_GENERATED_CACHE
               and (len(_GENERATED_CACHE) > _GENERATED_CACHE_MAX_ENTRIES
                    or _generated_cache_bytes > _GENERATED_CACHE_MAX_BYTES)):
            __, evicted = _GENERATED_CACHE.popitem(last=False)
            _generated_cache_bytes -= evicted.nbytes


def _generated_column(op: str, func, kwargs: Dict[str, Any]) -> Column:
    """Serve a generator step from the shared immutable-column cache."""
    key = _generated_cache_key(op, kwargs)
    if key is None:
        return func(**kwargs)
    cached = _GENERATED_CACHE.get(key)
    if cached is not None:
        _note_cache_hit(key)
        return cached
    column = func(**kwargs)
    _store_generated(key, column)
    return column


def generated_column_cache_info() -> Dict[str, int]:
    """Hit/miss/size statistics of the generated-column cache."""
    return {
        "hits": _generated_cache_hits,
        "misses": _generated_cache_misses,
        "entries": len(_GENERATED_CACHE),
        "bytes": _generated_cache_bytes,
    }


def clear_generated_column_cache() -> None:
    """Empty the generated-column cache and reset its statistics."""
    global _generated_cache_bytes, _generated_cache_hits, _generated_cache_misses
    with _generated_cache_lock:
        _GENERATED_CACHE.clear()
        _generated_cache_bytes = 0
        _generated_cache_hits = 0
        _generated_cache_misses = 0


# --------------------------------------------------------------------------- #
# Compiled steps and plans
# --------------------------------------------------------------------------- #

class _CompiledStep:
    """One step with its operator resolved and its liveness effects attached."""

    __slots__ = ("output", "op", "func", "cost_weight", "column_args", "base_kwargs",
                 "ref_args", "release", "is_generator", "det_key")

    def __init__(self, output: str, op: str, func, cost_weight: float,
                 column_args: Tuple[Tuple[str, str], ...],
                 param_args: Tuple[Tuple[str, Any], ...],
                 ref_args: Tuple[Tuple[str, ParamRef], ...],
                 release: Tuple[str, ...], is_generator: bool,
                 det_key: Optional[Tuple] = None):
        self.output = output
        self.op = op
        self.func = func
        self.cost_weight = cost_weight
        self.column_args = column_args
        #: Literal parameters, pre-baked; the hot loop copies this dict once
        #: per step instead of re-inserting each literal.
        self.base_kwargs = dict(param_args)
        self.ref_args = ref_args
        self.release = release
        self.is_generator = is_generator
        #: Structural key of the deterministic (data-independent) subplan
        #: computing this step, or None; see ``optimizer.deterministic_steps``.
        self.det_key = det_key


class CompiledPlan:
    """An optimized, pre-resolved, liveness-annotated executable plan.

    Parameters
    ----------
    plan:
        The plan to compile.  It is optimized with the default rewrite
        pipeline unless ``optimize_plan`` is false.
    registry:
        Operator registry used to resolve step operators (once, here).
    source:
        The uncompiled plan this was derived from, kept for introspection.
    """

    def __init__(self, plan: Plan, registry: OperatorRegistry = DEFAULT_REGISTRY,
                 optimize_plan: bool = True, source: Optional[Plan] = None):
        self.source: Plan = source if source is not None else plan
        self.plan: Plan = optimize(plan, DEFAULT_PASSES) if optimize_plan else plan
        self.registry = registry

        last_use = self.plan.last_uses()
        output = self.plan.output

        det_keys = deterministic_steps(self.plan)
        steps: List[_CompiledStep] = []
        for index, step in enumerate(self.plan.steps):
            spec = registry.get(step.op)
            literal_args: List[Tuple[str, Any]] = []
            ref_args: List[Tuple[str, ParamRef]] = []
            for key, value in step.params.items():
                if isinstance(value, ParamRef):
                    ref_args.append((key, value))
                else:
                    literal_args.append((key, value))
            release = tuple(binding for binding, last in last_use.items()
                            if last == index and binding != output)
            det_key = det_keys.get(step.output)
            literal_tuple = tuple(literal_args)
            cost_weight = (_fused_cost_weight(literal_tuple)
                           if step.op == "FusedElementwise" else spec.cost_weight)
            steps.append(_CompiledStep(
                output=step.output,
                op=step.op,
                func=spec.func,
                cost_weight=cost_weight,
                column_args=tuple(step.column_inputs.items()),
                param_args=literal_tuple,
                ref_args=tuple(ref_args),
                release=release,
                is_generator=(det_key is None
                              and step.op in _CACHEABLE_GENERATORS
                              and not step.column_inputs),
                det_key=det_key,
            ))
        self._steps: Tuple[_CompiledStep, ...] = tuple(steps)
        #: Inputs that no step consumes and that are not the output; they are
        #: never even copied into the evaluation environment.
        self._unused_inputs = frozenset(
            name for name in self.plan.inputs
            if name not in last_use and name != output
        )

    # ------------------------------------------------------------------ #

    def bindings_defined(self) -> Tuple[str, ...]:
        """Bindings of the *optimized* plan (fused intermediates are gone)."""
        return self.plan.bindings_defined()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CompiledPlan({self.plan.description or '<unnamed>'!r}, "
                f"{len(self.source.steps)} -> {len(self.plan.steps)} steps)")

    def weighted_cost(self, lengths: Mapping[str, int]) -> float:
        """``run_detailed(inputs).cost.weighted_cost``, computed: the same
        weights over the same element counts, each step's output length from
        :func:`plan_types.step_output_length`, no operator run.  *lengths* has
        every input's, and any that only the data fixes (a ``Repeat``'s)."""
        if self.plan.output in self.plan.inputs:
            return 0.0
        known = dict(lengths)
        total = 0.0
        for step, compiled in zip(self.plan.steps, self._steps):
            if known.get(step.output) is None:
                known[step.output] = step_output_length(step, known)
            touched = [known.get(name) for name in (*step.column_inputs.values(), step.output)]
            if None in touched:
                raise PlanError(f"no length rule resolves {step.describe()}: add one to plan_types")
            total += compiled.cost_weight * sum(touched)
        return total

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self, inputs: Mapping[str, Column]) -> Column:
        """Evaluate and return only the output column (the fast path)."""
        env: Dict[str, Column] = {}
        unused = self._unused_inputs
        for name in self.plan.inputs:
            if name in unused:
                continue
            try:
                env[name] = inputs[name]
            except KeyError:
                raise PlanError(f"missing plan input {name!r}") from None
        output = self.plan.output
        if output in env:
            return env[output]

        for step in self._steps:
            det_key = step.det_key
            if det_key is not None:
                cached = _GENERATED_CACHE.get(det_key)
                if cached is not None:
                    _note_cache_hit(det_key)
                    env[step.output] = cached
                    if step.release:
                        for dead in step.release:
                            env.pop(dead, None)
                    continue
            kwargs = step.base_kwargs.copy()
            for arg, binding in step.column_args:
                kwargs[arg] = env[binding]
            for arg, ref in step.ref_args:
                kwargs[arg] = ref.resolve(env)
            try:
                if step.is_generator:
                    result = _generated_column(step.op, step.func, kwargs)
                elif det_key is not None:
                    result = step.func(**kwargs)
                    _store_generated(det_key, result)
                else:
                    result = step.func(**kwargs)
            except TypeError as exc:
                raise PlanError(
                    f"step {step.output!r} ({step.op}) could not be invoked: {exc}"
                ) from exc
            env[step.output] = result
            if step.release:
                for dead in step.release:
                    env.pop(dead, None)
        try:
            return env[output]
        except KeyError:
            raise PlanError(f"binding {output!r} was never computed") from None

    def run_detailed(self, inputs: Mapping[str, Column],
                     collect_cost: bool = True,
                     keep_bindings: bool = False) -> EvaluationResult:
        """Evaluate with cost accounting — the optimized plan through
        :meth:`Plan.evaluate_detailed`, every step run and weighed as compiled:
        what :meth:`weighted_cost` is checked against — and opt-in binding
        retention: by default the returned ``bindings`` contain only the
        bindings still live at the end of the plan."""
        result = self.plan.evaluate_detailed(
            inputs, self.registry, weights=[step.cost_weight for step in self._steps])
        if not collect_cost:
            result.cost = PlanCost()
        if not keep_bindings:
            for step in self._steps:
                for dead in step.release:
                    result.bindings.pop(dead, None)
        return result


def compile_plan(plan: Plan, registry: OperatorRegistry = DEFAULT_REGISTRY,
                 optimize_plan: bool = True) -> CompiledPlan:
    """Compile (optimize + resolve + liveness-annotate) *plan*."""
    return CompiledPlan(plan, registry=registry, optimize_plan=optimize_plan,
                        source=plan)
