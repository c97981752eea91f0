"""Operator plans: decompression (and queries) as data.

The paper's key move is to write the decompression of a lightweight scheme
as a short sequence of generic columnar operators (its Algorithms 1 and 2).
Once decompression *is* a plan, the paper's decomposition arguments become
mechanical operations on that plan:

* dropping the **first** steps of a plan (treating their outputs as inputs
  that are stored directly) yields a *weaker-but-cheaper* scheme — this is
  exactly how RPE falls out of RLE (§II-A);
* dropping the **last** steps of a plan yields a *coarse model* of the data —
  this is how the step-function model falls out of FOR (§II-B);
* concatenating plans composes schemes.

This module provides that plan representation: a linear sequence of
:class:`PlanStep` s over named bindings, an evaluator with cost accounting,
and the prefix/suffix surgery used by :mod:`repro.schemes.decomposition`.

Plans are deliberately *linear* (a topologically-ordered list of steps over a
shared namespace of bindings) rather than a nested expression tree: that is
how the paper presents its algorithms, and it makes "drop the first k steps"
well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import PlanError
from .column import Column
from .ops.registry import DEFAULT_REGISTRY, OperatorRegistry


# --------------------------------------------------------------------------- #
# Parameter references: scalars derived from columns at evaluation time
# --------------------------------------------------------------------------- #

class ParamRef:
    """Base class for scalar parameters computed from bound columns.

    Plans frequently need scalars that are only known once data is bound:
    Algorithm 1 materialises a zero column whose length ``n`` is the *last
    element* of the prefix-summed lengths, and a ones column whose length is
    the *length* of another column.  ``ParamRef`` instances stand for such
    scalars inside a step's parameter mapping and are resolved by the
    evaluator.
    """

    def resolve(self, env: Mapping[str, Column]) -> Any:  # pragma: no cover - interface
        raise NotImplementedError

    def references(self) -> Tuple[str, ...]:  # pragma: no cover - interface
        """Binding names this reference depends on."""
        raise NotImplementedError


@dataclass(frozen=True)
class LengthOf(ParamRef):
    """The length of the column bound to *binding* (optionally plus a delta)."""

    binding: str
    delta: int = 0

    def resolve(self, env: Mapping[str, Column]) -> int:
        if self.binding not in env:
            raise PlanError(f"LengthOf({self.binding!r}): binding is not defined")
        return len(env[self.binding]) + self.delta

    def references(self) -> Tuple[str, ...]:
        return (self.binding,)


@dataclass(frozen=True)
class ScalarAt(ParamRef):
    """The scalar value at *index* of the column bound to *binding*.

    Negative indices count from the end, so ``ScalarAt("run_positions", -1)``
    is Algorithm 1's read of the total uncompressed length ``n``.
    """

    binding: str
    index: int = -1

    def resolve(self, env: Mapping[str, Column]) -> Any:
        if self.binding not in env:
            raise PlanError(f"ScalarAt({self.binding!r}): binding is not defined")
        col = env[self.binding]
        if len(col) == 0:
            raise PlanError(f"ScalarAt({self.binding!r}): column is empty")
        return col[self.index]

    def references(self) -> Tuple[str, ...]:
        return (self.binding,)


@dataclass(frozen=True)
class DTypeOf(ParamRef):
    """The dtype of the column bound to *binding* (for dtype-preserving generators)."""

    binding: str

    def resolve(self, env: Mapping[str, Column]) -> np.dtype:
        if self.binding not in env:
            raise PlanError(f"DTypeOf({self.binding!r}): binding is not defined")
        return env[self.binding].dtype

    def references(self) -> Tuple[str, ...]:
        return (self.binding,)


def _param_references(params: Mapping[str, Any]) -> Tuple[str, ...]:
    refs: List[str] = []
    for value in params.values():
        if isinstance(value, ParamRef):
            refs.extend(value.references())
    return tuple(refs)


# --------------------------------------------------------------------------- #
# Plan steps
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PlanStep:
    """One operator application binding a new name.

    Attributes
    ----------
    output:
        The binding name this step defines.
    op:
        Registered operator name (see :data:`repro.columnar.ops.DEFAULT_REGISTRY`).
    column_inputs:
        Mapping from the operator's keyword-argument name to the binding name
        of the column to pass, e.g. ``{"col": "lengths"}`` for ``PrefixSum``.
    params:
        Mapping from keyword-argument name to a scalar value or a
        :class:`ParamRef` resolved at evaluation time.
    """

    output: str
    op: str
    column_inputs: Mapping[str, str] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)

    def dependencies(self) -> Tuple[str, ...]:
        """All binding names this step reads (column inputs and param refs)."""
        return tuple(self.column_inputs.values()) + _param_references(self.params)

    def output_dtype(self, input_dtypes: Mapping[str, Any]) -> Optional[np.dtype]:
        """The dtype this step produces, inferred statically (no evaluation).

        *input_dtypes* maps binding names to the dtypes of this step's column
        inputs; returns ``None`` when the dtype cannot be determined without
        data.  The rules live in :mod:`repro.columnar.plan_types` and are the
        single source of truth shared with :mod:`repro.analysis.intervals`.
        """
        from . import plan_types

        return plan_types.step_output_dtype(self, input_dtypes)

    def describe(self) -> str:
        """A compact, human-readable rendering of the step."""
        cols = ", ".join(f"{k}={v}" for k, v in self.column_inputs.items())
        pars = ", ".join(
            f"{k}={v!r}" if not isinstance(v, ParamRef) else f"{k}={v}"
            for k, v in self.params.items()
        )
        args = ", ".join(p for p in (cols, pars) if p)
        return f"{self.output} <- {self.op}({args})"


# --------------------------------------------------------------------------- #
# Cost accounting
# --------------------------------------------------------------------------- #

@dataclass
class PlanCost:
    """Cost accounting for one plan evaluation.

    The cost model is deliberately simple and hardware-agnostic (the paper's
    claims are about *which operators appear and how much data they touch*,
    not about a particular CPU): every operator invocation contributes its
    input and output element counts, weighted by the operator's
    ``cost_weight`` (random-access movement is weighted higher than
    streaming arithmetic).
    """

    operator_invocations: int = 0
    elements_in: int = 0
    elements_out: int = 0
    bytes_materialized: int = 0
    weighted_cost: float = 0.0
    per_operator: Dict[str, int] = field(default_factory=dict)

    def add(self, op: str, elements_in: int, elements_out: int,
            bytes_out: int, weight: float) -> None:
        """Record one operator invocation."""
        self.operator_invocations += 1
        self.elements_in += elements_in
        self.elements_out += elements_out
        self.bytes_materialized += bytes_out
        self.weighted_cost += weight * (elements_in + elements_out)
        self.per_operator[op] = self.per_operator.get(op, 0) + 1

    def merge(self, other: "PlanCost") -> "PlanCost":
        """Return a new cost combining self and *other*."""
        merged = PlanCost(
            operator_invocations=self.operator_invocations + other.operator_invocations,
            elements_in=self.elements_in + other.elements_in,
            elements_out=self.elements_out + other.elements_out,
            bytes_materialized=self.bytes_materialized + other.bytes_materialized,
            weighted_cost=self.weighted_cost + other.weighted_cost,
            per_operator=dict(self.per_operator),
        )
        for op, n in other.per_operator.items():
            merged.per_operator[op] = merged.per_operator.get(op, 0) + n
        return merged


@dataclass
class EvaluationResult:
    """The outcome of a *detailed* plan evaluation: output, bindings, cost.

    Retaining ``bindings`` pins every intermediate column of the evaluation
    in memory, so this result is only produced by the opt-in
    :meth:`Plan.evaluate_detailed` path (and by the compiled executor's
    ``run_detailed``); the plain :meth:`Plan.evaluate` fast path frees
    intermediates as soon as their last consumer has run and returns only
    the output column.
    """

    output: Column
    bindings: Dict[str, Column]
    cost: PlanCost


# --------------------------------------------------------------------------- #
# The plan itself
# --------------------------------------------------------------------------- #

class Plan:
    """A linear sequence of operator applications over named bindings.

    Parameters
    ----------
    inputs:
        Names of the columns that must be supplied at evaluation time (for a
        decompression plan: the constituent columns of the compressed form).
    steps:
        The operator applications, in execution order.  Each step may only
        reference inputs or outputs of earlier steps.
    output:
        The binding name whose value the plan returns.
    description:
        Optional human-readable description (e.g. "RLE decompression,
        Algorithm 1").
    """

    def __init__(
        self,
        inputs: Sequence[str],
        steps: Sequence[PlanStep],
        output: str,
        description: str = "",
    ):
        self.inputs: Tuple[str, ...] = tuple(inputs)
        self.steps: Tuple[PlanStep, ...] = tuple(steps)
        self.output: str = output
        self.description: str = description
        self.validate()

    # ------------------------------------------------------------------ #
    # Validation and introspection
    # ------------------------------------------------------------------ #

    def validate(self, registry: OperatorRegistry = DEFAULT_REGISTRY) -> None:
        """Check well-formedness: unique bindings, defined references, known ops."""
        defined = set(self.inputs)
        if len(defined) != len(self.inputs):
            raise PlanError(f"duplicate plan input names: {self.inputs}")
        for step in self.steps:
            if step.op not in registry:
                raise PlanError(f"step {step.output!r} uses unknown operator {step.op!r}")
            for dep in step.dependencies():
                if dep not in defined:
                    raise PlanError(
                        f"step {step.output!r} references undefined binding {dep!r}"
                    )
            if step.output in defined:
                raise PlanError(f"binding {step.output!r} is defined more than once")
            defined.add(step.output)
        if self.output not in defined:
            raise PlanError(f"plan output {self.output!r} is never defined")

    def bindings_defined(self) -> Tuple[str, ...]:
        """All binding names, inputs first, then step outputs in order."""
        return self.inputs + tuple(step.output for step in self.steps)

    def step_producing(self, binding: str) -> Optional[PlanStep]:
        """The step that defines *binding*, or ``None`` if it is a plan input."""
        for step in self.steps:
            if step.output == binding:
                return step
        if binding in self.inputs:
            return None
        raise PlanError(f"binding {binding!r} is not defined by this plan")

    def binding_dtypes(self, input_dtypes: Mapping[str, Any]
                       ) -> Dict[str, Optional[np.dtype]]:
        """Statically inferred dtype of every binding (``None`` = unknown).

        *input_dtypes* maps plan-input names to their dtypes; step outputs
        are derived by the per-operator rules in
        :mod:`repro.columnar.plan_types` without evaluating anything.
        """
        from . import plan_types

        return plan_types.binding_dtypes(self, input_dtypes)

    def output_dtype(self, input_dtypes: Mapping[str, Any]) -> Optional[np.dtype]:
        """The statically inferred dtype of the plan output (``None`` = unknown)."""
        return self.binding_dtypes(input_dtypes).get(self.output)

    def operator_counts(self) -> Dict[str, int]:
        """How many times each operator name appears in the plan."""
        counts: Dict[str, int] = {}
        for step in self.steps:
            counts[step.op] = counts.get(step.op, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return (
            f"Plan({self.description or '<unnamed>'!r}, inputs={list(self.inputs)}, "
            f"{len(self.steps)} steps, output={self.output!r})"
        )

    def describe(self) -> str:
        """Multi-line, human-readable rendering of the whole plan."""
        lines = [f"Plan: {self.description or '<unnamed>'}"]
        lines.append(f"  inputs: {', '.join(self.inputs) or '(none)'}")
        for i, step in enumerate(self.steps, start=1):
            lines.append(f"  {i}: {step.describe()}")
        lines.append(f"  return {self.output}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def last_uses(self) -> Dict[str, int]:
        """Liveness: the index of the last step that reads each binding."""
        return {binding: index for index, step in enumerate(self.steps)
                for binding in step.dependencies()}

    def _bound_inputs(self, inputs: Mapping[str, Column]) -> Dict[str, Column]:
        """The environment an evaluation starts from: the declared inputs, checked."""
        env: Dict[str, Column] = {}
        for name in self.inputs:
            if name not in inputs:
                raise PlanError(f"missing plan input {name!r}")
            value = inputs[name]
            if not isinstance(value, Column):
                raise PlanError(f"plan input {name!r} must be a Column, got {type(value)!r}")
            env[name] = value
        return env

    @staticmethod
    def _run_step(step: PlanStep, spec: Any, env: Mapping[str, Column]) -> Column:
        """Invoke *step*'s operator on its bindings in *env*."""
        kwargs: Dict[str, Any] = {arg: env[name] for arg, name in step.column_inputs.items()}
        for arg_name, value in step.params.items():
            kwargs[arg_name] = value.resolve(env) if isinstance(value, ParamRef) else value
        try:
            result = spec.func(**kwargs)
        except TypeError as exc:
            raise PlanError(
                f"step {step.output!r} ({step.op}) could not be invoked: {exc}"
            ) from exc
        if not isinstance(result, Column):
            raise PlanError(f"operator {step.op!r} returned {type(result)!r}, expected Column")
        return result

    def evaluate(
        self,
        inputs: Mapping[str, Column],
        registry: OperatorRegistry = DEFAULT_REGISTRY,
    ) -> Column:
        """Evaluate the plan and return only the output column.

        This is the fast interpreted path: it performs no cost accounting
        and frees every intermediate binding as soon as its last consumer
        has run, so evaluating a plan does not pin all of its intermediates
        in memory at once.  Callers that want the full environment or cost
        accounting opt in via :meth:`evaluate_detailed`; callers that want
        the optimized, cached execution use :mod:`repro.columnar.compile`.
        """
        env = self._bound_inputs(inputs)
        if self.output in env:
            return env[self.output]

        last_use = self.last_uses()  # so intermediates can be freed early
        for index, step in enumerate(self.steps):
            result = env[step.output] = self._run_step(step, registry.get(step.op), env)
            if step.output == self.output:
                return result
            for binding in step.dependencies():
                if last_use.get(binding) == index and binding != self.output:
                    env.pop(binding, None)
        raise PlanError(f"binding {self.output!r} was never computed")

    def evaluate_detailed(
        self,
        inputs: Mapping[str, Column],
        registry: OperatorRegistry = DEFAULT_REGISTRY,
        stop_after: Optional[str] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> EvaluationResult:
        """Evaluate the plan keeping every intermediate binding and cost.

        Parameters
        ----------
        inputs:
            Mapping from input name to :class:`Column`.  Extra keys are
            ignored; missing keys raise :class:`PlanError`.
        stop_after:
            If given, stop once this binding has been computed and return it
            as the output — *partial evaluation*, the executable form of the
            paper's "apply Algorithm 1 sans its first operation".
        weights:
            Per-step cost weights in place of the registry's (compiled plans').
        """
        env = self._bound_inputs(inputs)

        cost = PlanCost()
        target = stop_after if stop_after is not None else self.output
        if target in env:
            return EvaluationResult(output=env[target], bindings=dict(env), cost=cost)

        for index, step in enumerate(self.steps):
            spec = registry.get(step.op)
            elements_in = sum(len(env[binding]) for binding in step.column_inputs.values())
            result = env[step.output] = self._run_step(step, spec, env)
            cost.add(step.op, elements_in, len(result), result.nbytes,
                     weights[index] if weights else spec.cost_weight)
            if step.output == target:
                break
        if target not in env:
            raise PlanError(f"binding {target!r} was never computed")
        return EvaluationResult(output=env[target], bindings=env, cost=cost)

    # ------------------------------------------------------------------ #
    # Decomposition surgery
    # ------------------------------------------------------------------ #

    def required_steps(self, binding: str) -> List[PlanStep]:
        """The minimal, order-preserving subsequence of steps needed to compute *binding*."""
        needed = {binding}
        kept: List[PlanStep] = []
        for step in reversed(self.steps):
            if step.output in needed:
                kept.append(step)
                needed.update(step.dependencies())
        kept.reverse()
        return kept

    def prune(self) -> "Plan":
        """Drop steps whose outputs do not contribute to the plan output."""
        kept = self.required_steps(self.output)
        used = {self.output}
        for step in kept:
            used.update(step.dependencies())
        inputs = tuple(name for name in self.inputs if name in used)
        if len(kept) == len(self.steps) and inputs == self.inputs:
            return self  # nothing to drop (a plan is immutable)
        return Plan(inputs, kept, self.output, description=self.description)

    def truncate_at(self, binding: str, description: str = "") -> "Plan":
        """Return the plan computing *binding* instead of the original output.

        This is "keep only the initial steps": the executable form of reading
        a coarse model off a model+residual scheme (§II-B — keep Algorithm 2's
        replication of references, drop the final addition of offsets).
        """
        if binding not in self.bindings_defined():
            raise PlanError(f"cannot truncate at unknown binding {binding!r}")
        plan = Plan(self.inputs, self.steps, binding,
                    description=description or f"{self.description} [truncated at {binding}]")
        return plan.prune()

    def drop_prefix(self, new_inputs: Sequence[str], description: str = "") -> "Plan":
        """Return the plan with the steps producing *new_inputs* removed.

        The bindings in *new_inputs* become plan inputs: the caller promises
        to store those columns directly instead of computing them.  This is
        "drop the first operation(s)": the executable form of deriving RPE
        from RLE (§II-A — store ``run_positions`` instead of ``lengths`` and
        skip the prefix sum).

        Steps that only contributed to the removed prefix are pruned; original
        inputs that are no longer referenced are dropped.
        """
        new_inputs = tuple(new_inputs)
        defined = set(self.bindings_defined())
        for name in new_inputs:
            if name not in defined:
                raise PlanError(f"cannot treat unknown binding {name!r} as an input")

        promoted = set(new_inputs)
        remaining: List[PlanStep] = [s for s in self.steps if s.output not in promoted]
        # The promoted bindings plus the untouched original inputs form the
        # new input set; prune unreferenced ones afterwards.
        candidate_inputs = tuple(dict.fromkeys(tuple(self.inputs) + new_inputs))
        plan = Plan(
            candidate_inputs,
            remaining,
            self.output,
            description=description or f"{self.description} [prefix dropped: {', '.join(new_inputs)}]",
        )
        return plan.prune()

    def rename_bindings(self, mapping: Mapping[str, str]) -> "Plan":
        """Return a plan with bindings renamed (used when splicing plans together)."""
        def rename(name: str) -> str:
            return mapping.get(name, name)

        def rename_params(params: Mapping[str, Any]) -> Dict[str, Any]:
            out: Dict[str, Any] = {}
            for key, value in params.items():
                if isinstance(value, LengthOf):
                    out[key] = LengthOf(rename(value.binding), value.delta)
                elif isinstance(value, ScalarAt):
                    out[key] = ScalarAt(rename(value.binding), value.index)
                elif isinstance(value, DTypeOf):
                    out[key] = DTypeOf(rename(value.binding))
                else:
                    out[key] = value
            return out

        steps = [
            PlanStep(
                output=rename(step.output),
                op=step.op,
                column_inputs={k: rename(v) for k, v in step.column_inputs.items()},
                params=rename_params(step.params),
            )
            for step in self.steps
        ]
        return Plan(
            [rename(name) for name in self.inputs],
            steps,
            rename(self.output),
            description=self.description,
        )

    @staticmethod
    def spliced_name(binding: str, name: str) -> str:
        """What :meth:`compose_after` renames the inner plan's intermediate *name* to."""
        return f"__{binding}__{name}"

    def compose_after(self, inner: "Plan", binding: str, description: str = "") -> "Plan":
        """Splice *inner* in front of this plan so that it produces *binding*.

        ``outer.compose_after(inner, "x")`` returns a plan in which the input
        ``x`` of the outer plan is computed by the inner plan instead of being
        supplied — this is scheme composition at the plan level: the inner
        plan decompresses a constituent column which the outer plan then
        consumes.

        Bindings of the inner plan are prefixed to avoid collisions, except
        for its inputs (which become inputs of the combined plan) and its
        output (which is renamed to *binding*; an identity inner plan's output
        is an input, which the outer plan then reads in place of *binding*).
        """
        if binding not in self.inputs:
            raise PlanError(
                f"compose_after(): {binding!r} is not an input of the outer plan"
            )
        outer = self
        if inner.output in inner.inputs:  # the identity: the outer reads its input
            outer = self.rename_bindings({binding: inner.output})
        inner_renames = {}
        for name in inner.bindings_defined():
            if name in inner.inputs:
                inner_renames[name] = name
            elif name == inner.output:
                inner_renames[name] = binding
            else:
                inner_renames[name] = self.spliced_name(binding, name)
        renamed_inner = inner.rename_bindings(inner_renames)

        outer_inputs = [name for name in outer.inputs if name != binding]
        combined_inputs = list(dict.fromkeys(list(renamed_inner.inputs) + outer_inputs))
        combined_steps = list(renamed_inner.steps) + list(outer.steps)
        return Plan(
            combined_inputs,
            combined_steps,
            outer.output,
            description=description or f"{inner.description} ∘ {self.description}",
        )


# --------------------------------------------------------------------------- #
# Builder
# --------------------------------------------------------------------------- #

class PlanBuilder:
    """Incremental construction of a :class:`Plan`.

    Example
    -------
    Building the paper's Algorithm 1 looks like::

        b = PlanBuilder(["lengths", "values"], description="RLE decompression")
        b.step("run_positions", "PrefixSum", col="lengths")
        ...
        plan = b.build("decompressed")
    """

    def __init__(self, inputs: Sequence[str], description: str = ""):
        self._inputs = tuple(inputs)
        self._steps: List[PlanStep] = []
        self._description = description
        self._defined = set(self._inputs)

    def step(self, __output: str, __operator: str, **arguments: Any) -> str:
        """Append a step binding ``__output`` to the result of ``__operator``.

        Keyword arguments whose value is the *name of an already-defined
        binding* (a string) are treated as column inputs; everything else
        (ints, floats, dtypes, :class:`ParamRef` instances, operation symbols
        such as ``"+"``) is treated as a scalar parameter.  The two positional
        parameters are name-mangled so they can never collide with an
        operator's own keyword arguments (e.g. ``Elementwise``'s ``op``).
        """
        column_inputs: Dict[str, str] = {}
        params: Dict[str, Any] = {}
        for key, value in arguments.items():
            if isinstance(value, str) and value in self._defined:
                column_inputs[key] = value
            else:
                params[key] = value
        self._steps.append(PlanStep(__output, __operator, column_inputs, params))
        self._defined.add(__output)
        return __output

    def splice(self, plan: Plan) -> str:
        """Append all steps of an existing *plan* to this builder.

        The plan's inputs must already be defined in this builder (either as
        builder inputs or as outputs of earlier steps).  Returns the binding
        name of the spliced plan's output, so the caller can keep building on
        top of it — this is how composite schemes stitch the decompression
        plans of their constituents together.
        """
        for name in plan.inputs:
            if name not in self._defined:
                raise PlanError(
                    f"cannot splice plan {plan.description!r}: input {name!r} "
                    "is not defined in the enclosing builder"
                )
        for step in plan.steps:
            if step.output in self._defined:
                raise PlanError(
                    f"cannot splice plan {plan.description!r}: binding "
                    f"{step.output!r} is already defined"
                )
            self._steps.append(step)
            self._defined.add(step.output)
        return plan.output

    def build(self, output: str) -> Plan:
        """Finalise and validate the plan returning *output*."""
        return Plan(self._inputs, self._steps, output, description=self._description)
