"""Plan optimizer: a pipeline of semantics-preserving rewrite passes.

Each pass maps a :class:`~repro.columnar.plan.Plan` to an equivalent plan —
equivalent in the observational sense: evaluating the optimized plan with
the same inputs yields the same output column (column *names* are metadata
and may differ).  The default pipeline, in order:

1. **dead-step elimination** — drop steps (and inputs) that do not
   contribute to the plan output;
2. **ParamRef constant folding** — replace :class:`LengthOf`/:class:`DTypeOf`
   references with the literals :mod:`~repro.columnar.plan_types`' one rule
   per operator pins, and :class:`ScalarAt` of a generator with its element
   (a generator's content is the one fact the optimizer works out itself);
3. **constant-column scalarisation** — an ``Elementwise`` operand that is a
   statically-constant column (``Constant``/``Zeros``/``Ones``) is replaced
   by the scalar itself, which usually renders the generator step dead;
4. **scan strength reduction** — ``PrefixSum``/``ExclusivePrefixSum`` over a
   generated constant column is an arithmetic sequence, i.e. a single
   ``Iota``; this mechanically turns Algorithm 2's faithful
   ``Constant``/``PrefixSum`` position computation into the cheap ``Iota``
   variant the paper acknowledges as equivalent;
5. **common-subplan elimination** — structurally identical steps (same
   operator, same inputs, same parameters) are computed once; this is what
   deduplicates work when :class:`~repro.schemes.composite.Cascade` splices
   the same inner decompression in front of several consumers;
6. **run-expansion re-composition** — Algorithm 1's
   ``Gather(V, PrefixSum(Scatter(Ones, PopBack(ends), Zeros)))`` idiom is
   the single ``Repeat(V, L)`` operator, with ``L`` the input of
   ``ends = PrefixSum(L)`` (RLE) or ``AdjacentDifference(ends)`` of a stored
   ``ends`` (RPE); the decomposed plan stays the source of truth (and what
   the interpreter runs), the compiled plan re-composes it into the fused
   kernel;
7. **run-domain queries** — a range filter or a gather appended to a run
   expansion moves onto the runs: ``Between(Repeat(V, L))`` is
   ``Repeat(Between(V), L)`` and ``Gather(Repeat(V, L), P)`` a binary search
   of ``P`` in the run ends, so a query on RLE/RPE decompresses nothing;
8. **step-function re-composition** — Algorithm 2's
   ``Gather(V, Iota(n) // l)`` with literal ``n``, ``l`` is the single
   ``Replicate(V, each=l, count=n)`` operator (the paper's STEPFUNCTION), so
   FOR, PFOR, LINEAR and POLY build no position or segment-index column;
9. **element-wise chain fusion** — a linear chain of element-wise steps
   whose intermediates have a single consumer is collapsed into one
   ``FusedElementwise`` step, removing the intermediate materialisations.

The optimizer assumes the input plan is *valid* (it would evaluate without
errors); rewrites may turn a run-time length-mismatch error into a silently
broadcast result, but never change the result of a plan that evaluates
successfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import plan_types
from ..plan import DTypeOf, LengthOf, ParamRef, Plan, PlanStep, ScalarAt
from ..ops.elementwise import BINARY_OPERATIONS, UNARY_OPERATIONS


# --------------------------------------------------------------------------- #
# Structural freezing (shared with the plan cache)
# --------------------------------------------------------------------------- #

def freeze_value(value: Any) -> Any:
    """Convert *value* into a hashable, structurally-comparable form.

    Used to build structural keys for common-subplan elimination and for the
    plan/scheme caches.  ParamRefs are frozen dataclasses and hash already;
    NumPy arrays, dtypes and containers are converted to stable tuples.
    """
    if isinstance(value, ParamRef):
        return value
    if isinstance(value, np.ndarray):
        return ("__ndarray__", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, np.dtype):
        return ("__dtype__", value.str)
    if isinstance(value, type) and issubclass(value, np.generic):
        return ("__dtype__", np.dtype(value).str)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return ("__dict__", tuple(sorted((str(k), freeze_value(v))
                                         for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return ("__seq__", tuple(freeze_value(v) for v in value))
    try:
        hash(value)
    except TypeError:
        return ("__repr__", repr(value))
    return value


def _rename_param(value: Any, mapping: Mapping[str, str]) -> Any:
    """Rewrite the binding a ParamRef points at (as Plan.rename_bindings does for steps)."""
    if isinstance(value, LengthOf):
        return LengthOf(mapping.get(value.binding, value.binding), value.delta)
    if isinstance(value, ScalarAt):
        return ScalarAt(mapping.get(value.binding, value.binding), value.index)
    if isinstance(value, DTypeOf):
        return DTypeOf(mapping.get(value.binding, value.binding))
    return value


def _rewrite_step(step: PlanStep, mapping: Mapping[str, str]) -> PlanStep:
    """Rewrite every binding reference of *step* through *mapping*."""
    return PlanStep(
        output=step.output,
        op=step.op,
        column_inputs={k: mapping.get(v, v) for k, v in step.column_inputs.items()},
        params={k: _rename_param(v, mapping) for k, v in step.params.items()},
    )


# --------------------------------------------------------------------------- #
# Static inference: a generator's content (lengths and dtypes are plan_types')
# --------------------------------------------------------------------------- #

def _literal_int(value: Any) -> Optional[int]:
    if isinstance(value, bool):  # bool is an int subclass; reject it
        return None
    if isinstance(value, (int, np.integer)):
        return int(value)
    return None


def _generator_contents(plan: Plan) -> Dict[str, Tuple[Any, ...]]:
    """What each generator of *plan* whose literals fix it holds, element by
    element: ``("const", value)`` or ``("iota", start, step)``."""
    contents: Dict[str, Tuple[Any, ...]] = {}
    for step in plan.steps:
        params = step.params
        start, stride = params.get("start", 0), params.get("step", 1)
        if step.op in ("Zeros", "Ones"):
            contents[step.output] = ("const", int(step.op == "Ones"))
        elif step.op == "Constant" and not isinstance(params.get("value"), ParamRef):
            contents[step.output] = ("const", params.get("value"))
        elif step.op == "Iota" and not isinstance(start, ParamRef) \
                and not isinstance(stride, ParamRef):
            contents[step.output] = ("iota", start, stride)
    return contents


def _held(value: Any, dtype: Optional[np.dtype]) -> Optional[np.generic]:
    """*value* as a column of *dtype* holds it, or ``None`` when the dtype is
    unknown or cannot hold it (the generator then raises, or wraps, at run time)."""
    if dtype is None:
        return None
    try:
        if dtype.kind in "iu" and not np.iinfo(dtype).min <= value <= np.iinfo(dtype).max:
            return None
        return dtype.type(value)
    except (OverflowError, TypeError, ValueError):
        return None


def _fold_ref(ref: ParamRef, lengths: Mapping[str, Optional[int]],
              dtypes: Mapping[str, Optional[np.dtype]],
              contents: Mapping[str, Tuple[Any, ...]]) -> Any:
    """Fold one ParamRef to a literal when the facts pin it; else return it."""
    if isinstance(ref, LengthOf):
        known = lengths.get(ref.binding)
        return ref if known is None else known + ref.delta
    if isinstance(ref, DTypeOf):
        dtype = dtypes.get(ref.binding)
        return ref if dtype is None else dtype
    if isinstance(ref, ScalarAt):
        length, content = lengths.get(ref.binding), contents.get(ref.binding)
        if length is None or content is None:
            return ref
        index = ref.index if ref.index >= 0 else length + ref.index
        if not 0 <= index < length:
            return ref  # leave the out-of-range error to evaluation time
        value = content[1] if content[0] == "const" else content[1] + content[2] * index
        held = _held(value, dtypes.get(ref.binding))
        return ref if held is None else held.item()  # a Python scalar, as ScalarAt reads
    return ref


# --------------------------------------------------------------------------- #
# Passes
# --------------------------------------------------------------------------- #

def eliminate_dead_steps(plan: Plan) -> Plan:
    """Drop steps and inputs that do not contribute to the plan output."""
    return plan.prune()


def fold_param_refs(plan: Plan) -> Plan:
    """Replace ParamRefs with literals wherever static inference pins them:
    lengths and dtypes by the rules of :mod:`~repro.columnar.plan_types`, a
    generator's elements by its content."""
    refs = [value for step in plan.steps for value in step.params.values()
            if isinstance(value, ParamRef)]
    if not refs:
        return plan
    lengths = plan_types.binding_lengths(plan, {})
    contents = _generator_contents(plan)
    # Dtypes fold a DTypeOf and type the element a ScalarAt reads off a generator.
    dtypes = plan_types.binding_dtypes(plan, {}) if any(
        isinstance(ref, DTypeOf) or ref.references()[0] in contents for ref in refs) else {}
    steps: List[PlanStep] = []
    changed = False
    for step in plan.steps:
        params: Dict[str, Any] = {}
        for key, value in step.params.items():
            folded = (_fold_ref(value, lengths, dtypes, contents)
                      if isinstance(value, ParamRef) else value)
            changed = changed or folded is not value
            params[key] = folded
        steps.append(PlanStep(step.output, step.op, step.column_inputs, params))
    if not changed:
        return plan
    return Plan(plan.inputs, steps, plan.output, description=plan.description)


def scalarize_constant_operands(plan: Plan) -> Plan:
    """Replace constant-column elementwise operands with the scalar itself.

    ``Elementwise(op, x, Constant(c, n))`` computes exactly ``op(x, c)``
    broadcast — so the constant column never needs materialising.  At least
    one column operand is always kept so the output length stays anchored.
    """
    contents = _generator_contents(plan)
    dtypes: Optional[Dict[str, Optional[np.dtype]]] = None  # once a constant operand needs them
    steps: List[PlanStep] = []
    changed = False
    for step in plan.steps:
        if step.op != "Elementwise":
            steps.append(step)
            continue
        column_inputs = dict(step.column_inputs)
        params = dict(step.params)
        for slot in ("left", "right"):
            if len(column_inputs) <= 1:
                break  # keep at least one column operand
            content = contents.get(column_inputs.get(slot, ""))
            if content is None or content[0] != "const":
                continue
            dtypes = plan_types.binding_dtypes(plan, {}) if dtypes is None else dtypes
            dtype = dtypes.get(column_inputs[slot])
            scalar = content[1] if dtype is None else _held(content[1], dtype)
            if scalar is None:
                continue
            del column_inputs[slot]
            params[slot] = scalar
            changed = True
        steps.append(PlanStep(step.output, step.op, column_inputs, params))
    if not changed:
        return plan
    return Plan(plan.inputs, steps, plan.output, description=plan.description)


def reduce_scans_over_generators(plan: Plan) -> Plan:
    """Rewrite prefix sums of generated constant columns into single ``Iota`` s.

    ``PrefixSum(Constant(c, n), initial=i)`` is the arithmetic sequence
    ``i+c, i+2c, ...``; ``ExclusivePrefixSum(Constant(c, n), initial=i)`` is
    ``i, i+c, ...``.  A scan whose ``initial`` is bound at run time stays.
    The paper's Algorithm 2 obtains its position column as the scan of a ones
    column; this pass mechanically reduces that to the equivalent ``Iota``.
    """
    producers = {step.output: step for step in plan.steps}
    contents = _generator_contents(plan)
    steps: List[PlanStep] = []
    changed = False
    for step in plan.steps:
        content = contents.get(step.column_inputs.get("col", ""), ())
        stride = _literal_int(content[1]) if content[:1] == ("const",) else None
        if step.op not in ("PrefixSum", "ExclusivePrefixSum") or stride is None:
            steps.append(step)
            continue
        length = producers[step.column_inputs["col"]].params.get("length")  # literal or ParamRef
        if length is None:
            steps.append(step)
            continue
        initial = step.params.get("initial", 0)
        if isinstance(initial, ParamRef):
            steps.append(step)
            continue
        start: Any = int(initial) + (stride if step.op == "PrefixSum" else 0)
        if stride == 0:
            params: Dict[str, Any] = {"value": start, "length": length}
            if "dtype" in step.params:
                params["dtype"] = step.params["dtype"]
            steps.append(PlanStep(step.output, "Constant", {}, params))
        else:
            params = {"length": length, "start": start, "step": stride}
            if "dtype" in step.params:
                params["dtype"] = step.params["dtype"]
            steps.append(PlanStep(step.output, "Iota", {}, params))
        changed = True
    if not changed:
        return plan
    return Plan(plan.inputs, steps, plan.output, description=plan.description)


def eliminate_common_subplans(plan: Plan) -> Plan:
    """Compute structurally identical steps only once (CSE).

    Two steps are identical when they apply the same operator to the same
    bindings with the same parameters (the cosmetic ``name`` parameter is
    ignored).  Later occurrences are dropped and their consumers rewired to
    the first occurrence — the cross-constituent sharing this enables is
    what the issue calls common-subplan elimination for ``Cascade`` plans.
    """
    rename: Dict[str, str] = {}
    seen: Dict[Any, str] = {}
    steps: List[PlanStep] = []
    for step in plan.steps:
        if rename:
            step = _rewrite_step(step, rename)
        cols = tuple(sorted(step.column_inputs.items()))
        params = tuple(sorted((k, freeze_value(v)) for k, v in step.params.items()
                              if k != "name"))
        key = (step.op, cols, params)
        canonical = seen.get(key)
        if canonical is not None:
            rename[step.output] = canonical
            continue
        seen[key] = step.output
        steps.append(step)
    if not rename:
        return plan
    return Plan(plan.inputs, steps, rename.get(plan.output, plan.output),
                description=plan.description)


def _producer(producers: Mapping[str, PlanStep], step: Optional[PlanStep],
              arg: str, op: str, params: Tuple[str, ...] = ()) -> Optional[PlanStep]:
    """The *op* step feeding *step*'s column input *arg*, if that is what feeds
    it and it carries no parameter beyond *params* (and the cosmetic name)."""
    if step is None:
        return None
    source = producers.get(step.column_inputs.get(arg, ""))
    if source is None or source.op != op or set(source.params) - {"name", *params}:
        return None
    return source


def _is_length_of(value: Any, binding: str, plan: Plan) -> bool:
    """Whether *value* is ``LengthOf(binding)`` or the literal it folds to."""
    return value == LengthOf(binding) or (
        _literal_int(value) is not None
        and value == plan_types.binding_lengths(plan, {}).get(binding))


def recompose_run_expansion(plan: Plan) -> Plan:
    """Rewrite Algorithm 1's run expansion into the fused ``Repeat`` operator.

    The steps ``Gather(V, PrefixSum(Scatter(Ones(|PopBack(ends)|),
    PopBack(ends), Zeros(ends[-1]))))`` mark the first position of every run
    but the first, scan the marks into a per-position run index and gather —
    which, for the strictly increasing run ends of a valid RLE or RPE form,
    is exactly ``Repeat(V, L)`` with ``L`` the run lengths.  Where ``ends``
    is ``PrefixSum(L)`` (RLE) the lengths are that scan's input; where it is
    stored (RPE: Algorithm 1 sans its first operation) they are
    ``AdjacentDifference(ends)``.  (A zero length makes two marks collide,
    and Algorithm 1 then no longer expands runs at all; like the other
    passes, this one preserves the results of valid plans only.)  Only the
    full idiom matches: the marks must be default-dtype ``Ones`` over a
    ``Zeros`` column sized by ``ends``' last element (the ``Ones`` sized by
    ``LengthOf(PopBack(ends))``, or the literal that folds to), and the scanned marks
    must have no other consumer, so the rewrite always retires the
    ``Scatter``.
    """
    producers = {step.output: step for step in plan.steps}
    uses: Dict[str, int] = {plan.output: 1}
    for step in plan.steps:
        for binding in step.dependencies():
            uses[binding] = uses.get(binding, 0) + 1
    steps: List[PlanStep] = []
    changed = False
    for step in plan.steps:
        steps.append(step)
        if step.op != "Gather" or "values" not in step.column_inputs:
            continue
        positions = _producer(producers, step, "indices", "PrefixSum")
        marks = _producer(producers, positions, "col", "Scatter")
        ones = _producer(producers, marks, "values", "Ones", ("length",))
        zeros = _producer(producers, marks, "base", "Zeros", ("length",))
        starts = _producer(producers, marks, "indices", "PopBack")
        if ones is None or zeros is None or starts is None:
            continue
        ends = starts.column_inputs.get("col", "")
        if not _is_length_of(ones.params.get("length"), starts.output, plan) \
                or zeros.params.get("length") != ScalarAt(ends, -1) \
                or uses[positions.output] != 1 or uses[marks.output] != 1:
            continue
        summed = _producer(producers, starts, "col", "PrefixSum")
        if summed is not None:
            lengths = summed.column_inputs["col"]
        else:
            lengths = f"{step.output}__run_lengths"
            steps.insert(-1, PlanStep(lengths, "AdjacentDifference", {"col": ends}, {}))
        steps[-1] = PlanStep(
            step.output, "Repeat",
            {"values": step.column_inputs["values"], "lengths": lengths},
            {key: value for key, value in step.params.items() if key == "name"})
        changed = True
    if not changed:
        return plan
    return Plan(plan.inputs, steps, plan.output, description=plan.description).prune()


def query_runs_in_run_domain(plan: Plan) -> Plan:
    """Move a query step off a run expansion ``Repeat(V, L)`` onto its runs.

    ``Between(Repeat(V, L))`` compares every row of a run with the same
    bounds, so it is ``Repeat(Between(V), L)``: one verdict per run,
    expanded.  ``Gather(Repeat(V, L), P)`` reads each position's run, the
    number of run ends at or below it, so it is ``Gather(V, SearchSorted(ends,
    P, side="right"))`` and no row is expanded; the ends are ``PrefixSum(L)``,
    or, where ``L`` is ``AdjacentDifference(ends)`` (RPE), the stored ends
    themselves.  Both hold for any non-negative lengths, zero included, and a
    position outside the rows stays an error: ``SearchSorted``'s, not
    ``Gather``'s.  An expansion another step still reads stays for it.
    """
    producers = {step.output: step for step in plan.steps}
    steps: List[PlanStep] = []
    for step in plan.steps:
        source = {"Between": "col", "Gather": "values"}.get(step.op, "")
        expansion = _producer(producers, step, source, "Repeat")
        if expansion is None:
            steps.append(step)
            continue
        values, lengths = expansion.column_inputs["values"], expansion.column_inputs["lengths"]
        runs = f"{step.output}__runs"
        if step.op == "Between":
            steps += [PlanStep(runs, "Between", {"col": values}, step.params),
                      PlanStep(step.output, "Repeat", {"values": runs, "lengths": lengths})]
        else:
            differences = _producer(producers, expansion, "lengths", "AdjacentDifference")
            ends = differences.column_inputs["col"] if differences else f"{step.output}__ends"
            if differences is None:
                steps.append(PlanStep(ends, "PrefixSum", {"col": lengths}))
            search = {"col": ends, "keys": step.column_inputs["indices"]}
            steps += [PlanStep(runs, "SearchSorted", search, {"side": "right"}),
                      PlanStep(step.output, "Gather", {"values": values, "indices": runs},
                               step.params)]
    if len(steps) == len(plan.steps):  # every rewrite adds a step
        return plan
    return Plan(plan.inputs, steps, plan.output, description=plan.description).prune()


def recompose_step_function(plan: Plan) -> Plan:
    """Rewrite Algorithm 2's model half into the ``Replicate`` operator.

    ``Gather(V, Elementwise("//", Iota(n), l))`` reads ``V[i // l]`` for every
    ``i < n``: a run expansion with the constant run length ``l``, which is
    ``Replicate(V, each=l, count=n)`` — same values, same refusal of a ``V``
    shorter than ``ceil(n / l)``.  Only the exact idiom matches: a default
    ``Iota`` (no start, step or dtype) of literal length over a literal
    positive integer.  The index column is pruned with its last reader.
    """
    producers = {step.output: step for step in plan.steps}
    steps = list(plan.steps)
    for index, step in enumerate(steps):
        gather = step if step.op == "Gather" and "values" in step.column_inputs else None
        divide = _producer(producers, gather, "indices", "Elementwise", ("op", "right"))
        iota = _producer(producers, divide, "left", "Iota", ("length", "start", "step"))
        if iota is None or divide.params["op"] != "//" \
                or (iota.params.get("start", 0), iota.params.get("step", 1)) != (0, 1):
            continue
        each = _literal_int(divide.params.get("right"))
        count = _literal_int(iota.params.get("length"))
        if each is not None and count is not None and each >= 1 and count >= 0:
            params = {key: value for key, value in step.params.items() if key == "name"}
            steps[index] = PlanStep(step.output, "Replicate",
                                    {"values": step.column_inputs["values"]},
                                    {"each": each, "count": count, **params})
    if steps == list(plan.steps):
        return plan
    return Plan(plan.inputs, steps, plan.output, description=plan.description).prune()


# --------------------------------------------------------------------------- #
# Deterministic (data-independent) subplan analysis
# --------------------------------------------------------------------------- #

def deterministic_steps(plan: Plan) -> Dict[str, Tuple]:
    """Bindings whose value is a pure function of literal parameters.

    A step is *deterministic* when every column input is itself
    deterministic and no parameter is a ParamRef — its output is identical
    on every evaluation, regardless of the bound input data.  (All
    registered operators are pure functions.)  Returns a mapping from each
    deterministic binding to a structural key identifying the subplan that
    computes it; the executor uses the key to serve such steps from the
    process-wide column cache — e.g. the in-segment position column
    ``Iota(n) % l`` of LINEAR is computed once, then shared by every chunk
    with the same shape.
    """
    keys: Dict[str, Tuple] = {}
    for step in plan.steps:
        if any(isinstance(value, ParamRef) for value in step.params.values()):
            continue
        child_keys = []
        for arg, binding in sorted(step.column_inputs.items()):
            child = keys.get(binding)
            if child is None:
                break
            child_keys.append((arg, child))
        else:
            keys[step.output] = (
                "det", step.op,
                tuple(sorted((k, freeze_value(v)) for k, v in step.params.items()
                             if k != "name")),
                tuple(child_keys),
            )
    return keys


# --------------------------------------------------------------------------- #
# Elementwise region fusion
# --------------------------------------------------------------------------- #

#: A fusable operator -> its instruction kind and operand slots in kernel
#: order: the table :func:`~repro.columnar.plan_types.fused_steps` reads a
#: chain back by, and ``ZigZagDecode``, the unary ``"zigzag"``.  A movement
#: operator is fusable when its first slot is a column.
_FUSABLE: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    **{op: (kind, slots) for kind, (op, slots) in plan_types.FUSED_INSTRUCTIONS.items()},
    "ZigZagDecode": ("unary", ("col",)),
}


def _fusable_kind(step: PlanStep) -> Optional[Tuple[str, Optional[str]]]:
    """(instruction kind, operation symbol or ``None``) when *step* is fusable."""
    kind, slots = _FUSABLE.get(step.op, (None, ()))
    if kind in ("binary", "unary"):
        symbol = "zigzag" if step.op == "ZigZagDecode" else step.params.get("op")
        known = BINARY_OPERATIONS if kind == "binary" else UNARY_OPERATIONS
        return (kind, symbol) if isinstance(symbol, str) and symbol in known else None
    if kind is not None and slots[0] in step.column_inputs:
        return (kind, None)
    return None


def _fusable_operands(step: PlanStep) -> List[Tuple[Any, bool]]:
    """The (value, is_column) operands of a fusable step, in kernel order."""
    slots = _FUSABLE[step.op][1]
    operands: List[Tuple[Any, bool]] = []
    for slot in slots:
        if slot in step.column_inputs:
            operands.append((step.column_inputs[slot], True))
        elif slot == "dtype":
            operands.append((np.dtype(step.params.get("dtype", np.uint64)), False))
        else:
            operands.append((step.params.get(slot), False))
    return operands


def fuse_elementwise_chains(plan: Plan) -> Plan:
    """Collapse fusable regions into single ``FusedElementwise`` kernels.

    A *region* is a connected set of fusable steps (the operators of
    ``_FUSABLE``) in which every internal binding is consumed only inside
    the region (and is neither the plan output nor referenced by any
    ParamRef).  The whole region becomes one ``FusedElementwise`` step —
    a small register program — so chain intermediates like
    ``b ← f(a); c ← g(b, d)`` and DAG shapes like ``c ← g(f(a), f(a))`` are
    computed without materialising or validating the intermediates.
    Deterministic steps (see :func:`deterministic_steps`) are left outside
    regions: the executor serves those from its column cache, which beats
    recomputing them inside a kernel.
    """
    steps = plan.steps
    det = deterministic_steps(plan)
    index_of = {step.output: i for i, step in enumerate(steps)}
    consumers: Dict[str, set] = {}
    ref_used: set = set()
    for index, step in enumerate(steps):
        for binding in step.column_inputs.values():
            consumers.setdefault(binding, set()).add(index)
        for value in step.params.values():
            if isinstance(value, ParamRef):
                ref_used.update(value.references())

    def eligible(index: int) -> bool:
        step = steps[index]
        return _fusable_kind(step) is not None and step.output not in det

    claimed: set = set()
    regions: List[List[int]] = []
    for sink in reversed(range(len(steps))):
        if sink in claimed or not eligible(sink):
            continue
        region = {sink}
        changed = True
        while changed:
            changed = False
            for member in list(region):
                for binding in steps[member].column_inputs.values():
                    producer = index_of.get(binding)
                    if producer is None or producer in region or producer in claimed:
                        continue
                    if not eligible(producer):
                        continue
                    output = steps[producer].output
                    if output == plan.output or output in ref_used:
                        continue
                    if not consumers.get(output, set()) <= region:
                        continue
                    region.add(producer)
                    changed = True
        if len(region) >= 2:
            ordered = sorted(region)
            regions.append(ordered)
            claimed |= region

    if not regions:
        return plan

    fused_steps: Dict[int, PlanStep] = {}  # sink index -> fused step
    dropped: set = set()
    for ordered in regions:
        instructions: List[Tuple[Any, ...]] = []
        column_inputs: Dict[str, str] = {}
        params: Dict[str, Any] = {}
        slot_of_binding: Dict[str, str] = {}
        register_of: Dict[str, int] = {}
        name: Optional[str] = None

        def operand_ref(value: Any, is_column: bool) -> Tuple[Any, ...]:
            if is_column:
                register = register_of.get(value)
                if register is not None:
                    return ("reg", register)
                slot = slot_of_binding.get(value)
                if slot is None:
                    slot = f"c{len(slot_of_binding)}"
                    slot_of_binding[value] = slot
                    column_inputs[slot] = value
                return ("col", slot)
            if isinstance(value, ParamRef):
                key = f"p{len(params)}"
                params[key] = value
                return ("param", key)
            return ("lit", value)

        for register, member in enumerate(ordered):
            step = steps[member]
            kind, symbol = _fusable_kind(step)
            refs = tuple(operand_ref(value, is_column)
                         for value, is_column in _fusable_operands(step))
            if kind in ("binary", "unary"):
                instructions.append((kind, symbol) + refs)
            else:
                instructions.append((kind,) + refs)
            register_of[step.output] = register
            literal_name = step.params.get("name")
            if isinstance(literal_name, str):
                name = literal_name

        # The last read of each register is marked: the kernel may write there.
        last_read = {ref: at for at, instruction in enumerate(instructions)
                     for ref in instruction if ref[:1] == ("reg",)}
        params["chain"] = tuple(
            tuple(ref + ("dies",) if ref[:1] == ("reg",) and last_read[ref] == at else ref
                  for ref in instruction)
            for at, instruction in enumerate(instructions))
        if name is not None:
            params["name"] = name
        sink = ordered[-1]
        fused_steps[sink] = PlanStep(steps[sink].output, "FusedElementwise",
                                     column_inputs, params)
        dropped.update(ordered[:-1])

    new_steps: List[PlanStep] = []
    for index, step in enumerate(steps):
        if index in fused_steps:
            new_steps.append(fused_steps[index])
        elif index not in dropped:
            new_steps.append(step)
    return Plan(plan.inputs, new_steps, plan.output, description=plan.description)


# --------------------------------------------------------------------------- #
# The pipeline
# --------------------------------------------------------------------------- #

#: The default pass pipeline, in application order.
DEFAULT_PASSES: Tuple[Any, ...] = (
    eliminate_dead_steps,
    fold_param_refs,
    scalarize_constant_operands,
    reduce_scans_over_generators,
    eliminate_common_subplans,
    recompose_run_expansion,
    query_runs_in_run_domain,
    recompose_step_function,
    fuse_elementwise_chains,
    eliminate_dead_steps,
)


@dataclass
class OptimizationReport:
    """What the optimizer did to one plan (for benchmarks and debugging)."""

    original_steps: int
    optimized_steps: int
    passes: List[Tuple[str, int, int]] = field(default_factory=list)

    @property
    def steps_removed(self) -> int:
        return self.original_steps - self.optimized_steps


def optimize(plan: Plan, passes: Sequence[Any] = DEFAULT_PASSES) -> Plan:
    """Run the rewrite-pass pipeline over *plan* and return the result."""
    for rewrite in passes:
        plan = rewrite(plan)
    return plan


def optimize_with_report(plan: Plan,
                         passes: Sequence[Any] = DEFAULT_PASSES
                         ) -> Tuple[Plan, OptimizationReport]:
    """Like :func:`optimize`, also reporting each pass's step-count effect."""
    report = OptimizationReport(original_steps=len(plan.steps),
                                optimized_steps=len(plan.steps))
    for rewrite in passes:
        before = len(plan.steps)
        plan = rewrite(plan)
        report.passes.append((rewrite.__name__, before, len(plan.steps)))
    report.optimized_steps = len(plan.steps)
    return plan, report
