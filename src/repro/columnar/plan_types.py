"""Static dtype and length inference over plans (no data, no evaluation).

Every operator in :mod:`repro.columnar.ops` has a deterministic output dtype
given its input dtypes and scalar parameters.  This module captures those
rules once, so that :meth:`repro.columnar.plan.Plan.output_dtype`, the
abstract interpreter in :mod:`repro.analysis.intervals`, the optimizer's
folding of ``LengthOf``/``DTypeOf`` references, and any future codegen
backend agree on what a step produces without running it.  The output
*length* has one rule per operator too (:func:`step_output_length`): the
interpreter, the optimizer and the compiled plan's computed cost
(:meth:`~repro.columnar.compile.CompiledPlan.weighted_cost`) read it here.
A ``FusedElementwise`` step has no rules of its own: :func:`fused_steps`
reads its chain back as the steps it fused, and their rules apply.

The rules mirror the kernels exactly — e.g. ``ElementwiseUnary("round")``
casts to int64 because the kernel does, ``AdjacentDifference`` keeps uint64
wrapping, and mixed int64/uint64 elementwise arithmetic promotes to float64
because NumPy's ``result_type`` does.  A rule returns ``None`` when the
dtype cannot be determined statically (e.g. an unresolved ``DTypeOf`` over
an unknown binding); callers must treat ``None`` as "unknown", never as a
default.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from .plan import LengthOf, ParamRef, PlanStep

__all__ = [
    "step_output_dtype",
    "step_output_length",
    "fused_steps",
    "binding_lengths",
    "binding_dtypes",
]


_BOOL_BINARY = frozenset(("==", "!=", "<", "<=", ">", ">="))


def _as_dtype(value: Any) -> Optional[np.dtype]:
    if value is None:
        return None
    try:
        return np.dtype(value)
    except TypeError:
        return None


def _promote(*operands: Any) -> Optional[np.dtype]:
    """``np.result_type`` over dtypes and scalars, ``None`` if any is unknown."""
    resolved = []
    for operand in operands:
        if operand is None:
            return None
        resolved.append(operand)
    try:
        return np.result_type(*resolved)
    except TypeError:
        return None


def _binary_dtype(op: str, left: Any, right: Any) -> Optional[np.dtype]:
    if op in _BOOL_BINARY:
        return np.dtype(np.bool_)
    return _promote(left, right)


def _unary_dtype(op: str, operand: Optional[np.dtype]) -> Optional[np.dtype]:
    if op == "round":
        return np.dtype(np.int64)
    if op == "zigzag":
        return np.dtype(np.int64)
    if op == "not":
        return np.dtype(np.bool_)
    return operand


def _adjacent_difference_dtype(operand: Optional[np.dtype]) -> Optional[np.dtype]:
    if operand is None:
        return None
    if np.issubdtype(operand, np.floating):
        return operand
    if operand == np.dtype(np.uint64):
        return operand  # wrapping subtract, by design
    return _promote(operand, np.dtype(np.int64))


def _first_input(inputs: Mapping[str, Optional[np.dtype]]) -> Optional[np.dtype]:
    for dtype in inputs.values():
        return dtype
    return None


def _dtype_param(params: Mapping[str, Any], default: Any,
                 inputs: Mapping[str, Optional[np.dtype]]) -> Optional[np.dtype]:
    value = params.get("dtype", default)
    # A DTypeOf param ref resolves statically when the referenced binding's
    # dtype is already known.
    if isinstance(value, ParamRef):
        refs = value.references()
        if refs and refs[0] in inputs:
            return inputs[refs[0]]
        return None
    return _as_dtype(value)


def _elementwise_operand(key: str, step_params: Mapping[str, Any],
                         inputs: Mapping[str, Optional[np.dtype]]) -> Any:
    if key in inputs:
        return inputs[key]
    value = step_params.get(key)
    if isinstance(value, ParamRef):
        return None
    return value


_INT64 = np.dtype(np.int64)
_UINT64 = np.dtype(np.uint64)
_BOOL = np.dtype(np.bool_)

# op name -> rule(params, input dtypes keyed by the operator kwarg name)
_RULES: Dict[str, Callable[..., Optional[np.dtype]]] = {
    # generators
    "Constant": lambda p, i: (
        _dtype_param(p, None, i)
        or (_INT64 if isinstance(p.get("value"), (int, np.integer))
            and not isinstance(p.get("value"), (bool, np.bool_))
            else _as_dtype(np.asarray(p.get("value")).dtype)
            if p.get("value") is not None else None)
    ),
    "Zeros": lambda p, i: _dtype_param(p, _INT64, i),
    "Ones": lambda p, i: _dtype_param(p, _INT64, i),
    "Iota": lambda p, i: _dtype_param(p, _INT64, i),
    "Sequence": lambda p, i: (
        _dtype_param(p, None, i)
        if p.get("dtype") is not None
        else np.asarray(p.get("values")).dtype
    ),
    # scans
    "PrefixSum": lambda p, i: _dtype_param(p, _INT64, i),
    "ExclusivePrefixSum": lambda p, i: _dtype_param(p, _INT64, i),
    # movement (dtype-preserving over their value column)
    "PopBack": lambda p, i: i.get("col", _first_input(i)),
    "PushFront": lambda p, i: i.get("col", _first_input(i)),
    "Repeat": lambda p, i: i.get("values", _first_input(i)),
    "Replicate": lambda p, i: i.get("values", _first_input(i)),
    "Gather": lambda p, i: i.get("values", _first_input(i)),
    "Scatter": lambda p, i: i.get("base"),
    # element-wise
    "Elementwise": lambda p, i: _binary_dtype(
        p.get("op", "+"),
        _elementwise_operand("left", p, i),
        _elementwise_operand("right", p, i),
    ),
    "ElementwiseUnary": lambda p, i: _unary_dtype(
        p.get("op", "abs"), i.get("operand", _first_input(i))),
    "AdjacentDifference": lambda p, i: _adjacent_difference_dtype(
        i.get("col", _first_input(i))),
    "Cast": lambda p, i: _dtype_param(p, None, i),
    # bit packing
    "PackBits": lambda p, i: _UINT64,
    "UnpackBits": lambda p, i: _dtype_param(p, _UINT64, i),
    "ZigZagEncode": lambda p, i: _UINT64,
    "ZigZagDecode": lambda p, i: _INT64,
    "VarWidthUnpack": lambda p, i: _UINT64,
    # selections / masks
    "Between": lambda p, i: _BOOL,
    "IsIn": lambda p, i: _BOOL,
    "MaskAnd": lambda p, i: _BOOL,
    "MaskOr": lambda p, i: _BOOL,
    "MaskNot": lambda p, i: _BOOL,
    "RunStartsMask": lambda p, i: _BOOL,
    "Compact": lambda p, i: i.get("col", _first_input(i)),
    # runs / segments
    "RunLengths": lambda p, i: _INT64,
    "RunEndPositions": lambda p, i: _INT64,
    "SearchSorted": lambda p, i: _INT64,
    "RunValues": lambda p, i: i.get("col", _first_input(i)),
    # reductions
    "Count": lambda p, i: _INT64,
    "CountTrue": lambda p, i: _INT64,
    "Min": lambda p, i: _first_input(i),
    "Max": lambda p, i: _first_input(i),
}


def step_output_dtype(step: Any,
                      input_dtypes: Mapping[str, Optional[np.dtype]]
                      ) -> Optional[np.dtype]:
    """The dtype *step* produces given the dtypes of its column inputs.

    *input_dtypes* maps binding names to dtypes (``None`` = unknown); the
    step's ``column_inputs`` are resolved through it.  Returns ``None`` when
    the operator has no registered rule or an operand dtype is unknown.
    """
    if step.op == "FusedElementwise":
        return _through_chain(step, input_dtypes, step_output_dtype)
    rule = _RULES.get(step.op)
    if rule is None:
        return None
    by_arg: Dict[str, Optional[np.dtype]] = {
        arg: input_dtypes.get(binding)
        for arg, binding in step.column_inputs.items()
    }
    dtype = rule(step.params, by_arg)
    return _as_dtype(dtype)


#: op name -> the keyword argument that fixes its output length: a column
#: input (the output is as long as it) or a count parameter (that many values).
#: An operator not listed has a data-dependent (or unstated) length.
_LENGTH_FROM: Dict[str, str] = {
    **dict.fromkeys(("Zeros", "Ones", "Constant", "Iota"), "length"),
    **dict.fromkeys(("Replicate", "UnpackBits"), "count"),
    **dict.fromkeys(("PrefixSum", "ExclusivePrefixSum", "AdjacentDifference", "Cast"), "col"),
    **dict.fromkeys(("ZigZagEncode", "ZigZagDecode", "PopBack", "PushFront", "Between"), "col"),
    "Elementwise": "left",  # "right" if left is a scalar
    "ElementwiseUnary": "operand",
    "Gather": "indices",
    "SearchSorted": "keys",
    "Scatter": "base",
    "VarWidthUnpack": "widths",
}
_LENGTH_CHANGE = {"PopBack": -1, "PushFront": 1}


def step_output_length(step: Any, lengths: Mapping[str, Optional[int]]) -> Optional[int]:
    """How many values *step* produces, given the *lengths* of the bindings it
    reads; ``None`` when that depends on the data (``Repeat``) or is unknown."""

    def count(value: Any) -> Optional[int]:
        if isinstance(value, LengthOf):
            known = lengths.get(value.binding)
            return None if known is None else known + value.delta
        if isinstance(value, (list, tuple, np.ndarray)):  # a Sequence's values
            return int(np.size(value))
        return int(value) if isinstance(value, (int, np.integer)) else None

    if step.op == "FusedElementwise":
        return _through_chain(step, lengths, step_output_length)
    kwarg = _LENGTH_FROM.get(step.op)
    if kwarg == "left" and kwarg not in step.column_inputs:
        kwarg = "right"
    if kwarg in step.column_inputs:
        length = lengths.get(step.column_inputs[kwarg])
    else:
        length = count(step.params.get(kwarg))
    return None if length is None else max(length + _LENGTH_CHANGE.get(step.op, 0), 0)


#: A ``FusedElementwise`` instruction kind -> the operator it computes and
#: that operator's operand slots, in the order the instruction lists them.
FUSED_INSTRUCTIONS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "binary": ("Elementwise", ("left", "right")),
    "unary": ("ElementwiseUnary", ("operand",)),
    "gather": ("Gather", ("values", "indices")),
    "replicate": ("Replicate", ("values", "each", "count")),
    "unpack": ("UnpackBits", ("packed", "width", "count", "dtype")),
}


def fused_steps(step: Any) -> List[PlanStep]:
    """The steps a ``FusedElementwise`` *step* fused, read back from its chain.

    Register ``i`` is the binding ``"<output>#<i>"``, the last one *step*'s
    own output; a ``col`` or ``reg`` operand is a column input, a ``lit`` or
    ``param`` one a parameter (a ``param`` is *step*'s, a ParamRef or the
    value bound for it).  A binary instruction is ``Elementwise``, a unary
    one ``ElementwiseUnary`` (a fused ``ZigZagDecode`` is its ``"zigzag"``).
    """
    chain = step.params.get("chain", ())
    registers = [f"{step.output}#{index}" for index in range(len(chain) - 1)] + [step.output]
    steps = []
    for output, (kind, *operands) in zip(registers, chain):
        op, slots = FUSED_INSTRUCTIONS[kind]
        params: Dict[str, Any] = {}
        if kind in ("binary", "unary"):
            params["op"], *operands = operands
        column_inputs: Dict[str, str] = {}
        for slot, (source, payload, *__) in zip(slots, operands):
            if source in ("col", "reg"):
                column_inputs[slot] = (
                    step.column_inputs[payload] if source == "col" else registers[payload]
                )
            else:
                params[slot] = payload if source == "lit" else step.params.get(payload)
        steps.append(PlanStep(output, op, column_inputs, params))
    return steps


def _through_chain(step: Any, known: Mapping[str, Any], rule: Callable[..., Any]) -> Any:
    """*rule* (:func:`step_output_dtype` or :func:`step_output_length`) over
    the steps a fused *step* fused, given *known* facts of the bindings it
    reads: the fact of its last register."""
    facts = dict(known)
    for inner in fused_steps(step):
        facts[inner.output] = rule(inner, facts)
    return facts.get(step.output)


def binding_lengths(plan: Any, lengths: Mapping[str, Optional[int]]) -> Dict[str, Optional[int]]:
    """Lengths of every binding in *plan*: *lengths* gives its inputs' and any
    that only the data fixes (a ``Repeat``'s), the rules above the rest;
    unknown lengths are ``None``."""
    known = dict(lengths)
    for step in plan.steps:
        if known.get(step.output) is None:
            known[step.output] = step_output_length(step, known)
    return known


def binding_dtypes(plan: Any,
                   input_dtypes: Mapping[str, Any]
                   ) -> Dict[str, Optional[np.dtype]]:
    """Dtypes of every binding in *plan*, inferred from its input dtypes.

    Unknown dtypes propagate as ``None``; plan inputs missing from
    *input_dtypes* are unknown.
    """
    facts: Dict[str, Optional[np.dtype]] = {}
    for name in plan.inputs:
        facts[name] = _as_dtype(input_dtypes.get(name))
    for step in plan.steps:
        facts[step.output] = step_output_dtype(step, facts)
    return facts
