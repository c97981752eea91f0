"""Static dtype inference over plans (no data, no evaluation).

Every operator in :mod:`repro.columnar.ops` has a deterministic output dtype
given its input dtypes and scalar parameters.  This module captures those
rules once, so that :meth:`repro.columnar.plan.Plan.output_dtype`, the
abstract interpreter in :mod:`repro.analysis.intervals`, and any future
codegen backend agree on what a step produces without running it.  The
output *length* has one rule per operator too (:func:`step_output_length`):
the interpreter and the compiled plan's computed cost
(:meth:`~repro.columnar.compile.CompiledPlan.weighted_cost`) read it here.

The rules mirror the kernels exactly — e.g. ``ElementwiseUnary("round")``
casts to int64 because the kernel does, ``AdjacentDifference`` keeps uint64
wrapping, and mixed int64/uint64 elementwise arithmetic promotes to float64
because NumPy's ``result_type`` does.  A rule returns ``None`` when the
dtype cannot be determined statically (e.g. an unresolved ``DTypeOf`` over
an unknown binding); callers must treat ``None`` as "unknown", never as a
default.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

import numpy as np

__all__ = ["step_output_dtype", "step_output_length", "binding_dtypes"]


_BOOL_BINARY = frozenset(("==", "!=", "<", "<=", ">", ">="))
#: The binary operators registered under a name of their own, and their symbol.
NAMED_BINARY = {"Add": "+", "Subtract": "-", "Multiply": "*", "FloorDivide": "//", "Modulo": "%"}


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


def _fused_dtype(params: Mapping[str, Any],
                 inputs: Mapping[str, Optional[np.dtype]]) -> Optional[np.dtype]:
    """Interpret a ``FusedElementwise`` chain symbolically for its dtype."""

    def operand_dtype(ref: Any) -> Any:
        kind, payload = ref[0], ref[1]
        if kind == "col":
            return inputs.get(payload)
        if kind == "reg":
            return registers[payload]
        if kind in ("lit", "param"):
            return payload if kind == "lit" else params.get(payload)
        return None

    registers: list = []
    chain = params.get("chain", ())
    for instruction in chain:
        opcode = instruction[0]
        if opcode == "binary":
            __, op, a, b = instruction
            registers.append(_binary_dtype(op, operand_dtype(a), operand_dtype(b)))
        elif opcode == "unary":
            __, op, a = instruction
            operand = operand_dtype(a)
            registers.append(_unary_dtype(op, _as_dtype(operand)))
        elif opcode in ("gather", "replicate"):
            registers.append(_as_dtype(operand_dtype(instruction[1])))
        elif opcode == "unpack":
            __, __packed, __width, __count, dtype = instruction
            registers.append(_as_dtype(operand_dtype(dtype)))
        else:
            registers.append(None)
    return _as_dtype(registers[-1]) if registers else None


def _first_input(inputs: Mapping[str, Optional[np.dtype]]) -> Optional[np.dtype]:
    for dtype in inputs.values():
        return dtype
    return None


def _dtype_param(params: Mapping[str, Any], default: Any,
                 inputs: Mapping[str, Optional[np.dtype]]) -> Optional[np.dtype]:
    value = params.get("dtype", default)
    # A DTypeOf param ref resolves statically when the referenced binding's
    # dtype is already known; plan_types stays import-light so the check is
    # structural (any ParamRef exposes .references()).
    if hasattr(value, "references"):
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
    if hasattr(value, "references"):
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
    "Sequence": lambda p, i: _dtype_param(p, None, i),
    # scans
    "PrefixSum": lambda p, i: _dtype_param(p, _INT64, i),
    "ExclusivePrefixSum": lambda p, i: _dtype_param(p, _INT64, i),
    "PrefixMax": lambda p, i: _first_input(i),
    "SegmentedPrefixSum": lambda p, i: _INT64,
    # movement (dtype-preserving over their value column)
    "PopBack": lambda p, i: i.get("col", _first_input(i)),
    "PushFront": lambda p, i: i.get("col", _first_input(i)),
    "Head": lambda p, i: i.get("col", _first_input(i)),
    "Tail": lambda p, i: i.get("col", _first_input(i)),
    "Reverse": lambda p, i: i.get("col", _first_input(i)),
    "Take": lambda p, i: i.get("col", _first_input(i)),
    "Repeat": lambda p, i: i.get("values", _first_input(i)),
    "Replicate": lambda p, i: i.get("values", _first_input(i)),
    "Gather": lambda p, i: i.get("values", _first_input(i)),
    "Scatter": lambda p, i: i.get("base"),
    "Concat": lambda p, i: _promote(*i.values()) if i else None,
    # element-wise
    "Elementwise": lambda p, i: _binary_dtype(
        p.get("op", "+"),
        _elementwise_operand("left", p, i),
        _elementwise_operand("right", p, i),
    ),
    "ElementwiseUnary": lambda p, i: _unary_dtype(
        p.get("op", "abs"), i.get("operand", _first_input(i))),
    **{name: (lambda p, i, op=op: _binary_dtype(op, _elementwise_operand("left", p, i),
                                                _elementwise_operand("right", p, i)))
       for name, op in NAMED_BINARY.items()},
    "AdjacentDifference": lambda p, i: _adjacent_difference_dtype(
        i.get("col", _first_input(i))),
    "FusedElementwise": _fused_dtype,
    "Cast": lambda p, i: _dtype_param(p, None, i),
    # bit packing
    "PackBits": lambda p, i: _UINT64,
    "UnpackBits": lambda p, i: _dtype_param(p, _UINT64, i),
    "ZigZagEncode": lambda p, i: _UINT64,
    "ZigZagDecode": lambda p, i: _INT64,
    "VarWidthUnpack": lambda p, i: _UINT64,
    # selections / masks
    "Compare": lambda p, i: _BOOL,
    "Between": lambda p, i: _BOOL,
    "IsIn": lambda p, i: _BOOL,
    "MaskAnd": lambda p, i: _BOOL,
    "MaskOr": lambda p, i: _BOOL,
    "MaskNot": lambda p, i: _BOOL,
    "RunStartsMask": lambda p, i: _BOOL,
    "Compact": lambda p, i: i.get("col", _first_input(i)),
    "PositionsOf": lambda p, i: _INT64,
    # runs / segments
    "RunLengths": lambda p, i: _INT64,
    "RunEndPositions": lambda p, i: _INT64,
    "RunStartPositions": lambda p, i: _INT64,
    "RunIds": lambda p, i: _INT64,
    "SearchSorted": lambda p, i: _INT64,
    "RunValues": lambda p, i: i.get("col", _first_input(i)),
    # reductions
    "Count": lambda p, i: _INT64,
    "CountTrue": lambda p, i: _INT64,
    "CountDistinct": lambda p, i: _INT64,
    "First": lambda p, i: _first_input(i),
    "Last": lambda p, i: _first_input(i),
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
    **dict.fromkeys(("Head", "Tail", "Replicate", "UnpackBits"), "count"),
    **dict.fromkeys(("PrefixSum", "ExclusivePrefixSum", "SegmentedPrefixSum", "PrefixMax",
                     "AdjacentDifference", "Cast", "Reverse", "ZigZagEncode", "ZigZagDecode",
                     "PopBack", "PushFront", "Between"), "col"),
    **dict.fromkeys(("Elementwise", *NAMED_BINARY), "left"),  # "right" if left is a scalar
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
        if hasattr(value, "delta"):  # LengthOf (structural, as in _dtype_param)
            known = lengths.get(value.binding)
            return None if known is None else known + value.delta
        return int(value) if isinstance(value, (int, np.integer)) else None

    if step.op == "FusedElementwise":  # the length of the chain's last register
        registers: list = []
        for opcode, *args in step.params.get("chain", ()):
            if opcode in ("replicate", "unpack"):  # as many as their count says
                kind, payload = args[2][:2]
                registers.append(count(payload if kind == "lit" else step.params.get(payload)))
            else:  # as long as an operand (a scalar has no length); a gather, as its indices
                found = [lengths.get(step.column_inputs.get(ref[1])) if ref[0] == "col"
                         else registers[ref[1]] for ref in args[1:] if ref[0] in ("col", "reg")]
                registers.append(next((n for n in found if n is not None), None))
        return registers[-1] if registers else None
    kwarg = _LENGTH_FROM.get(step.op)
    if kwarg == "left" and kwarg not in step.column_inputs:
        kwarg = "right"
    if kwarg in step.column_inputs:
        length = lengths.get(step.column_inputs[kwarg])
    else:
        length = count(step.params.get(kwarg))
    return None if length is None else max(length + _LENGTH_CHANGE.get(step.op, 0), 0)


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
