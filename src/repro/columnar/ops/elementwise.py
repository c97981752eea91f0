"""Element-wise operators (the paper's ``Elementwise(op, a, b)``).

Algorithm 2 of the paper uses two of these: an integer division to map
positions to segment indices, and an addition to re-apply offsets to the
replicated references.  The one binary entry point, :func:`elementwise`,
takes the operation's name, so plans store the operation as data:
``Elementwise(op="//")`` is the division, ``Elementwise(op="<")`` a
comparison producing booleans.

In-place rule of :func:`fused_elementwise`: a region's registers are arrays
that call computed and nobody else sees, so a ``+``/``-``/``*`` instruction
writes into an operand *register* the optimizer marked as read for the last
time and whose dtype and shape are the result's.  A ``("col", …)`` operand —
a plan input or a cached column shared across calls — is never a target.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

import numpy as np

from ...errors import OperatorError
from ..column import Column
from .bitpack import _unpack_bits_values, _zigzag_decode_values
from .movement import replicate_values
from .registry import register_operator

Operand = Union[Column, int, float]

#: Binary operations available to ``Elementwise``.  Values are functions of
#: two NumPy arrays (or array and scalar).
BINARY_OPERATIONS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "//": np.floor_divide,
    "div": np.floor_divide,
    "%": np.mod,
    "min": np.minimum,
    "max": np.maximum,
    "&": np.bitwise_and,
    "|": np.bitwise_or,
    "^": np.bitwise_xor,
    "<<": np.left_shift,
    ">>": np.right_shift,
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

#: Unary operations available to ``ElementwiseUnary``.
UNARY_OPERATIONS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "neg": np.negative,
    "abs": np.abs,
    "not": np.logical_not,
    "sign": np.sign,
    # Round to the nearest integer and cast; used when re-applying integer
    # residuals to a real-valued model prediction (piecewise-linear /
    # polynomial decompression plans).
    "round": lambda a: np.rint(a).astype(np.int64),
    # Zig-zag decoding is element-wise, which lets the plan optimizer fuse a
    # ``ZigZagDecode`` step into an adjacent elementwise chain.
    "zigzag": _zigzag_decode_values,
}


def _operand_values(operand: Operand) -> Union[np.ndarray, int, float]:
    return operand.values if isinstance(operand, Column) else operand


def _check_lengths(left: Operand, right: Operand, op: str) -> None:
    if isinstance(left, Column) and isinstance(right, Column) and len(left) != len(right):
        raise OperatorError(
            f"Elementwise({op!r}) operands must have equal length, "
            f"got {len(left)} and {len(right)}"
        )


@register_operator("Elementwise", None, "apply a named binary operation element-wise",
                   category="elementwise")
def elementwise(op: str, left: Operand, right: Operand,
                name: Optional[str] = None) -> Column:
    """Apply binary operation *op* element-wise to *left* and *right*.

    Either operand may be a scalar, which broadcasts — the paper's plans use
    constant columns instead, and both spellings are equivalent (and tested
    to be).

    >>> from repro.columnar.ops.generate import sequence
    >>> elementwise("+", sequence([1, 2, 3]), sequence([10, 10, 10])).to_pylist()
    [11, 12, 13]
    """
    if op not in BINARY_OPERATIONS:
        raise OperatorError(
            f"unknown elementwise operation {op!r}; "
            f"known operations: {sorted(BINARY_OPERATIONS)}"
        )
    _check_lengths(left, right, op)
    result = BINARY_OPERATIONS[op](_operand_values(left), _operand_values(right))
    if name is None and isinstance(left, Column):
        name = left.name
    return Column.adopt(result, name=name)


@register_operator("ElementwiseUnary", 1, "apply a named unary operation element-wise",
                   category="elementwise")
def elementwise_unary(op: str, operand: Column, name: Optional[str] = None) -> Column:
    """Apply unary operation *op* element-wise."""
    if op not in UNARY_OPERATIONS:
        raise OperatorError(
            f"unknown unary operation {op!r}; known operations: {sorted(UNARY_OPERATIONS)}"
        )
    return Column.adopt(UNARY_OPERATIONS[op](operand.values), name=name or operand.name)


@register_operator("Cast", 1, "cast a column to a target dtype", category="elementwise")
def cast(col: Column, dtype: Any, name: Optional[str] = None) -> Column:
    """``astype`` to *dtype* — the in-plan form of a scheme's restore-cast.

    Cascade plans splice an inner scheme's decompression in front of the
    outer plan; the restore-cast that ``decompress()`` normally applies
    outside the plan must then happen *inside* it (e.g. packed DICT codes
    must reach the outer ``UnpackBits`` as uint8).
    """
    return Column.adopt(col.values.astype(np.dtype(dtype), copy=False), name=name or col.name)


@register_operator("AdjacentDifference", 1,
                   "out[0]=col[0]; out[i]=col[i]-col[i-1] (inverse of PrefixSum)",
                   category="elementwise")
def adjacent_difference(col: Column, name: Optional[str] = None) -> Column:
    """The inverse of an inclusive prefix sum.

    This is the *compression-side* operator of DELTA, and the operator that
    recovers run lengths from run end positions — i.e. the operator whose
    omission turns RLE into RPE (§II-A of the paper).

    >>> from repro.columnar.ops.generate import sequence
    >>> adjacent_difference(sequence([3, 4, 6])).to_pylist()
    [3, 1, 2]
    """
    arr = col.values
    if not np.issubdtype(arr.dtype, np.integer):
        out_dtype = arr.dtype
    elif arr.dtype == np.uint64:
        # result_type(uint64, int64) is float64, which would silently turn
        # an integer column into floats; stay in uint64, where the wrapping
        # subtraction is exactly inverted by a uint64 prefix sum.
        out_dtype = np.uint64
    else:
        out_dtype = np.result_type(arr.dtype, np.int64)
    # Subtract in the output dtype: with a narrower input dtype NumPy would
    # otherwise compute the difference in the input's arithmetic (wrapping
    # e.g. uint8 2-5 to 253) and only then cast.
    arr = arr.astype(out_dtype, copy=False)
    out = np.empty(len(arr), dtype=out_dtype)
    if len(arr):
        out[0] = arr[0]
        np.subtract(arr[1:], arr[:-1], out=out[1:])
    return Column.adopt(out, name=name or col.name)


@register_operator("FusedElementwise", None,
                   "a fused region of element-wise / gather / unpack operations",
                   category="elementwise")
def fused_elementwise(chain, name: Optional[str] = None, **operands) -> Column:
    """Execute a pre-compiled region of fusable operations in one call.

    *chain* is a tuple of instructions produced by the plan optimizer
    (:func:`repro.columnar.compile.optimizer.fuse_elementwise_chains`).
    Instruction ``i`` writes virtual register ``i``; the last register is
    the result.  Instruction forms:

    * ``("binary", op, a, b)`` — a named binary elementwise operation;
    * ``("unary", op, a)`` — a named unary elementwise operation;
    * ``("gather", values, indices)`` — random-access read;
    * ``("replicate", values, each, count)`` — step-function expansion;
    * ``("unpack", packed, width, count, dtype)`` — fixed-width bit unpack.

    An operand reference is ``("reg", i)`` (an earlier register; with a
    third element, ``("reg", i, "dies")``, no later instruction reads it),
    ``("col", slot)`` (a column passed via *operands*), ``("param", key)``
    (a scalar passed via *operands*, typically a resolved ParamRef) or
    ``("lit", value)``.

    The region's intermediates live only as raw NumPy arrays inside this
    one call — nothing is wrapped in a :class:`Column` until the final
    result — which is what removes the per-step materialisation and
    validation cost of the interpreted plan (and allows the module
    docstring's in-place rule).  The optimizer only emits regions for plans
    that are valid as written, so the redundant per-step checks (operand
    lengths) are elided here; a gather past its values, which the data and
    not the plan decides, is still Gather's :class:`OperatorError`.
    """
    registers: list = []

    def resolve(ref):
        kind = ref[0]
        if kind == "reg":
            return registers[ref[1]]
        if kind == "col":
            return operands[ref[1]].values
        if kind == "param":
            return operands[ref[1]]
        return ref[1]  # ("lit", value)

    for instruction in chain:
        kind = instruction[0]
        if kind == "binary":
            op = instruction[1]
            if op not in BINARY_OPERATIONS:
                raise OperatorError(f"unknown fused binary operation {op!r}")
            left, right = resolve(instruction[2]), resolve(instruction[3])
            out = None
            if op in ("+", "-", "*"):  # into a dying register of the result's dtype and shape
                dtype, shape = np.result_type(left, right), np.broadcast(left, right).shape
                out = next((reg for ref, reg in ((instruction[2], left), (instruction[3], right))
                            if ref[2:] and shape and reg.dtype == dtype and reg.shape == shape),
                           None)
            result = BINARY_OPERATIONS[op](left, right, out=out)
        elif kind == "unary":
            op = instruction[1]
            if op not in UNARY_OPERATIONS:
                raise OperatorError(f"unknown fused unary operation {op!r}")
            result = UNARY_OPERATIONS[op](np.asarray(resolve(instruction[2])))
        elif kind == "gather":
            try:  # Gather's bounds check, at the price of NumPy's own
                result = np.asarray(resolve(instruction[1]))[np.asarray(resolve(instruction[2]))]
            except IndexError as error:
                raise OperatorError(f"Gather() indices out of range: {error}") from None
        elif kind == "replicate":
            result = replicate_values(np.asarray(resolve(instruction[1])),
                                      resolve(instruction[2]), resolve(instruction[3]))
        elif kind == "unpack":
            result = _unpack_bits_values(np.asarray(resolve(instruction[1])),
                                         int(resolve(instruction[2])),
                                         int(resolve(instruction[3])),
                                         resolve(instruction[4]))
        else:
            raise OperatorError(f"unknown fused instruction kind {kind!r}")
        registers.append(result)
    if not registers:
        raise OperatorError("FusedElementwise() requires a non-empty chain")
    return Column.adopt(np.asarray(registers[-1]), name=name)

