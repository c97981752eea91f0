"""The columnar operator algebra.

Importing this package registers every operator in
:data:`repro.columnar.ops.registry.DEFAULT_REGISTRY` and re-exports the
Python callables for direct use.  Plans (:mod:`repro.columnar.plan`) refer to
operators by their registered names.

Operator inventory
------------------

========================  =====================================================
Category                  Operators
========================  =====================================================
generate                  Constant, Zeros, Ones, Iota, Sequence
scan                      PrefixSum, ExclusivePrefixSum
movement                  Gather, Scatter, PopBack, PushFront, Repeat,
                          Replicate
elementwise               Elementwise, ElementwiseUnary, AdjacentDifference,
                          Cast, FusedElementwise
selection                 Compact, Between, IsIn, MaskAnd, MaskOr, MaskNot,
                          CountTrue
runs                      RunStartsMask, RunEndPositions, RunLengths,
                          RunValues, SearchSorted
bitpack                   PackBits, UnpackBits, ZigZagEncode, ZigZagDecode
reduction                 Sum, Min, Max, Count
========================  =====================================================
"""

from .registry import DEFAULT_REGISTRY, OperatorRegistry, OperatorSpec, register_operator
from .generate import constant, zeros, ones, iota, sequence
from .scan import prefix_sum, exclusive_prefix_sum
from .movement import (
    gather,
    scatter,
    pop_back,
    push_front,
    repeat,
    replicate,
)
from .elementwise import (
    elementwise,
    elementwise_unary,
    adjacent_difference,
    BINARY_OPERATIONS,
    UNARY_OPERATIONS,
)
from .selection import (
    compact,
    between,
    is_in,
    mask_and,
    mask_or,
    mask_not,
    count_true,
)
from .runs import (
    run_starts_mask,
    run_end_positions,
    run_lengths,
    run_values,
    search_sorted,
)
from .bitpack import pack_bits, unpack_bits, zigzag_encode, zigzag_decode
from .reduction import sum_, min_, max_, count

__all__ = [
    "DEFAULT_REGISTRY",
    "OperatorRegistry",
    "OperatorSpec",
    "register_operator",
    # generate
    "constant",
    "zeros",
    "ones",
    "iota",
    "sequence",
    # scan
    "prefix_sum",
    "exclusive_prefix_sum",
    # movement
    "gather",
    "scatter",
    "pop_back",
    "push_front",
    "repeat",
    "replicate",
    # elementwise
    "elementwise",
    "elementwise_unary",
    "adjacent_difference",
    "BINARY_OPERATIONS",
    "UNARY_OPERATIONS",
    # selection
    "compact",
    "between",
    "is_in",
    "mask_and",
    "mask_or",
    "mask_not",
    "count_true",
    # runs
    "run_starts_mask",
    "run_end_positions",
    "run_lengths",
    "run_values",
    "search_sorted",
    # bitpack
    "pack_bits",
    "unpack_bits",
    "zigzag_encode",
    "zigzag_decode",
    # reduction
    "sum_",
    "min_",
    "max_",
    "count",
]
