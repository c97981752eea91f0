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
scan                      PrefixSum, ExclusivePrefixSum, PrefixMax,
                          SegmentedPrefixSum
movement                  Gather, Scatter, PopBack, PushFront, Head, Tail,
                          Reverse, Repeat, Replicate, Concat, Take
elementwise               Elementwise, ElementwiseUnary, AdjacentDifference,
                          Cast, FusedElementwise
selection                 Compact, PositionsOf, Between, IsIn, MaskAnd, MaskOr,
                          MaskNot, CountTrue
runs                      RunStartsMask, RunStartPositions, RunEndPositions,
                          RunLengths, RunValues, RunIds, SearchSorted
bitpack                   PackBits, UnpackBits, ZigZagEncode, ZigZagDecode
reduction                 Sum, Min, Max, Count, CountDistinct, Last, First, Mean
========================  =====================================================
"""

from .registry import DEFAULT_REGISTRY, OperatorRegistry, OperatorSpec, register_operator
from .generate import constant, zeros, ones, iota, sequence
from .scan import prefix_sum, exclusive_prefix_sum, prefix_max, segmented_prefix_sum
from .movement import (
    gather,
    scatter,
    pop_back,
    push_front,
    head,
    tail,
    reverse,
    repeat,
    replicate,
    concat,
    take,
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
    positions_of,
    between,
    is_in,
    mask_and,
    mask_or,
    mask_not,
    count_true,
)
from .runs import (
    run_starts_mask,
    run_start_positions,
    run_end_positions,
    run_lengths,
    run_values,
    run_ids,
    search_sorted,
    count_runs,
    runs_of,
)
from .bitpack import pack_bits, unpack_bits, zigzag_encode, zigzag_decode
from .reduction import (
    sum_,
    min_,
    max_,
    count,
    count_distinct,
    last,
    first,
    mean,
    scalar_sum,
    scalar_min,
    scalar_max,
    scalar_count_distinct,
)

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
    "prefix_max",
    "segmented_prefix_sum",
    # movement
    "gather",
    "scatter",
    "pop_back",
    "push_front",
    "head",
    "tail",
    "reverse",
    "repeat",
    "replicate",
    "concat",
    "take",
    # elementwise
    "elementwise",
    "elementwise_unary",
    "adjacent_difference",
    "BINARY_OPERATIONS",
    "UNARY_OPERATIONS",
    # selection
    "compact",
    "positions_of",
    "between",
    "is_in",
    "mask_and",
    "mask_or",
    "mask_not",
    "count_true",
    # runs
    "run_starts_mask",
    "run_start_positions",
    "run_end_positions",
    "run_lengths",
    "run_values",
    "run_ids",
    "search_sorted",
    "count_runs",
    "runs_of",
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
    "count_distinct",
    "last",
    "first",
    "mean",
    "scalar_sum",
    "scalar_min",
    "scalar_max",
    "scalar_count_distinct",
]
