"""Property-based tests (hypothesis): what the write-once decode path must never do.

Operator outputs are adopted, not copied (:meth:`Column.adopt`), fused
regions overwrite registers in place, and compiled plans share cached
columns across runs.  None of that may ever show: a result is read-only,
running an operator or a compiled plan leaves every input byte as it was,
and a second run on the same inputs gives the same answer (an in-place
write into a plan input or a shared cached column breaks one of the two).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import Column
from repro.columnar import ops
from repro.columnar.compile import clear_caches, clear_generated_column_cache
from repro.columnar.ops import DEFAULT_REGISTRY
from repro.schemes import Cascade
from repro.schemes.registry import SCHEME_FACTORIES, make_scheme
from repro.schemes.varwidth import var_width_pack

SMALL = st.lists(st.integers(min_value=0, max_value=63), min_size=2, max_size=200).map(
    lambda xs: np.array(xs, dtype=np.int64))

_FUSED_CHAIN = (
    ("unpack", ("col", "packed"), ("lit", 6), ("param", "n"), ("lit", np.dtype(np.int64))),
    ("replicate", ("col", "a"), ("lit", 1), ("param", "n")),
    ("binary", "+", ("reg", 1, "dies"), ("reg", 0)),  # into reg 1; reg 0 is read again
    ("binary", "*", ("reg", 2, "dies"), ("col", "a")),  # "a" is an input: never a target
    ("binary", "-", ("reg", 0, "dies"), ("reg", 3, "dies")),
)


def operator_calls(values: np.ndarray):
    """One valid ``(column arguments, parameters)`` per registered operator."""
    n = len(values)
    col = Column(values)
    mask = Column(values % 2 == 0)
    index = Column(values % n)
    packed = ops.pack_bits(col, 6)
    data, widths = var_width_pack(values.astype(np.uint64))
    one = lambda **params: ((col,), params)
    return {
        "Constant": ((), {"value": 7, "length": n}),
        "Zeros": ((), {"length": n}),
        "Ones": ((), {"length": n}),
        "Iota": ((), {"length": n}),
        "Sequence": ((), {"values": values.tolist()}),
        "PrefixSum": one(), "ExclusivePrefixSum": one(initial=3),
        "Gather": ((col, index), {}),
        "Scatter": ((col, index, col), {}),
        "PopBack": one(), "PushFront": one(value=3),
        "Repeat": ((col, Column(values % 3)), {}),
        "Replicate": one(each=2, count=2 * n - 1),
        "Elementwise": ((), {"op": "*", "left": col, "right": col}),
        "ElementwiseUnary": ((), {"op": "neg", "operand": col}),
        "Cast": one(dtype=np.int32), "AdjacentDifference": one(),
        "FusedElementwise": ((), {"chain": _FUSED_CHAIN, "a": col, "packed": packed, "n": n}),
        "Compact": ((col, mask), {}),
        "Between": one(lo=3, hi=40), "IsIn": one(candidates=[1, 2, 3]),
        "MaskAnd": ((mask, mask), {}), "MaskOr": ((mask, mask), {}),
        "MaskNot": ((mask,), {}), "CountTrue": ((mask,), {}),
        "RunStartsMask": one(), "RunEndPositions": one(),
        "RunLengths": one(), "RunValues": one(),
        "SearchSorted": ((Column(np.arange(1, n + 1)), index), {"side": "right"}),
        "PackBits": one(width=6), "UnpackBits": ((packed,), {"width": 6, "count": n}),
        "ZigZagEncode": one(), "ZigZagDecode": ((Column(values.astype(np.uint64)),), {}),
        "VarWidthUnpack": ((Column(data), Column(widths)), {}),
        "Sum": one(), "Min": one(), "Max": one(), "Count": one(),
    }


def _columns(args, params):
    return [c for c in (*args, *params.values()) if isinstance(c, Column)]


def _same(a: Column, b: Column) -> bool:
    return a.dtype == b.dtype and np.array_equal(a.values, b.values)


def test_every_registered_operator_has_a_call():
    assert sorted(operator_calls(np.arange(4))) == DEFAULT_REGISTRY.names()


@pytest.mark.parametrize("name", DEFAULT_REGISTRY.names())
@given(values=SMALL)
@settings(max_examples=20, deadline=None)
def test_operator_results_are_frozen_and_inputs_untouched(name, values):
    args, params = operator_calls(values)[name]
    before = [c.values.tobytes() for c in _columns(args, params)]
    func = DEFAULT_REGISTRY.get(name).func
    first = func(*args, **params)
    second = func(*args, **params)
    assert not first.values.flags.writeable
    assert [c.values.tobytes() for c in _columns(args, params)] == before
    assert _same(first, second)


@pytest.mark.parametrize("op", ["//", "%", "<"])
@given(values=SMALL)
@settings(max_examples=20, deadline=None)
def test_elementwise_with_a_scalar_operand_is_frozen_and_inputs_untouched(op, values):
    col = Column(values)
    before = col.values.tobytes()
    first, second = ops.elementwise(op, col, 3), ops.elementwise(op, col, 3)
    assert not first.values.flags.writeable
    assert col.values.tobytes() == before
    assert _same(first, second)


def test_fused_region_writes_in_place_only_into_its_own_registers():
    values = np.arange(10, dtype=np.int64)
    args, params = operator_calls(values)["FusedElementwise"]
    result = DEFAULT_REGISTRY.get("FusedElementwise").func(*args, **params)
    assert result.to_pylist() == (values - (values + values) * values).tolist()
    assert result.values.base is None  # adopted as built, not copied out of a view


SCHEMES = [make_scheme(name) for name in sorted(SCHEME_FACTORIES)] + [
    make_scheme("FOR", segment_length=7), make_scheme("PFOR", segment_length=5),
    make_scheme("LINEAR", segment_length=6), make_scheme("POLY", segment_length=9, degree=2),
    make_scheme("NS", signed="bias"), make_scheme("DELTA", narrow=False),
    Cascade.rle_then_delta_on_values(), Cascade.rpe_with_delta_positions(),
]


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.describe())
@given(values=st.lists(st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
                       min_size=1, max_size=200))
@settings(max_examples=20, deadline=None)
def test_compiled_plans_freeze_results_and_leave_inputs_untouched(scheme, values):
    column = Column(np.array(values, dtype=np.int64))
    form = scheme.compress(column)
    inputs = scheme.plan_inputs(form)
    before = {name: c.values.tobytes() for name, c in inputs.items()}
    clear_caches()
    clear_generated_column_cache()  # the first run fills the caches, the second reads them
    compiled = scheme.compiled_decompression_plan(form)
    first = compiled.run(inputs)
    second = compiled.run(inputs)
    assert not first.values.flags.writeable
    assert {name: c.values.tobytes() for name, c in inputs.items()} == before
    assert _same(first, second)
    assert _same(scheme.decompress(form), scheme.decompress_interpreted(form))


class TestAdopt:
    def test_owning_array_is_frozen_and_wrapped_as_is(self):
        fresh = np.arange(5)
        column = Column.adopt(fresh, name="x")
        assert column.values is fresh and not fresh.flags.writeable and column.name == "x"

    def test_view_is_copied(self):
        backing = np.arange(10)
        column = Column.adopt(backing[2:7])
        backing[:] = -1
        assert column.to_pylist() == [2, 3, 4, 5, 6]
        assert not column.values.flags.writeable and backing.flags.writeable

    def test_non_owning_array_is_copied(self):
        buffer = bytearray(np.arange(4, dtype=np.int64).tobytes())
        foreign = np.frombuffer(buffer, dtype=np.int64)
        column = Column.adopt(foreign)
        buffer[0] = 9
        assert column.to_pylist() == [0, 1, 2, 3]

    def test_constructor_still_copies_a_writeable_caller_array(self):
        mine = np.arange(5)
        column = Column(mine)
        mine[0] = 99
        assert mine.flags.writeable and column.to_pylist() == [0, 1, 2, 3, 4]

    def test_validation_is_the_constructors(self):
        from repro.errors import ColumnError
        for rejected in (np.zeros((2, 2)), np.array(["a"])):
            with pytest.raises(ColumnError):
                Column.adopt(rejected)
            assert rejected.flags.writeable  # validated before the freeze
