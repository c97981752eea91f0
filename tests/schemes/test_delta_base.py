"""DELTA keeps its first value apart: ``deltas[0]`` repeats ``deltas[1]`` and
the form's ``base`` restores the start inside the one ``PrefixSum``.

Round trips at every integer dtype with the first value at the dtype's
limits, a base that wraps modulo 2**64, the form check on both decompress
paths, one compiled plan for every form, every generated cascade over DELTA,
and the property that the layout never stores more than the old one did.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import Column
from repro.columnar.compile import clear_caches
from repro.columnar.ops import adjacent_difference
from repro.errors import CompressionError, OperatorError
from repro.planner.advisor import cascades_of
from repro.schemes import Delta

INTEGER_DTYPES = (np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64)


def assert_round_trips(scheme, column):
    form = scheme.compress(column)
    for decoded in (scheme.decompress(form), scheme.decompress_interpreted(form)):
        assert decoded.dtype == column.dtype
        assert np.array_equal(decoded.values, column.values)
    return form


@pytest.mark.parametrize("narrow", [True, False])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("first", ["min", "max"])
@pytest.mark.parametrize("dtype", INTEGER_DTYPES, ids=lambda dtype: np.dtype(dtype).name)
def test_first_value_at_a_dtype_limit_round_trips(dtype, first, n, narrow):
    """The first value at the dtype's min or max, alone or followed by the
    other limit (the widest step the dtype has, which wraps int64 for
    uint64): the base is an int64 and ``deltas[0]`` repeats ``deltas[1]``."""
    info = np.iinfo(dtype)
    start, other = (info.min, info.max) if first == "min" else (info.max, info.min)
    column = Column(np.array([start, other][:n], dtype=dtype))
    form = assert_round_trips(Delta(narrow=narrow), column)
    base, deltas = form.parameters["base"], form.constituent("deltas").values
    assert type(base) is int and -2**63 <= base < 2**63
    assert len(deltas) == n and (n == 1 or deltas[0] == deltas[1])
    assert np.array_equal(Delta.differences(form).values,
                          adjacent_difference(column).values.astype(np.int64))


def test_a_base_that_wraps_modulo_2_64():
    """uint64 ``[2**64 - 1, 0]``: the step wraps to 1, so the base is
    ``2**64 - 2``, stored as the int64 it is modulo 2**64."""
    column = Column(np.array([2**64 - 1, 0, 5], dtype=np.uint64))
    form = assert_round_trips(Delta(), column)
    assert form.parameters["base"] == -2
    assert form.constituent("deltas").to_pylist() == [1, 1, 5]


def test_a_monotone_key_narrows_to_its_gaps():
    """Gaps of 1-4 from a start near 800 000: one byte per delta, where the
    first value stored among them needed four."""
    rng = np.random.default_rng(31)
    column = Column(np.cumsum(rng.integers(1, 5, 4_096)) + 819_450)
    form = assert_round_trips(Delta(), column)
    assert form.constituent("deltas").dtype == np.uint8
    assert adjacent_difference(column).narrowest_dtype() == np.uint32


def test_every_form_shares_one_compiled_plan():
    """The base is a plan input, not a baked constant."""
    clear_caches()
    scheme = Delta()
    forms = [scheme.compress(Column(np.arange(start, start + 100))) for start in (0, 10**6)]
    assert forms[0].parameters["base"] != forms[1].parameters["base"]
    first, second = (scheme.compiled_decompression_plan(form) for form in forms)
    assert first is second
    assert "base" in first.plan.inputs


@pytest.mark.parametrize("dtype", INTEGER_DTYPES, ids=lambda dtype: np.dtype(dtype).name)
def test_every_generated_cascade_over_delta_round_trips(dtype):
    """Each of the five cascades ``cascades_of(Delta(narrow=False))``
    generates, over a smooth column, a monotone one and the dtype's limits."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(32)
    walk = np.cumsum(rng.integers(-3, 4, 600)) + (int(info.max) + int(info.min)) // 2
    columns = [walk, np.sort(rng.integers(info.min, info.max, 600, dtype=dtype, endpoint=True)),
               rng.choice(np.array([info.min, info.max], dtype=dtype), 600)]
    cascades = cascades_of(Delta(narrow=False))
    assert len(cascades) == 5
    for values in columns:
        column = Column(np.asarray(values).astype(dtype))
        for scheme in cascades:
            try:
                assert_round_trips(scheme, column)
            except CompressionError:  # FOR refuses steps whose spread wraps int64
                assert scheme.inner["deltas"].name == "FOR"


@pytest.mark.parametrize("base, what", [
    (None, "base None"), (1.5, "base 1.5"), (7.0, "base 7.0"), (True, "base True"),
    (2**64, "base 18446744073709551616"), (-2**63 - 1, "base -9223372036854775809"),
], ids=["null", "float", "integral-float", "bool", "beyond-uint64", "below-int64"])
@pytest.mark.parametrize("path", ["decompress", "decompress_interpreted"])
def test_a_malformed_base_is_an_operator_error(path, base, what):
    scheme = Delta()
    form = scheme.compress(Column(np.arange(10, 20)))
    form.parameters["base"] = base
    with pytest.raises(OperatorError, match=f"malformed DELTA form: {what} is not in range"):
        getattr(scheme, path)(form)


@pytest.mark.parametrize("path", ["decompress", "decompress_interpreted"])
def test_a_missing_base_or_short_deltas_is_an_operator_error(path):
    scheme = Delta()
    form = scheme.compress(Column(np.arange(10, 20)))
    del form.parameters["base"]
    with pytest.raises(OperatorError, match="base is missing"):
        getattr(scheme, path)(form)
    short = scheme.compress(Column(np.arange(10, 20)))
    short.original_length = 11
    with pytest.raises(OperatorError, match="10 deltas for 11 rows"):
        getattr(scheme, path)(short)


def test_a_cascade_checks_its_outer_delta_form():
    scheme = cascades_of(Delta(narrow=False))[0]
    form = scheme.compress(Column(np.arange(10, 50)))
    form.parameters["base"] = 2**63
    for path in (scheme.decompress, scheme.decompress_interpreted):
        with pytest.raises(OperatorError, match="base 9223372036854775808"):
            path(form)


@given(values=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=80),
       dtype=st.sampled_from(INTEGER_DTYPES), narrow=st.booleans())
@settings(max_examples=150, deadline=None)
def test_never_larger_than_the_first_value_among_the_deltas(values, dtype, narrow):
    """The stored bytes never exceed the old layout's, ``deltas[0] = col[0]``
    narrowed with the rest, and the column round-trips."""
    info = np.iinfo(dtype)
    column = Column(np.array([min(max(v, int(info.min)), int(info.max)) for v in values],
                             dtype=dtype))
    form = assert_round_trips(Delta(narrow=narrow), column)
    old = adjacent_difference(column)
    if narrow:
        old = old.astype(old.narrowest_dtype())
    assert form.compressed_size_bytes() <= old.nbytes
