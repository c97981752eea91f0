"""Property: inferred intervals are sound over every scheme's real plans.

For random integer columns (odd sizes on purpose — packing tails and
remainder chunks live there), every registered scheme and a set of 2- and
3-deep cascades must satisfy: the abstract output fact of the decompression
plan has the exact dtype of the decompressed values and an interval that
contains every one of them — for the raw plan *and* after every optimizer
pass (translation validation never observes a soundness break).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.intervals import analyze_plan, entry_facts_for_form
from repro.columnar.column import Column
from repro.columnar.compile.optimizer import optimize
from repro.schemes import registry
from repro.schemes.composite import Cascade

ALL_SCHEMES = tuple(registry.available_schemes())

# (outer, constituent, inner) combinations for 2-deep cascades; each
# constituent column is integer data the inner scheme must round-trip.
CASCADE_SPECS = (
    ("RLE", "values", "NS"),
    ("RLE", "lengths", "DELTA"),
    ("RLE", "values", "VARWIDTH"),
    ("DICT", "codes", "NS"),
    ("DELTA", "deltas", "RLE"),
)


def odd_sized_columns():
    small = st.integers(min_value=-40, max_value=40)
    wide = st.integers(min_value=-(2 ** 40), max_value=2 ** 40)
    return st.lists(st.one_of(small, small, wide), min_size=1, max_size=121) \
        .map(lambda xs: xs if len(xs) % 2 == 1 else xs[:-1] or [xs[0]]) \
        .map(lambda xs: Column(np.array(xs, dtype=np.int64)))


def assert_sound(scheme, data: Column) -> None:
    form = scheme.compress(data)
    # ``decompress`` ends with a restore-cast to the original dtype, which
    # happens *outside* the plan; the dtype oracle is the plan's own output.
    decoded = scheme.decompress(form).values
    inputs = scheme.plan_inputs(form)
    facts = entry_facts_for_form(scheme, form)
    raw = scheme.decompression_plan(form)
    for plan in (raw, optimize(raw)):
        fact = analyze_plan(plan, facts).output_fact
        plan_out = plan.evaluate_detailed(inputs).output.values
        assert fact.dtype == plan_out.dtype, (scheme.name, plan.description)
        if decoded.size:
            lo, hi = decoded.min(), decoded.max()
            assert fact.interval.contains_value(lo), (scheme.name, lo, fact)
            assert fact.interval.contains_value(hi), (scheme.name, hi, fact)
        if fact.length is not None:
            assert fact.length == decoded.size


@settings(max_examples=30, deadline=None)
@given(data=odd_sized_columns(), name=st.sampled_from(ALL_SCHEMES))
def test_interval_contains_every_decompressed_value(data, name):
    assert_sound(registry.make_scheme(name), data)


@settings(max_examples=20, deadline=None)
@given(data=odd_sized_columns(), spec=st.sampled_from(CASCADE_SPECS))
def test_interval_sound_for_two_deep_cascades(data, spec):
    outer, constituent, inner = spec
    assert_sound(registry.make_cascade(outer, {constituent: inner}), data)


@settings(max_examples=10, deadline=None)
@given(data=odd_sized_columns())
def test_interval_sound_for_three_deep_cascade(data):
    # RLE over values, whose values column is DELTA-coded, whose deltas
    # column is in turn NS-coded: three schemes stacked in one plan.
    inner = Cascade(registry.make_scheme("DELTA"),
                    {"deltas": registry.make_scheme("NS")})
    deep = Cascade(registry.make_scheme("RLE"), {"values": inner})
    assert_sound(deep, data)


@settings(max_examples=60, deadline=None)
@given(deltas=st.lists(st.integers(-1_000, 1_000), min_size=1, max_size=50),
       initial=st.integers(-2**40, 2**40), bound=st.sampled_from(["binding", "literal"]))
def test_prefix_sum_interval_is_sound_from_its_initial(deltas, initial, bound):
    """``PrefixSum(col, initial=...)``, the initial a literal or DELTA's
    ``ScalarAt("base", 0)``: every running sum lies in the inferred interval,
    and an initial nothing is known about leaves the interval unbounded."""
    from repro.analysis.intervals import entry_facts_from_columns
    from repro.columnar.plan import PlanBuilder, ScalarAt

    builder = PlanBuilder(["deltas", "base"])
    builder.step("values", "PrefixSum", col="deltas",
                 initial=ScalarAt("base", 0) if bound == "binding" else initial)
    plan = builder.build("values")
    inputs = {"deltas": Column(np.array(deltas, dtype=np.int64)),
              "base": Column(np.array([initial], dtype=np.int64))}
    out = plan.evaluate(inputs).values
    assert out[0] == initial + deltas[0]
    fact = analyze_plan(plan, entry_facts_from_columns(inputs)).output_fact
    assert fact.interval.contains_value(out.min()) and fact.interval.contains_value(out.max())
    unknown = analyze_plan(plan, entry_facts_from_columns({"deltas": inputs["deltas"]}))
    if bound == "binding":
        assert unknown.output_fact.interval.is_top() and not unknown.findings
