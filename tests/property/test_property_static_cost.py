"""The advisor prices a plan without running it: the computed cost is the
executed cost, exactly.

``decompression_cost`` reads a compiled plan's weighted cost off the plan's
operator weights and statically known lengths.  For every scheme and cascade
``python -m repro.analysis`` checks, and every candidate the advisor generates,
that figure equals what ``run_detailed(..., collect_cost=True)`` measures — on
the column shapes where a length rule could slip (one value, a short last
segment, patches, a single run) — and no plan is executed to obtain it.
"""

import numpy as np
import pytest

from repro.analysis.corpus import decodable_schemes
from repro.columnar import Column
from repro.columnar.compile import CompiledPlan
from repro.errors import PlanError, ReproError
from repro.planner import decompression_cost, default_candidates
from repro.schemes import Cascade, Delta, NullSuppression, RunLengthEncoding, VariableWidth
from repro.storage import compute_statistics

SEGMENT = 128


def draw_column(kind, dtype, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "empty":
        values = np.empty(0)
    elif kind == "one_value":
        values = np.array([41])
    elif kind == "short_last_segment":
        values = np.cumsum(rng.integers(0, 4, 2 * SEGMENT + 3))
    elif kind == "patched":
        values = np.where(rng.random(1000) < 0.03, 2**30 + rng.integers(0, 9, 1000),
                          rng.integers(0, 16, 1000))
    elif kind == "single_run":
        values = np.full(300, 7)
    else:  # runs of a sorted value: every gate of default_candidates opens
        values = np.repeat(np.arange(40), rng.integers(1, 20, 40))
    return Column(values.astype(dtype))


def schemes_to_cost():
    generated = default_candidates(compute_statistics(draw_column("runs", np.int64)))
    nested = [
        Cascade(RunLengthEncoding(), {
            "values": Cascade(Delta(narrow=False), {"deltas": NullSuppression()}),
            "lengths": Cascade(Delta(), {"deltas": VariableWidth()})}),
        Cascade(Delta(narrow=False), {"deltas": Cascade(RunLengthEncoding(), {
            "values": Cascade(Delta(narrow=False), {"deltas": NullSuppression()})})}),
    ]
    by_name = {scheme.describe(): scheme for scheme in decodable_schemes() + generated + nested}
    return list(by_name.values())


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32])
@pytest.mark.parametrize("kind", ["empty", "one_value", "short_last_segment", "patched",
                                  "single_run", "runs"])
def test_computed_cost_equals_executed_cost(kind, dtype):
    column = draw_column(kind, dtype)
    costed = 0
    for scheme in schemes_to_cost():
        try:
            form = scheme.compress(column)
        except ReproError:
            continue  # the scheme refuses the column: nothing to decode
        computed = decompression_cost(scheme, form)
        if len(column) == 0:
            assert computed == 0.0  # decompress() answers without the plan
            continue
        compiled = scheme.compiled_decompression_plan(form)
        executed = compiled.run_detailed(scheme.plan_inputs(form), collect_cost=True).cost
        assert computed == executed.weighted_cost / len(column), scheme.describe()
        costed += 1
    assert costed >= 20 or len(column) == 0


def test_costing_executes_no_plan(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("decompression_cost must not execute the plan")

    column = draw_column("runs", np.int64)
    forms = [(scheme, scheme.compress(column)) for scheme in schemes_to_cost()]
    monkeypatch.setattr(CompiledPlan, "run", refuse)
    monkeypatch.setattr(CompiledPlan, "run_detailed", refuse)
    assert all(decompression_cost(scheme, form) >= 0.0 for scheme, form in forms)


def test_an_unresolved_length_is_an_error_not_a_run():
    """A plan with a data-dependent length the form does not state (here
    Algorithm 1 unoptimized: ``Zeros(length=ScalarAt(...))``) has no computed
    cost; the answer is a rule in ``plan_types``, never an execution."""
    scheme = RunLengthEncoding()
    form = scheme.compress(draw_column("runs", np.int64))
    unoptimized = CompiledPlan(scheme.decompression_plan(form), optimize_plan=False)
    with pytest.raises(PlanError, match="no length rule"):
        unoptimized.weighted_cost(scheme.plan_lengths(form))
