"""Tests for the plan representation, evaluation and decomposition surgery."""
import pytest

from repro.columnar import (
    Column,
    LengthOf,
    Plan,
    PlanBuilder,
    PlanStep,
    ScalarAt,
)
from repro.errors import PlanError


def build_algorithm1() -> Plan:
    """The paper's Algorithm 1 (RLE decompression), built by hand."""
    b = PlanBuilder(["lengths", "values"], description="RLE decompression")
    b.step("run_positions", "PrefixSum", col="lengths")
    b.step("run_positions_trimmed", "PopBack", col="run_positions")
    b.step("ones", "Ones", length=LengthOf("run_positions_trimmed"))
    b.step("zeros", "Zeros", length=ScalarAt("run_positions", -1))
    b.step("pos_delta", "Scatter", values="ones", indices="run_positions_trimmed",
           base="zeros")
    b.step("positions", "PrefixSum", col="pos_delta")
    b.step("decompressed", "Gather", values="values", indices="positions")
    return b.build("decompressed")


@pytest.fixture
def algorithm1():
    return build_algorithm1()


@pytest.fixture
def rle_inputs():
    return {"lengths": Column([3, 2, 4], name="lengths"),
            "values": Column([7, 9, 5], name="values")}


class TestPlanConstruction:
    def test_builder_classifies_column_inputs_and_params(self):
        b = PlanBuilder(["a"])
        b.step("b", "Elementwise", op="+", left="a", right=5)
        plan = b.build("b")
        step = plan.steps[0]
        assert step.column_inputs == {"left": "a"}
        assert step.params == {"op": "+", "right": 5}

    def test_validate_rejects_unknown_operator(self):
        with pytest.raises(PlanError):
            Plan(["a"], [PlanStep("b", "NoSuchOp", {"col": "a"})], "b")

    def test_validate_rejects_undefined_reference(self):
        with pytest.raises(PlanError):
            Plan(["a"], [PlanStep("b", "PrefixSum", {"col": "missing"})], "b")

    def test_validate_rejects_duplicate_binding(self):
        steps = [PlanStep("b", "PrefixSum", {"col": "a"}),
                 PlanStep("b", "PrefixSum", {"col": "a"})]
        with pytest.raises(PlanError):
            Plan(["a"], steps, "b")

    def test_validate_rejects_duplicate_inputs(self):
        with pytest.raises(PlanError):
            Plan(["a", "a"], [], "a")

    def test_validate_rejects_missing_output(self):
        with pytest.raises(PlanError):
            Plan(["a"], [], "b")

    def test_len_and_repr(self, algorithm1):
        assert len(algorithm1) == 7
        assert "7 steps" in repr(algorithm1)

    def test_describe_lists_steps(self, algorithm1):
        text = algorithm1.describe()
        assert "PrefixSum" in text and "Gather" in text and "return decompressed" in text

    def test_operator_counts(self, algorithm1):
        counts = algorithm1.operator_counts()
        assert counts["PrefixSum"] == 2
        assert counts["Gather"] == 1

    def test_step_producing(self, algorithm1):
        assert algorithm1.step_producing("positions").op == "PrefixSum"
        assert algorithm1.step_producing("lengths") is None
        with pytest.raises(PlanError):
            algorithm1.step_producing("nope")


class TestEvaluation:
    def test_algorithm1_decompresses_rle(self, algorithm1, rle_inputs):
        out = algorithm1.evaluate(rle_inputs)
        assert out.to_pylist() == [7, 7, 7, 9, 9, 5, 5, 5, 5]

    def test_missing_input_raises(self, algorithm1):
        with pytest.raises(PlanError):
            algorithm1.evaluate({"lengths": Column([1])})

    def test_non_column_input_raises(self, algorithm1):
        with pytest.raises(PlanError):
            algorithm1.evaluate({"lengths": [1], "values": Column([1])})

    def test_detailed_evaluation_keeps_bindings(self, algorithm1, rle_inputs):
        result = algorithm1.evaluate_detailed(rle_inputs)
        assert set(result.bindings) >= {"run_positions", "positions", "decompressed"}
        assert result.bindings["run_positions"].to_pylist() == [3, 5, 9]

    def test_cost_accounting(self, algorithm1, rle_inputs):
        cost = algorithm1.evaluate_detailed(rle_inputs).cost
        assert cost.operator_invocations == 7
        assert cost.per_operator["PrefixSum"] == 2
        assert cost.elements_out > 0
        assert cost.weighted_cost > 0
        assert cost.bytes_materialized > 0

    def test_cost_merge(self, algorithm1, rle_inputs):
        cost = algorithm1.evaluate_detailed(rle_inputs).cost
        merged = cost.merge(cost)
        assert merged.operator_invocations == 2 * cost.operator_invocations
        assert merged.per_operator["Gather"] == 2

    def test_partial_evaluation_stop_after(self, algorithm1, rle_inputs):
        result = algorithm1.evaluate_detailed(rle_inputs, stop_after="run_positions")
        assert result.output.to_pylist() == [3, 5, 9]
        assert result.cost.operator_invocations == 1
        assert "decompressed" not in result.bindings

    def test_partial_evaluation_of_input_costs_nothing(self, algorithm1, rle_inputs):
        result = algorithm1.evaluate_detailed(rle_inputs, stop_after="lengths")
        assert result.cost.operator_invocations == 0

    def test_stop_after_unknown_binding(self, algorithm1, rle_inputs):
        with pytest.raises(PlanError):
            algorithm1.evaluate_detailed(rle_inputs, stop_after="nonexistent")


class TestParamRefs:
    def test_length_of(self):
        assert LengthOf("x").resolve({"x": Column([1, 2, 3])}) == 3
        assert LengthOf("x", delta=-1).resolve({"x": Column([1, 2, 3])}) == 2

    def test_scalar_at(self):
        env = {"x": Column([10, 20, 30])}
        assert ScalarAt("x", -1).resolve(env) == 30
        assert ScalarAt("x", 0).resolve(env) == 10

    def test_scalar_at_empty_column(self):
        with pytest.raises(PlanError):
            ScalarAt("x").resolve({"x": Column.empty()})

    def test_unresolvable_reference(self):
        with pytest.raises(PlanError):
            LengthOf("missing").resolve({})

    def test_references_tracked_as_dependencies(self):
        step = PlanStep("out", "Zeros", {}, {"length": LengthOf("src")})
        assert "src" in step.dependencies()


class TestDecompositionSurgery:
    def test_drop_prefix_produces_rpe_plan(self, algorithm1, rle_inputs):
        """Dropping Algorithm 1's first step yields a plan over run positions (RPE)."""
        rpe_plan = algorithm1.drop_prefix(["run_positions"])
        assert "run_positions" in rpe_plan.inputs
        assert "lengths" not in rpe_plan.inputs
        assert len(rpe_plan) == len(algorithm1) - 1
        out = rpe_plan.evaluate({"run_positions": Column([3, 5, 9]),
                                 "values": rle_inputs["values"]})
        assert out.to_pylist() == [7, 7, 7, 9, 9, 5, 5, 5, 5]

    def test_drop_prefix_unknown_binding(self, algorithm1):
        with pytest.raises(PlanError):
            algorithm1.drop_prefix(["nonexistent"])

    def test_truncate_at_intermediate(self, algorithm1, rle_inputs):
        positions_plan = algorithm1.truncate_at("positions")
        assert positions_plan.output == "positions"
        assert "values" not in positions_plan.inputs  # pruned: not needed
        out = positions_plan.evaluate(rle_inputs)
        assert out.to_pylist() == [0, 0, 0, 1, 1, 2, 2, 2, 2]

    def test_truncate_unknown_binding(self, algorithm1):
        with pytest.raises(PlanError):
            algorithm1.truncate_at("nope")

    def test_prune_drops_dead_steps(self):
        b = PlanBuilder(["a"])
        b.step("useful", "PrefixSum", col="a")
        b.step("dead", "PrefixSum", col="a")
        plan = b.build("useful")
        assert len(plan.prune()) == 1

    def test_rename_bindings(self, algorithm1, rle_inputs):
        renamed = algorithm1.rename_bindings({"lengths": "L", "decompressed": "out"})
        assert "L" in renamed.inputs
        assert renamed.output == "out"
        out = renamed.evaluate({"L": rle_inputs["lengths"], "values": rle_inputs["values"]})
        assert out.to_pylist() == [7, 7, 7, 9, 9, 5, 5, 5, 5]

    def test_rename_preserves_param_refs(self, algorithm1, rle_inputs):
        renamed = algorithm1.rename_bindings({"run_positions": "rp"})
        # The ScalarAt reference must follow the rename or evaluation breaks.
        out = renamed.evaluate(rle_inputs)
        assert len(out) == 9

    def test_compose_after(self):
        """Splicing a DELTA-decode plan in front of a consumer plan."""
        inner = PlanBuilder(["deltas"], description="DELTA decompression")
        inner.step("restored", "PrefixSum", col="deltas")
        inner_plan = inner.build("restored")

        outer = PlanBuilder(["x"], description="add one")
        outer.step("result", "Elementwise", op="+", left="x", right=1)
        outer_plan = outer.build("result")

        combined = outer_plan.compose_after(inner_plan, "x")
        assert "deltas" in combined.inputs and "x" not in combined.inputs
        out = combined.evaluate({"deltas": Column([5, 1, 1])})
        assert out.to_pylist() == [6, 7, 8]

    def test_compose_after_requires_input_binding(self, algorithm1):
        other = PlanBuilder(["z"]).build("z")
        with pytest.raises(PlanError):
            algorithm1.compose_after(other, "not_an_input")

    def test_splice_into_builder(self, algorithm1, rle_inputs):
        b = PlanBuilder(["lengths", "values"], description="spliced")
        output = b.splice(algorithm1)
        b.step("shifted", "Elementwise", op="+", left=output, right=100)
        plan = b.build("shifted")
        out = plan.evaluate(rle_inputs)
        assert out.to_pylist()[:3] == [107, 107, 107]

    def test_splice_requires_inputs_defined(self, algorithm1):
        b = PlanBuilder(["values"])  # missing "lengths"
        with pytest.raises(PlanError):
            b.splice(algorithm1)
