"""Tests for the plan optimizer's rewrite passes."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.intervals import check_optimization, entry_facts_for_form
from repro.columnar import Column
from repro.columnar.compile import (
    compile_plan,
    eliminate_common_subplans,
    fold_param_refs,
    fuse_elementwise_chains,
    optimize,
    optimize_with_report,
    query_runs_in_run_domain,
    recompose_run_expansion,
    recompose_step_function,
    reduce_scans_over_generators,
    scalarize_constant_operands,
)
from repro.columnar.compile.optimizer import deterministic_steps
from repro.columnar.plan import LengthOf, Plan, PlanBuilder, ScalarAt
from repro.errors import OperatorError
from repro.schemes import (
    Cascade,
    Delta,
    FrameOfReference,
    NullSuppression,
    PatchedFrameOfReference,
    PiecewiseLinear,
    PiecewisePolynomial,
    RunLengthEncoding,
    RunPositionEncoding,
)
from repro.schemes.for_ import build_for_decompression_plan
from repro.schemes.stepfunction import build_stepfunction_evaluation_plan
from repro.schemes.rle import build_rle_decompression_plan
from repro.schemes.rpe import build_rpe_decompression_plan


def _ops(plan):
    return [step.op for step in plan.steps]


class TestDeadStepElimination:
    def test_unused_step_and_input_are_dropped(self):
        b = PlanBuilder(["a", "b"])
        b.step("used", "PrefixSum", col="a")
        b.step("unused", "PrefixSum", col="b")
        plan = b.build("used")
        optimized = optimize(plan)
        assert _ops(optimized) == ["PrefixSum"]
        assert optimized.inputs == ("a",)

    def test_optimized_inputs_are_subset(self):
        plan = build_rle_decompression_plan()
        optimized = optimize(plan)
        assert set(optimized.inputs) <= set(plan.inputs)


class TestParamRefFolding:
    def test_lengthof_generator_folds(self):
        b = PlanBuilder([])
        b.step("zeros", "Zeros", length=16)
        b.step("ones", "Ones", length=LengthOf("zeros"))
        plan = fold_param_refs(b.build("ones"))
        ones = plan.steps[1]
        assert ones.params["length"] == 16
        assert not ones.dependencies()

    def test_scalarat_on_iota_folds(self):
        b = PlanBuilder([])
        b.step("idx", "Iota", length=10, start=5, step=2)
        b.step("zeros", "Zeros", length=ScalarAt("idx", -1))
        plan = fold_param_refs(b.build("zeros"))
        assert plan.steps[1].params["length"] == 5 + 2 * 9

    def test_runtime_lengths_are_left_alone(self):
        plan = build_rle_decompression_plan()
        folded = fold_param_refs(plan)
        # All RLE lengths derive from runtime inputs; nothing can fold.
        assert any(isinstance(step.params.get("length"), LengthOf)
                   for step in folded.steps)

    def test_folding_preserves_result(self):
        b = PlanBuilder(["data"])
        b.step("c", "Constant", value=3, length=8)
        b.step("n", "Zeros", length=ScalarAt("c", 0))
        b.step("out", "Scatter", values="data", indices="data", base="n")
        plan = b.build("out")
        data = Column([0, 1, 2])
        assert optimize(plan).evaluate({"data": data}) \
            .equals(plan.evaluate({"data": data}))

    def test_length_of_a_fused_step_is_its_chains(self):
        """A fused ``Gather``-then-``+`` is as long as its indices, not as the
        4-entry column it reads: compiled equals interpreted, 10 rows."""
        b = PlanBuilder(["positions"])
        b.step("seq", "Sequence", values=[5, 6, 7, 8])
        b.step("picked", "Gather", values="seq", indices="positions")
        b.step("shifted", "Elementwise", op="+", left="picked", right=1)
        b.step("ids", "Iota", length=LengthOf("shifted"))
        b.step("out", "Elementwise", op="+", left="ids", right="shifted")
        fused = optimize(b.build("out"))
        assert "FusedElementwise" in _ops(fused)
        inputs = {"positions": Column(np.arange(10) % 4)}
        expected = fused.evaluate(inputs)
        assert len(expected) == 10
        assert compile_plan(fused).run(inputs).equals(expected, check_dtype=True)

    @pytest.mark.parametrize("generator", [
        ("Constant", {"value": 2.7, "length": 3, "dtype": np.int64}),  # 2 rows
        ("Iota", {"length": 3, "start": 250, "step": 10, "dtype": np.uint8}),  # 260: overflows
    ], ids=["truncated", "out-of-dtype"])
    def test_a_generator_folds_in_its_dtype(self, generator):
        op, params = generator
        b = PlanBuilder([])
        b.step("g", op, **params)
        b.step("out", "Zeros", length=ScalarAt("g", 1))
        plan = b.build("out")
        outcomes = []
        for run in (lambda: plan.evaluate({}), lambda: compile_plan(plan).run({})):
            try:
                outcomes.append(run().to_pylist())
            except Exception as error:  # the same class either way
                outcomes.append(type(error))
        assert outcomes[0] == outcomes[1]


class TestScalarization:
    def test_constant_operand_becomes_scalar(self):
        b = PlanBuilder(["x"])
        b.step("c", "Constant", value=7, length=LengthOf("x"))
        b.step("out", "Elementwise", op="*", left="x", right="c")
        plan = optimize(b.build("out"))
        assert _ops(plan) == ["Elementwise"]  # the constant column is gone
        x = Column([1, 2, 3])
        assert plan.evaluate({"x": x}).to_pylist() == [7, 14, 21]

    def test_one_column_operand_is_kept(self):
        b = PlanBuilder([])
        b.step("a", "Constant", value=2, length=4)
        b.step("b", "Constant", value=3, length=4)
        b.step("out", "Elementwise", op="+", left="a", right="b")
        plan = scalarize_constant_operands(b.build("out"))
        out = plan.steps[-1]
        assert len(out.column_inputs) == 1  # length stays anchored to a column
        assert optimize(b.build("out")).evaluate({}).to_pylist() == [5, 5, 5, 5]


class TestScanStrengthReduction:
    def test_prefix_sum_of_ones_becomes_iota(self):
        b = PlanBuilder([])
        b.step("ones", "Ones", length=9)
        b.step("pos", "PrefixSum", col="ones")
        plan = optimize(b.build("pos"))
        assert _ops(plan) == ["Iota"]
        assert plan.evaluate({}).to_pylist() == list(range(1, 10))

    def test_exclusive_prefix_sum_of_ones_becomes_iota(self):
        b = PlanBuilder([])
        b.step("ones", "Ones", length=5)
        b.step("pos", "ExclusivePrefixSum", col="ones", initial=3)
        plan = optimize(b.build("pos"))
        assert _ops(plan) == ["Iota"]
        assert plan.evaluate({}).to_pylist() == [3, 4, 5, 6, 7]

    def test_prefix_sum_of_zeros_becomes_constant(self):
        b = PlanBuilder([])
        b.step("z", "Zeros", length=4)
        b.step("pos", "PrefixSum", col="z")
        plan = reduce_scans_over_generators(b.build("pos"))
        assert plan.steps[-1].op == "Constant"
        assert plan.evaluate({}).to_pylist() == [0, 0, 0, 0]

    def test_faithful_for_plan_reduces_to_iota_variant(self):
        faithful = build_for_decompression_plan(64, offsets_params=None,
                                                faithful_to_paper=True)
        optimized = optimize(faithful)
        counts = optimized.operator_counts()
        assert "ExclusivePrefixSum" not in counts
        assert "Ones" not in counts
        assert "Constant" not in counts


class TestCommonSubplanElimination:
    def test_duplicate_steps_are_merged(self):
        b = PlanBuilder(["x"])
        b.step("a", "PrefixSum", col="x")
        b.step("b", "PrefixSum", col="x")
        b.step("out", "Elementwise", op="+", left="a", right="b")
        plan = eliminate_common_subplans(b.build("out"))
        assert _ops(plan) == ["PrefixSum", "Elementwise"]
        x = Column([1, 2, 3])
        assert plan.evaluate({"x": x}).to_pylist() == [2, 6, 12]

    def test_cse_cascades_through_renames(self):
        b = PlanBuilder(["x"])
        b.step("a1", "PrefixSum", col="x")
        b.step("a2", "PrefixSum", col="x")
        b.step("b1", "PrefixSum", col="a1")
        b.step("b2", "PrefixSum", col="a2")  # duplicate only after a2 -> a1
        b.step("out", "Elementwise", op="+", left="b1", right="b2")
        plan = eliminate_common_subplans(b.build("out"))
        assert _ops(plan) == ["PrefixSum", "PrefixSum", "Elementwise"]

    def test_output_step_deduplication_renames_output(self):
        b = PlanBuilder(["x"])
        b.step("a", "PrefixSum", col="x")
        b.step("out", "PrefixSum", col="x")
        plan = eliminate_common_subplans(b.build("out"))
        assert plan.output == "a"


class TestRegionFusion:
    def test_linear_chain_fuses(self):
        b = PlanBuilder(["x"])
        b.step("a", "Elementwise", op="*", left="x", right=2)
        b.step("out", "Elementwise", op="+", left="a", right=1)
        plan = fuse_elementwise_chains(b.build("out"))
        assert _ops(plan) == ["FusedElementwise"]
        x = Column([1, 2, 3])
        assert plan.evaluate({"x": x}).to_pylist() == [3, 5, 7]

    def test_dag_region_fuses(self):
        b = PlanBuilder(["x"])
        b.step("sq", "Elementwise", op="*", left="x", right="x")
        b.step("out", "Elementwise", op="+", left="sq", right="sq")
        plan = fuse_elementwise_chains(b.build("out"))
        assert _ops(plan) == ["FusedElementwise"]
        assert plan.evaluate({"x": Column([1, 2, 3])}).to_pylist() == [2, 8, 18]

    def test_multi_consumer_intermediate_blocks_fusion(self):
        b = PlanBuilder(["x"])
        b.step("a", "Elementwise", op="*", left="x", right=2)
        b.step("out", "Elementwise", op="+", left="a", right=1)
        b.step("other", "PrefixSum", col="a")  # second consumer, not fusable
        b.step("final", "Elementwise", op="+", left="out", right="other")
        plan = fuse_elementwise_chains(b.build("final"))
        # "a" must stay materialised for the PrefixSum.
        assert "a" in [step.output for step in plan.steps]

    def test_gather_fuses_into_region(self):
        b = PlanBuilder(["values", "indices", "offsets"])
        b.step("g", "Gather", values="values", indices="indices")
        b.step("out", "Elementwise", op="+", left="g", right="offsets")
        plan = fuse_elementwise_chains(b.build("out"))
        assert _ops(plan) == ["FusedElementwise"]
        result = plan.evaluate({
            "values": Column([10, 20, 30]),
            "indices": Column([2, 0]),
            "offsets": Column([1, 1]),
        })
        assert result.to_pylist() == [31, 11]

    def test_plan_output_is_never_fused_away(self):
        b = PlanBuilder(["x"])
        b.step("a", "Elementwise", op="*", left="x", right=2)
        b.step("out", "Elementwise", op="+", left="a", right=1)
        plan = fuse_elementwise_chains(b.build("a"))
        # "a" is the output; the chain must not swallow it.
        assert "a" in [step.output for step in plan.steps]

    def test_zigzag_fuses(self):
        b = PlanBuilder(["x", "base"])
        b.step("dec", "ZigZagDecode", col="x")
        b.step("out", "Elementwise", op="+", left="base", right="dec")
        plan = fuse_elementwise_chains(b.build("out"))
        assert _ops(plan) == ["FusedElementwise"]
        encoded = Column(np.array([0, 1, 2, 3], dtype=np.uint64))
        result = plan.evaluate({"x": encoded, "base": Column([0, 0, 0, 0])})
        assert result.to_pylist() == [0, -1, 1, -2]

    def test_only_the_last_read_of_a_register_is_marked_as_dying(self):
        """The kernel writes ``+ - *`` into an operand marked ``"dies"``: a
        register read again later must not carry the mark before that read."""
        b = PlanBuilder(["x"])
        b.step("a", "Elementwise", op="+", left="x", right=1)
        b.step("b", "Elementwise", op="*", left="a", right=3)   # a is read again below
        b.step("out", "Elementwise", op="-", left="b", right="a")
        plan = fuse_elementwise_chains(b.build("out"))
        assert plan.steps[0].params["chain"] == (
            ("binary", "+", ("col", "c0"), ("lit", 1)),
            ("binary", "*", ("reg", 0), ("lit", 3)),
            ("binary", "-", ("reg", 1, "dies"), ("reg", 0, "dies")),
        )
        x = Column([1, 2, 3])
        for _ in range(2):
            assert plan.evaluate({"x": x}).to_pylist() == [4, 6, 8]
        assert x.to_pylist() == [1, 2, 3]


def _rle_cascade():
    return Cascade(RunLengthEncoding(),
                   {"values": Delta(), "lengths": NullSuppression()})


def _rpe_cascade():
    return Cascade(RunPositionEncoding(),
                   {"values": Delta(), "run_positions": NullSuppression()})


def _algorithm_one(stored_ends=False, **overrides):
    """Algorithm 1 over inputs (lengths, values), with steps replaceable by name;
    with *stored_ends*, sans its first operation: ``ends`` is a third input."""
    steps = {
        "ends": ("PrefixSum", {"col": "lengths"}),
        "starts": ("PopBack", {"col": "ends"}),
        "ones": ("Ones", {"length": LengthOf("starts")}),
        "zeros": ("Zeros", {"length": ScalarAt("ends", -1)}),
        "marks": ("Scatter", {"values": "ones", "indices": "starts", "base": "zeros"}),
        "positions": ("PrefixSum", {"col": "marks"}),
        "out": ("Gather", {"values": "values", "indices": "positions"}),
    }
    if stored_ends:
        del steps["ends"]
    steps.update(overrides)
    b = PlanBuilder(["ends", "lengths", "values"] if stored_ends else ["lengths", "values"])
    for output, (op, arguments) in steps.items():
        b.step(output, op, **arguments)
    return b


class TestRunExpansionRecomposition:
    def test_rle_compiles_to_repeat(self):
        source = build_rle_decompression_plan()
        assert _ops(optimize(source)) == ["Repeat"]
        assert "Scatter" in _ops(source)  # the source plan stays Algorithm 1

    def test_rle_cascade_compiles_to_repeat(self):
        scheme = _rle_cascade()
        column = Column(np.repeat(np.arange(300) * 3, 7))
        form = scheme.compress(column)
        source = scheme.decompression_plan(form)
        assert "Scatter" in _ops(source)
        compiled = scheme.compiled_decompression_plan(form).plan
        assert "Repeat" in _ops(compiled) and "Scatter" not in _ops(compiled)
        assert _ops(optimize(compiled)) == _ops(compiled)  # stable
        assert check_optimization(source, entry_facts_for_form(scheme, form)) == []

    def test_both_derivations_of_rpe_compile_to_difference_and_repeat(self):
        for derived in (True, False):
            source = build_rpe_decompression_plan(derive_from_rle=derived)
            assert _ops(optimize(source)) == ["AdjacentDifference", "Repeat"]
            assert "Scatter" in _ops(source)  # the source plan stays Algorithm 1

    def test_a_ones_length_folded_to_a_literal_still_matches(self):
        """NS-coded lengths fix how many runs there are, so ``LengthOf`` of
        the run starts folds to a literal before the rewrite looks."""
        scheme = _rle_cascade()  # lengths: NS(signed="zigzag"), values: DELTA
        form = scheme.compress(Column(np.repeat(np.arange(20) * 3, 7)))
        folded = fold_param_refs(scheme.decompression_plan(form))
        ones = folded.step_producing("ones")
        assert ones.params["length"] == 19
        assert "Repeat" in _ops(recompose_run_expansion(folded))
        assert "Repeat" in _ops(scheme.compiled_decompression_plan(form).plan)
        wrong = dataclasses.replace(ones, params={"length": 18})
        lookalike = Plan(folded.inputs, [wrong if step is ones else step for step in folded.steps],
                         folded.output)
        assert recompose_run_expansion(lookalike) is lookalike

    @pytest.mark.parametrize("overrides", [
        # marks that are not ones
        {"ones": ("Constant", {"value": 2, "length": LengthOf("starts")})},
        {"ones": ("Iota", {"length": LengthOf("starts")})},
        # a narrow mark dtype changes what the scan of the marks can hold
        {"ones": ("Ones", {"length": LengthOf("starts"), "dtype": np.int8})},
        # a base that is not the zero column of the total length
        {"zeros": ("Zeros", {"length": ScalarAt("ends", 0)})},
        {"zeros": ("Ones", {"length": ScalarAt("ends", -1)})},
        # marks scattered somewhere other than the run starts
        {"starts": ("PopBack", {"col": "lengths"})},
        # a base sized by another column's last element
        {"zeros": ("Zeros", {"length": ScalarAt("lengths", -1)})},
    ], ids=["twos", "iota", "int8-ones", "short-base", "ones-base", "not-starts",
            "other-total"])
    @pytest.mark.parametrize("stored_ends", [False, True], ids=["scanned", "stored"])
    def test_lookalikes_are_left_alone(self, stored_ends, overrides):
        plan = _algorithm_one(stored_ends, **overrides).build("out")
        assert recompose_run_expansion(plan) is plan

    @pytest.mark.parametrize("stored_ends", [False, True], ids=["scanned", "stored"])
    def test_shared_positions_binding_is_left_alone(self, stored_ends):
        b = _algorithm_one(stored_ends)
        b.step("both", "Elementwise", op="+", left="out", right="positions")
        plan = b.build("both")
        assert recompose_run_expansion(plan) is plan
        b = _algorithm_one(stored_ends)
        b.step("n", "Zeros", length=LengthOf("positions"))
        b.step("both", "Elementwise", op="+", left="out", right="n")
        plan = b.build("both")  # ... also when the second reader is a ParamRef
        assert recompose_run_expansion(plan) is plan
        plan = _algorithm_one(stored_ends).build("positions")  # ... or the plan output
        assert recompose_run_expansion(plan) is plan

    @pytest.mark.parametrize("stored_ends", [False, True], ids=["scanned", "stored"])
    def test_rewrite_keeps_other_readers_of_the_prefix(self, stored_ends):
        """``ends`` may have other consumers; only the expansion is replaced."""
        b = _algorithm_one(stored_ends)
        b.step("total", "Constant", value=ScalarAt("ends", -1), length=LengthOf("out"))
        b.step("both", "Elementwise", op="+", left="out", right="total")
        plan = b.build("both")
        rewritten = recompose_run_expansion(plan)
        assert "Repeat" in _ops(rewritten) and "Scatter" not in _ops(rewritten)
        assert ("AdjacentDifference" in _ops(rewritten)) == stored_ends
        inputs = {"ends": Column([2, 3, 6]), "lengths": Column([2, 1, 3]),
                  "values": Column([10, 20, 30])}
        inputs = {name: inputs[name] for name in plan.inputs}
        assert rewritten.evaluate(inputs).equals(plan.evaluate(inputs), check_dtype=True)

    @pytest.mark.parametrize("column", [
        np.full(1000, 7),                                  # a single run
        np.arange(1000),                                   # all runs of length 1
        np.repeat(np.arange(12), 2 ** np.arange(12)),      # 2^k-length runs
        np.sort(np.random.default_rng(3).integers(0, 2000, 65_536)),
        np.repeat(np.arange(3, dtype=np.int64), 300),      # lengths above uint8
    ], ids=["single-run", "runs-of-1", "pow2-runs", "65536-rows", "uint16-lengths"])
    @pytest.mark.parametrize("make_scheme", [
        RunLengthEncoding, _rle_cascade, lambda: RunLengthEncoding(narrow_lengths=False),
        RunPositionEncoding, _rpe_cascade, lambda: RunPositionEncoding(narrow_positions=False),
    ], ids=["RLE", "RLE-cascade", "RLE-int64-lengths",
            "RPE", "RPE-cascade", "RPE-int64-positions"])
    def test_compiled_equals_interpreted(self, make_scheme, column):
        scheme = make_scheme()
        column = Column(column.astype(np.int64))
        form = scheme.compress(column)
        plan = scheme.compiled_decompression_plan(form).plan
        assert "Repeat" in _ops(plan) and "Scatter" not in _ops(plan)
        assert check_optimization(scheme.decompression_plan(form),
                                  entry_facts_for_form(scheme, form)) == []
        compiled = scheme.decompress(form)
        assert compiled.equals(scheme.decompress_interpreted(form), check_dtype=True)
        assert compiled.equals(column, check_dtype=True)

    def test_uint64_lengths_expand_like_algorithm_one(self):
        plan = build_rle_decompression_plan()
        inputs = {"lengths": Column(np.array([2, 1, 3], dtype=np.uint64)),
                  "values": Column([10, 20, 30])}
        assert optimize(plan).evaluate(inputs).equals(plan.evaluate(inputs),
                                                      check_dtype=True)
        plan = build_rpe_decompression_plan()
        inputs = {"run_positions": Column(np.array([2, 3, 6], dtype=np.uint64)),
                  "values": Column([10, 20, 30])}
        assert optimize(plan).evaluate(inputs).equals(plan.evaluate(inputs),
                                                      check_dtype=True)


class TestRunDomainQueries:
    """A range filter or a gather on a run expansion runs on the runs."""

    INPUTS = {"ends": Column([2, 2, 3, 6]), "lengths": Column(np.array([2, 0, 1, 3], np.uint8)),
              "values": Column([10, 15, 20, 30]), "positions": Column([5, 0, 2, 1, 2, 4])}
    REWRITTEN = {("filter", False): ["Between", "Repeat"],
                 ("filter", True): ["AdjacentDifference", "Between", "Repeat"],
                 ("gather", False): ["PrefixSum", "SearchSorted", "Gather"],
                 ("gather", True): ["SearchSorted", "Gather"]}

    @pytest.mark.parametrize("query", ["filter", "gather"])
    @pytest.mark.parametrize("stored_ends", [False, True], ids=["lengths", "ends"])
    def test_the_query_moves_onto_the_runs(self, query, stored_ends):
        b = PlanBuilder(["ends" if stored_ends else "lengths", "values", "positions"])
        lengths = b.step("lengths_of", "AdjacentDifference", col="ends") if stored_ends \
            else "lengths"
        b.step("expanded", "Repeat", values="values", lengths=lengths)
        if query == "filter":
            b.step("q", "Between", col="expanded", lo=12, hi=25)
        else:
            b.step("q", "Gather", values="expanded", indices="positions")
        plan = b.build("q")
        rewritten = query_runs_in_run_domain(plan)
        assert _ops(rewritten) == self.REWRITTEN[query, stored_ends]
        inputs = {name: self.INPUTS[name] for name in plan.inputs}
        assert rewritten.evaluate(inputs).equals(plan.evaluate(inputs), check_dtype=True)
        assert query_runs_in_run_domain(rewritten) is rewritten

    def test_decompression_plans_hold_no_query(self):
        plan = optimize(build_rle_decompression_plan())
        assert query_runs_in_run_domain(plan) is plan


def _algorithm_two_model(count=10, each=3, **overrides):
    """The model half of Algorithm 2 over input ``refs``, steps replaceable by name."""
    steps = {
        "id": ("Iota", {"length": count}),
        "ref_indices": ("Elementwise", {"op": "//", "left": "id", "right": each}),
        "out": ("Gather", {"values": "refs", "indices": "ref_indices"}),
    }
    steps.update(overrides)
    b = PlanBuilder(["refs", "other"])
    for output, (op, arguments) in steps.items():
        b.step(output, op, **arguments)
    return b


class TestStepFunctionRecomposition:
    REFS = {"refs": Column([10, 20, 30, 40]), "other": Column(np.arange(10) % 4)}

    @pytest.mark.parametrize("count, each", [(10, 3), (12, 3), (3, 7), (4, 1), (0, 5)],
                             ids=["cut-last-run", "whole-runs", "l>n", "l=1", "empty"])
    def test_gather_of_segment_indices_becomes_replicate(self, count, each):
        plan = _algorithm_two_model(count, each).build("out")
        rewritten = recompose_step_function(plan)
        assert _ops(rewritten) == ["Replicate"]
        assert rewritten.steps[0].params == {"each": each, "count": count}
        assert rewritten.evaluate(self.REFS).equals(plan.evaluate(self.REFS), check_dtype=True)
        assert _ops(optimize(plan)) == ["Replicate"]

    @pytest.mark.parametrize("overrides", [
        {"id": ("Iota", {"length": 10, "start": 1})},
        {"id": ("Iota", {"length": 10, "step": 2})},
        {"id": ("Iota", {"length": 10, "dtype": np.int32})},
        {"id": ("Iota", {"length": LengthOf("other")})},
        {"id": ("Ones", {"length": 10})},
        {"ref_indices": ("Elementwise", {"op": "%", "left": "id", "right": 3})},
        {"ref_indices": ("Elementwise", {"op": "//", "left": "id", "right": "other"})},
        {"ref_indices": ("Elementwise", {"op": "//", "left": "id", "right": 0})},
        {"ref_indices": ("Elementwise", {"op": "//", "left": "id", "right": 2.0})},
        {"ref_indices": ("Elementwise", {"op": "//", "left": 30, "right": "id"})},
        {"out": ("Gather", {"values": "ref_indices", "indices": "other"})},
    ], ids=["start", "step", "dtype", "paramref-length", "not-iota", "modulo", "column-divisor",
            "zero-divisor", "float-divisor", "divided-into", "gathered-not-indexing"])
    def test_lookalikes_are_left_alone(self, overrides):
        plan = _algorithm_two_model(**overrides).build("out")
        assert recompose_step_function(plan) is plan

    def test_stepfunction_template_stays_as_written(self):
        plan = build_stepfunction_evaluation_plan(128)
        assert recompose_step_function(plan) is plan
        assert "Replicate" not in _ops(optimize(plan))

    def test_index_column_with_a_second_reader_is_kept(self):
        b = _algorithm_two_model()
        b.step("both", "Elementwise", op="+", left="out", right="ref_indices")
        plan = b.build("both")
        rewritten = recompose_step_function(plan)
        assert _ops(rewritten) == ["Iota", "Elementwise", "Replicate", "Elementwise"]
        assert rewritten.evaluate(self.REFS).equals(plan.evaluate(self.REFS), check_dtype=True)

    def test_short_values_raise_like_the_gather_did(self):
        plan = _algorithm_two_model(count=13).build("out")  # needs 5 refs, has 4
        for candidate in (plan, recompose_step_function(plan), optimize(plan)):
            with pytest.raises(OperatorError):
                candidate.evaluate(self.REFS)

    def test_optimized_decode_regions(self):
        column = Column(np.cumsum(np.random.default_rng(7).integers(-4, 5, 4096)) + 10 ** 6)
        for scheme in (FrameOfReference(segment_length=64),
                       PatchedFrameOfReference(segment_length=64)):
            plan = scheme.compiled_decompression_plan(scheme.compress(column)).plan
            assert _ops(plan)[0] == "FusedElementwise" and "Iota" not in _ops(plan)
            kinds = [instruction[:2] if instruction[0] == "binary" else instruction[:1]
                     for instruction in plan.steps[0].params["chain"]]
            assert kinds == [("unpack",), ("replicate",), ("binary", "+")]
        for scheme in (PiecewiseLinear(segment_length=64),
                       PiecewisePolynomial(segment_length=64, degree=2)):
            plan = scheme.compiled_decompression_plan(scheme.compress(column)).plan
            assert _ops(plan) == ["Iota", "Elementwise", "FusedElementwise"]
            assert plan.steps[1].params["op"] == "%"
            kinds = [instruction[0] for instruction in plan.steps[2].params["chain"]]
            assert kinds.count("replicate") == scheme.degree + 1 and "gather" not in kinds

    @pytest.mark.parametrize("faithful", [True, False])
    def test_aligned_decode_replicates_the_references(self, faithful):
        """An aligned FOR/PFOR stream is a plan input of no static length; the
        plan sizes its positions by the form's offsets count, so the model
        half still recomposes to ``replicate``, as the packed plan's does."""
        column = Column(np.cumsum(np.random.default_rng(7).integers(-4, 5, 4096)) + 10 ** 6)
        for scheme in (FrameOfReference(segment_length=64, offsets_layout="aligned",
                                        faithful_plan=faithful),
                       PatchedFrameOfReference(segment_length=64, offsets_layout="aligned")):
            plan = scheme.compiled_decompression_plan(scheme.compress(column)).plan
            assert _ops(plan)[0] == "FusedElementwise" and "Iota" not in _ops(plan)
            kinds = [instruction[:2] if instruction[0] == "binary" else instruction[:1]
                     for instruction in plan.steps[0].params["chain"]]
            assert kinds == [("replicate",), ("binary", "+")]

    @pytest.mark.parametrize("values", [
        np.cumsum(np.random.default_rng(11).integers(-4, 5, 65_536)) + 100_000,
        np.cumsum(np.random.default_rng(12).integers(1, 5, 1000)),       # n % l != 0
        np.arange(5),                                                    # l > n
        2 ** 60 + np.random.default_rng(13).integers(0, 2 ** 30, 777),   # refs beyond 2^53
        np.full(300, -7),
    ], ids=["65536-rows", "cut-last-segment", "shorter-than-a-segment", "beyond-2^53",
            "constant"])
    @pytest.mark.parametrize("make_scheme", [
        lambda: FrameOfReference(segment_length=128),
        lambda: FrameOfReference(segment_length=128, faithful_plan=False),
        lambda: FrameOfReference(segment_length=1),
        lambda: FrameOfReference(segment_length=128, offsets_layout="aligned"),
        lambda: PatchedFrameOfReference(segment_length=128),
        lambda: PiecewiseLinear(segment_length=128),
        lambda: PiecewisePolynomial(segment_length=128, degree=2),
    ], ids=["FOR", "FOR-iota", "FOR-l=1", "FOR-aligned", "PFOR", "LINEAR", "POLY"])
    def test_compiled_equals_interpreted_equals_input(self, make_scheme, values):
        scheme = make_scheme()
        column = Column(values.astype(np.int64))
        form = scheme.compress(column)
        assert check_optimization(scheme.decompression_plan(form),
                                  entry_facts_for_form(scheme, form)) == []
        compiled = scheme.decompress(form)
        assert compiled.equals(scheme.decompress_interpreted(form), check_dtype=True)
        assert np.array_equal(compiled.values, column.values) and compiled.dtype == column.dtype

    @pytest.mark.parametrize("make_scheme", [
        lambda: FrameOfReference(segment_length=128),
        lambda: PatchedFrameOfReference(segment_length=128),
        lambda: PiecewiseLinear(segment_length=128),
    ], ids=["FOR", "PFOR", "LINEAR"])
    def test_short_model_column_raises_never_decodes(self, make_scheme):
        scheme = make_scheme()
        form = scheme.compress(Column(np.arange(1000) * 3))
        model = "refs" if "refs" in form.columns else "coeff_0"
        columns = dict(form.columns)
        columns[model] = Column(form.columns[model].values[:-1])
        short = dataclasses.replace(form, columns=columns)
        with pytest.raises(OperatorError):
            scheme.decompress(short)
        with pytest.raises(OperatorError):
            scheme.decompress_interpreted(short)


class TestDeterministicSteps:
    def test_generators_and_derived_steps_are_deterministic(self):
        b = PlanBuilder(["data"])
        b.step("idx", "Iota", length=100)
        b.step("seg", "Elementwise", op="//", left="idx", right=10)
        b.step("out", "Gather", values="data", indices="seg")
        det = deterministic_steps(b.build("out"))
        assert set(det) == {"idx", "seg"}

    def test_paramref_breaks_determinism(self):
        b = PlanBuilder(["data"])
        b.step("idx", "Iota", length=LengthOf("data"))
        det = deterministic_steps(b.build("idx"))
        assert det == {}


class TestPipeline:
    def test_report_counts_passes(self):
        plan = build_for_decompression_plan(64, offsets_params=None,
                                            faithful_to_paper=True)
        optimized, report = optimize_with_report(plan)
        assert report.original_steps == len(plan.steps)
        assert report.optimized_steps == len(optimized.steps)
        assert report.steps_removed > 0
        assert [name for name, _, _ in report.passes]

    def test_optimizing_twice_is_stable(self):
        plan = build_rle_decompression_plan()
        once = optimize(plan)
        twice = optimize(once)
        assert _ops(once) == _ops(twice)
