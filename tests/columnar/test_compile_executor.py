"""Tests for the compiled-plan executor and the compile caches."""
import pytest

from repro.columnar import Column
from repro.columnar.compile import (
    cache_info,
    clear_caches,
    clear_generated_column_cache,
    compile_plan,
    compiled_plan,
    compiled_plan_for_scheme,
    generated_column_cache_info,
    plan_signature,
)
from repro.columnar.plan import PlanBuilder
from repro.errors import PlanError
from repro.schemes import FrameOfReference, PiecewiseLinear, RunLengthEncoding
from repro.schemes.rle import build_rle_decompression_plan
from repro.workloads import runs_column, smooth_measure


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    clear_generated_column_cache()
    yield
    clear_caches()
    clear_generated_column_cache()


def _rle_inputs(column):
    scheme = RunLengthEncoding()
    form = scheme.compress(column)
    return scheme, form, scheme.plan_inputs(form)


class TestCompiledPlanExecution:
    def test_run_matches_interpreter(self, runs_data):
        plan = build_rle_decompression_plan()
        _, _, inputs = _rle_inputs(runs_data)
        compiled = compile_plan(plan)
        assert compiled.run(inputs).equals(plan.evaluate(inputs), check_dtype=True)

    def test_missing_input_raises(self):
        compiled = compile_plan(build_rle_decompression_plan())
        with pytest.raises(PlanError, match="missing plan input"):
            compiled.run({})

    def test_output_can_be_an_input(self):
        b = PlanBuilder(["x"])
        b.step("y", "PrefixSum", col="x")
        plan = b.build("x")  # a valid (if trivial) plan returning its input
        compiled = compile_plan(plan)
        x = Column([1, 2])
        assert compiled.run({"x": x}).equals(x)

    def test_run_detailed_cost_matches_optimized_plan(self, runs_data):
        _, _, inputs = _rle_inputs(runs_data)
        compiled = compile_plan(build_rle_decompression_plan())
        result = compiled.run_detailed(inputs, collect_cost=True)
        reference = compiled.plan.evaluate_detailed(inputs)
        assert result.cost.operator_invocations == reference.cost.operator_invocations
        assert result.cost.weighted_cost == pytest.approx(reference.cost.weighted_cost)

    def test_run_detailed_binding_retention_is_opt_in(self, runs_data):
        _, _, inputs = _rle_inputs(runs_data)
        compiled = compile_plan(build_rle_decompression_plan())
        lean = compiled.run_detailed(inputs, collect_cost=False, keep_bindings=False)
        full = compiled.run_detailed(inputs, collect_cost=False, keep_bindings=True)
        assert set(lean.bindings) < set(full.bindings)
        assert compiled.plan.output in lean.bindings


class TestGeneratedColumnCache:
    def test_generator_columns_are_shared_across_runs(self):
        # LINEAR keeps a deterministic subplan: its in-segment position column
        # Iota(n) % l (RLE and RPE compile to Repeat, FOR to Replicate, which
        # retire their generator steps).
        scheme = PiecewiseLinear(segment_length=64)
        form = scheme.compress(smooth_measure(4096, seed=5))
        inputs = scheme.plan_inputs(form)
        compiled = compile_plan(scheme.decompression_plan(form))
        assert [step.op for step in compiled.plan.steps] == [
            "Iota", "Elementwise", "FusedElementwise"]
        compiled.run(inputs)
        before = generated_column_cache_info()
        compiled.run(inputs)
        after = generated_column_cache_info()
        assert after["hits"] > before["hits"]

    def test_deterministic_subplans_are_cached(self):
        scheme = PiecewiseLinear(segment_length=64)
        column = smooth_measure(4096, seed=5)
        form = scheme.compress(column)
        out1 = scheme.decompress(form)
        hits_before = generated_column_cache_info()["hits"]
        out2 = scheme.decompress(form)
        assert generated_column_cache_info()["hits"] > hits_before
        assert out1.equals(out2, check_dtype=True)
        assert out1.equals(column)


class TestPlanCache:
    def test_signature_ignores_description(self):
        a = build_rle_decompression_plan()
        b = build_rle_decompression_plan()
        b.description = "something else"
        assert plan_signature(a) == plan_signature(b)

    def test_rebuilt_plans_share_one_compiled_plan(self):
        first = compiled_plan(build_rle_decompression_plan())
        second = compiled_plan(build_rle_decompression_plan())
        assert first is second
        info = cache_info()
        assert info["plan_hits"] == 1 and info["plan_misses"] == 1

    def test_scheme_level_cache_shares_across_forms(self, runs_data):
        scheme = RunLengthEncoding()
        half = len(runs_data) // 2
        form_a = scheme.compress(runs_data[:half])
        form_b = scheme.compress(runs_data[half:])
        compiled_a = compiled_plan_for_scheme(scheme, form_a)
        compiled_b = compiled_plan_for_scheme(scheme, form_b)
        assert compiled_a is compiled_b
        assert cache_info()["scheme_hits"] >= 1

    def test_partial_plan_compilation(self, runs_data):
        scheme, form, inputs = _rle_inputs(runs_data)
        compiled = compiled_plan(build_rle_decompression_plan().truncate_at("run_positions"))
        positions = compiled.run(inputs)
        expected = build_rle_decompression_plan().evaluate_detailed(
            inputs, stop_after="run_positions").output
        assert positions.equals(expected, check_dtype=True)


class TestSchemeIntegration:
    def test_decompress_equals_interpreted_for_rle(self, runs_data):
        scheme = RunLengthEncoding()
        form = scheme.compress(runs_data)
        assert scheme.decompress(form).equals(scheme.decompress_interpreted(form),
                                              check_dtype=True)

    def test_plan_cache_key_distinguishes_configurations(self, runs_data):
        form = FrameOfReference(segment_length=64).compress(
            smooth_measure(1024, seed=1))
        faithful = FrameOfReference(segment_length=64, faithful_plan=True)
        direct = FrameOfReference(segment_length=64, faithful_plan=False)
        assert faithful.plan_cache_key(form) != direct.plan_cache_key(form)

    def test_storage_chunks_share_compiled_plan(self):
        from repro.storage.column_store import StoredColumn

        column = runs_column(40_000, average_run_length=20.0,
                             num_distinct_values=100, seed=3)
        stored = StoredColumn.from_column(column, scheme=RunLengthEncoding(),
                                          chunk_size=4096)
        assert stored.num_chunks > 1
        # one compiled plan for all
        assert len({id(chunk.compiled_plan()) for chunk in stored.chunks}) == 1
        assert stored.materialize().equals(column)
        info = cache_info()
        assert info["scheme_hits"] >= stored.num_chunks - 1
