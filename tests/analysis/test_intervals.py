"""Unit tests for the interval abstract interpreter and its corpus."""

import numpy as np
import pytest

from repro.analysis.corpus import KNOWN_BAD_PLANS, run_corpus
from repro.analysis.intervals import (
    Interval,
    analyze_plan,
    check_optimization,
    entry_fact,
    entry_facts_for_form,
)
from repro.columnar.column import Column
from repro.columnar.compile import fuse_elementwise_chains
from repro.columnar.plan import PlanBuilder
from repro.schemes import registry


class TestInterval:
    def test_contains_and_unbounded(self):
        assert Interval(0, 10).contains_value(10)
        assert not Interval(0, 10).contains_value(11)
        assert Interval().contains_value(2 ** 80)
        assert Interval(lo=5).contains_value(2 ** 80)
        assert not Interval(lo=5).contains_value(4)

    def test_hull(self):
        assert Interval(0, 3).hull(Interval(2, 9)) == Interval(0, 9)
        assert Interval(0, 3).hull(Interval()) == Interval()


class TestAnalyzePlan:
    def test_unknown_bounds_never_alarm(self):
        builder = PlanBuilder(["values"])
        builder.step("sums", "PrefixSum", col="values", dtype=np.int64)
        plan = builder.build("sums")
        facts = {"values": entry_fact(np.int64, lo=None, hi=None, length=None)}
        assert analyze_plan(plan, facts).findings == []

    def test_known_overflow_alarms(self):
        builder = PlanBuilder(["values"])
        builder.step("sums", "PrefixSum", col="values", dtype=np.int64)
        plan = builder.build("sums")
        facts = {"values": entry_fact(np.int64, lo=2 ** 40, hi=2 ** 40,
                                      length=2 ** 24)}
        kinds = {f.kind for f in analyze_plan(plan, facts).findings}
        assert "overflow" in kinds

    @pytest.mark.parametrize("op, facts, kind", [
        ("+", {"x": entry_fact(np.uint8, lo=0, hi=200, length=10)}, "overflow"),  # + 100
        ("*", {"x": entry_fact(np.int64, lo=0, hi=2 ** 60, length=10),
               "y": entry_fact(np.uint64, lo=0, hi=10, length=10)}, "precision-loss"),
    ], ids=["uint8-add", "int64-times-uint64"])
    def test_a_hazard_inside_a_fused_chain_is_flagged(self, op, facts, kind):
        builder = PlanBuilder(list(facts))
        builder.step("a", "Elementwise", op=op, left="x", right="y" if "y" in facts else 100)
        builder.step("out", "Elementwise", op="-", left="a", right=1)
        plan = builder.build("out")
        fused = fuse_elementwise_chains(plan)
        assert [step.op for step in fused.steps] == ["FusedElementwise"]
        unfused = {finding.kind for finding in analyze_plan(plan, facts).findings}
        findings = analyze_plan(fused, facts).findings
        assert kind in unfused and {finding.kind for finding in findings} == unfused
        assert {finding.where for finding in findings} == {"out <- FusedElementwise"}

    def test_output_dtype_accessor_matches_analysis(self):
        scheme = registry.make_scheme("RLE")
        data = Column(np.repeat(np.arange(9, dtype=np.int64), 3))
        form = scheme.compress(data)
        plan = scheme.decompression_plan(form)
        facts = entry_facts_for_form(scheme, form)
        dtypes = {name: fact.dtype for name, fact in facts.items()}
        assert plan.output_dtype(dtypes) == np.dtype(np.int64)
        assert analyze_plan(plan, facts).output_fact.dtype == np.dtype(np.int64)


class TestCorpus:
    @pytest.mark.parametrize("bad", KNOWN_BAD_PLANS, ids=lambda b: b.name)
    def test_every_seeded_bug_is_flagged(self, bad):
        plan, facts = bad.build()
        findings = analyze_plan(plan, facts).findings
        assert any(f.kind == bad.expected_kind for f in findings), findings

    def test_run_corpus_reports_all_flagged(self):
        assert all(flagged for __, __, flagged in run_corpus())


class TestTranslationValidation:
    @pytest.mark.parametrize("name", registry.available_schemes())
    def test_optimizer_passes_preserve_facts(self, name):
        scheme = registry.make_scheme(name)
        data = Column((np.arange(101, dtype=np.int64) * 13) % 47 - 11)
        form = scheme.compress(data)
        plan = scheme.decompression_plan(form)
        facts = entry_facts_for_form(scheme, form)
        assert check_optimization(plan, facts) == []
