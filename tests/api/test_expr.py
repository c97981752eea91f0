"""Unit tests for the expression DSL: evaluation, intervals, normalization."""

import numpy as np
import pytest

from repro.api.expr import (
    Alias,
    BooleanAnd,
    BooleanOr,
    Comparison,
    col,
    count,
    lit,
    normalize_boolean,
    split_conjuncts,
)
from repro.columnar import Column
from repro.errors import QueryError
from repro.storage import compute_statistics


ENV = {
    "a": np.array([1, 2, 3, 4, 5], dtype=np.int64),
    "b": np.array([5, 4, 3, 2, 1], dtype=np.int64),
}


class TestEvaluation:
    def test_arithmetic(self):
        expr = (col("a") * 2 + col("b")) - 1
        assert np.array_equal(expr.evaluate(ENV), ENV["a"] * 2 + ENV["b"] - 1)

    def test_right_hand_operators(self):
        assert np.array_equal((10 - col("a")).evaluate(ENV), 10 - ENV["a"])
        assert np.array_equal((3 * col("a")).evaluate(ENV), 3 * ENV["a"])
        assert np.array_equal((1 + col("a")).evaluate(ENV), 1 + ENV["a"])

    def test_division_modulo(self):
        assert np.allclose((col("a") / 2).evaluate(ENV), ENV["a"] / 2)
        assert np.array_equal((col("a") // 2).evaluate(ENV), ENV["a"] // 2)
        assert np.array_equal((col("a") % 2).evaluate(ENV), ENV["a"] % 2)

    def test_negation(self):
        assert np.array_equal((-col("a")).evaluate(ENV), -ENV["a"])

    def test_comparisons(self):
        assert np.array_equal((col("a") < col("b")).evaluate(ENV),
                              ENV["a"] < ENV["b"])
        assert np.array_equal((col("a") >= 3).evaluate(ENV), ENV["a"] >= 3)
        assert np.array_equal((col("a") == 2).evaluate(ENV), ENV["a"] == 2)
        assert np.array_equal((col("a") != 2).evaluate(ENV), ENV["a"] != 2)

    def test_boolean_algebra(self):
        expr = (col("a") > 1) & ~(col("b") == 3) | (col("a") == 1)
        expected = (ENV["a"] > 1) & ~(ENV["b"] == 3) | (ENV["a"] == 1)
        assert np.array_equal(expr.evaluate(ENV), expected)

    def test_between_isin(self):
        assert np.array_equal(col("a").between(2, 4).evaluate(ENV),
                              (ENV["a"] >= 2) & (ENV["a"] <= 4))
        assert np.array_equal(col("a").isin([1, 4]).evaluate(ENV),
                              np.isin(ENV["a"], [1, 4]))

    def test_columns_ordered_unique(self):
        expr = (col("a") + col("b")) * col("a")
        assert expr.columns() == ["a", "b"]

    def test_substitute_inlines(self):
        derived = col("a") * 2
        expr = (col("rev") + col("b")).substitute({"rev": derived})
        assert np.array_equal(expr.evaluate(ENV), ENV["a"] * 2 + ENV["b"])


class TestNaming:
    def test_output_names(self):
        assert col("a").output_name() == "a"
        assert col("a").sum().output_name() == "sum(a)"
        assert count().output_name() == "count(*)"
        assert (col("a") * 2).alias("twice").output_name() == "twice"

    def test_alias_transparent(self):
        aliased = (col("a") + 1).alias("x")
        assert isinstance(aliased, Alias)
        assert np.array_equal(aliased.evaluate(ENV), ENV["a"] + 1)

    def test_reprs(self):
        assert repr(col("a") > 3) == "(a > 3)"
        assert repr(col("a").between(1, 2)) == "(a BETWEEN 1 AND 2)"
        assert "sum(a)" in repr(col("a").sum())


class TestErrors:
    def test_truthiness_raises(self):
        with pytest.raises(QueryError, match="truth value"):
            bool(col("a") > 1)
        with pytest.raises(QueryError, match="truth value"):
            (col("a") > 1) and (col("b") > 1)

    def test_nested_aggregate_rejected(self):
        with pytest.raises(QueryError, match="nested aggregate"):
            col("a").sum().mean()

    def test_non_numeric_literal_rejected(self):
        with pytest.raises(QueryError):
            lit("strings are not supported")
        with pytest.raises(QueryError):
            col("a") + "nope"

    def test_empty_isin_rejected(self):
        with pytest.raises(QueryError):
            col("a").isin([])

    def test_inverted_between_rejected(self):
        with pytest.raises(QueryError):
            col("a").between(5, 1)

    def test_aggregate_eval_rejected(self):
        with pytest.raises(QueryError, match="elementwise"):
            col("a").sum().evaluate(ENV)


class TestIntervals:
    BOUNDS = {"a": (1, 5), "b": (10, 20)}

    def test_column_and_arithmetic_bounds(self):
        assert col("a").bounds(self.BOUNDS) == (1, 5)
        assert (col("a") + col("b")).bounds(self.BOUNDS) == (11, 25)
        assert (col("a") - col("b")).bounds(self.BOUNDS) == (-19, -5)
        assert (col("a") * col("b")).bounds(self.BOUNDS) == (10, 100)
        assert (-col("a")).bounds(self.BOUNDS) == (-5, -1)

    def test_unknown_bounds_propagate(self):
        assert (col("a") / 2).bounds(self.BOUNDS) is None
        assert (col("missing") + 1).bounds(self.BOUNDS) is None

    def test_comparison_decisions(self):
        assert (col("a") < col("b")).decide(self.BOUNDS) is True
        assert (col("a") > col("b")).decide(self.BOUNDS) is False
        assert (col("a") < 3).decide(self.BOUNDS) is None
        assert (col("a") <= 5).decide(self.BOUNDS) is True
        assert (col("a") >= 6).decide(self.BOUNDS) is False

    def test_between_isin_decisions(self):
        assert col("a").between(0, 9).decide(self.BOUNDS) is True
        assert col("a").between(6, 9).decide(self.BOUNDS) is False
        assert col("a").between(3, 9).decide(self.BOUNDS) is None
        assert col("a").isin([7, 8]).decide(self.BOUNDS) is False

    def test_boolean_decisions(self):
        t = col("a") <= 5
        f = col("a") >= 6
        u = col("a") <= 3
        assert (t & f).decide(self.BOUNDS) is False
        assert (t | f).decide(self.BOUNDS) is True
        assert (~f).decide(self.BOUNDS) is True
        assert (t & u).decide(self.BOUNDS) is None

    def test_decision_matches_evaluation(self):
        """decide() may only claim True/False when evaluation agrees everywhere."""
        rng = np.random.default_rng(3)
        values = rng.integers(-50, 50, 200)
        env = {"a": values}
        bounds = {"a": (int(values.min()), int(values.max()))}
        exprs = [
            col("a").between(-10, 10),
            ~col("a").between(-100, 100),
            (col("a") * 2 + 5) > -1000,
            (col("a") < -60) | (col("a") >= -50),
            col("a").isin([999]),
        ]
        for expr in exprs:
            decision = expr.decide(bounds)
            if decision is None:
                continue
            mask = np.asarray(expr.evaluate(env), dtype=bool)
            assert bool(mask.all()) == decision or bool(~mask.any()) == (not decision)
            if decision:
                assert mask.all()
            else:
                assert not mask.any()


def _zone(values):
    """A chunk's zone map as the scan hands it to ``decide``."""
    stats = compute_statistics(Column(values))
    return {"x": (int(stats.minimum), int(stats.maximum))}


class TestChunkVerdicts:
    """The verdicts a scan reads off one chunk's statistics."""

    def test_between_is_inclusive(self):
        mask = col("x").between(3, 3).evaluate({"x": np.array([2, 3, 4])})
        assert mask.tolist() == [False, True, False]

    def test_between_verdicts_from_a_chunks_statistics(self):
        zone = _zone([10, 20])
        assert col("x").between(30, 40).decide(zone) is False
        assert col("x").between(0, 100).decide(zone) is True
        assert col("x").between(15, 100).decide(zone) is None

    def test_equals_verdicts_from_a_chunks_statistics(self):
        assert (col("x") == 5).decide(_zone([5, 5, 5])) is True
        assert (col("x") == 6).decide(_zone([5, 5, 5])) is False
        assert (col("x") == 5).decide(_zone([4, 5, 6])) is None

    def test_isin_rejects_a_chunk_outside_its_candidates(self):
        assert col("x").isin([1, 2]).decide(_zone([100, 200])) is False
        assert col("x").isin([1, 200]).decide(_zone([100, 200])) is None

    def test_isin_accepts_a_constant_chunk_of_a_candidate(self):
        assert col("x").isin([3, 7]).decide(_zone([7, 7])) is True
        assert col("x").isin([3, 7]).decide(_zone([5, 5])) is None

    def test_and_or_over_one_column(self):
        env = {"x": np.array([1, 3, 5, 7])}
        both = col("x").between(2, 8) & (col("x") == 5)
        either = (col("x") == 1) | (col("x") == 3)
        assert both.evaluate(env).tolist() == [False, False, True, False]
        assert either.evaluate(env).tolist() == [True, True, False, False]

    def test_and_or_verdicts_from_a_chunks_statistics(self):
        zone = _zone([10, 20])
        assert (col("x").between(0, 100) & col("x").between(200, 300)).decide(zone) is False
        assert (col("x").between(0, 100) & col("x").between(5, 50)).decide(zone) is True
        assert (col("x").between(0, 100) & col("x").between(15, 50)).decide(zone) is None
        assert (col("x").between(0, 5) | col("x").between(0, 100)).decide(zone) is True
        assert (col("x").between(0, 5) | col("x").between(50, 60)).decide(zone) is False

    def test_integer_literals_decide_exactly(self):
        """Beyond 2**53 a float would round: ``== 2**53 + 1`` must not accept
        a chunk of ``2**53``."""
        assert (col("x") == 2**53 + 1).decide({"x": (2**53, 2**53)}) is False
        assert (col("x") < 2**63 - 1).decide({"x": (2**63 - 1, 2**63 - 1)}) is False

    @pytest.mark.parametrize("expr", [col("x") > float(2**53), col("x") <= float(2**53),
                                      col("x").between(0.5, float(2**53)),
                                      col("x") == float(2**53)],
                             ids=["gt", "le", "between", "eq"])
    def test_float_literals_decide_as_numpy_compares(self, expr):
        """NumPy compares an integer column with a float in float64: the
        verdict may only claim what that comparison gives."""
        values = np.array([2**53 + 1, 2**53 + 1], dtype=np.int64)
        decision = expr.decide({"x": (2**53 + 1, 2**53 + 1)})
        mask = np.asarray(expr.evaluate({"x": values}), dtype=bool)
        assert decision is None or mask.tolist() == [decision] * 2


class TestColumnRange:
    """The one range rule, over plain-int literals."""

    def test_between(self):
        assert col("x").between(2, 5).column_range() == ("x", 2, 5, 0, True)
        assert col("x").between(np.int64(-3), np.uint64(2**64 - 1)).column_range() == (
            "x", -3, 2**64 - 1, 0, True)

    @pytest.mark.parametrize("expr, expected", [
        (col("x") < 5, ("x", None, 4, 0, True)), (col("x") <= 5, ("x", None, 5, 0, True)),
        (col("x") > 5, ("x", 6, None, 0, True)), (col("x") >= 5, ("x", 5, None, 0, True)),
        (col("x") == 5, ("x", 5, 5, 1, True)),
        (lit(5) > col("x"), ("x", None, 4, 0, True)), (lit(5) >= col("x"), ("x", None, 5, 0, True)),
        (lit(5) < col("x"), ("x", 6, None, 0, True)), (lit(5) <= col("x"), ("x", 5, None, 0, True)),
        (lit(5) == col("x"), ("x", 5, 5, 1, True)),
    ], ids=["lt", "le", "gt", "ge", "eq", "flip-lt", "flip-le", "flip-gt", "flip-ge", "flip-eq"])
    def test_comparisons_with_the_column_on_either_side(self, expr, expected):
        assert expr.column_range() == expected

    def test_isin_counts_its_candidates(self):
        assert col("x").isin([9, 2, 4]).column_range() == ("x", 2, 9, 3, False)
        assert col("x").isin([4]).column_range() == ("x", 4, 4, 1, False)

    @pytest.mark.parametrize("expr", [
        col("x") != 5, col("x") < 5.0, col("x") == True,  # noqa: E712
        col("x").between(0.5, 3), col("x").isin([1, 2.5]), (col("x") + 1) < 5,
        col("x") < col("y"), (col("x") < 5) | (col("x") > 9), col("x"),
    ], ids=["ne", "float", "bool", "float-between", "float-isin", "expression",
            "two-columns", "or", "bare-column"])
    def test_anything_else_is_no_range(self, expr):
        assert expr.column_range() is None


class TestIsinExact:
    """``isin`` on an integer column matches exactly the candidates its
    dtype holds, as the OR of ``==`` over them does."""

    def test_candidates_the_dtype_cannot_hold_match_nothing(self):
        values = np.array([-1, 0, 2**63 - 1], dtype=np.int64)
        mask = col("x").isin([-1, 2**63 + 5]).evaluate({"x": values})
        assert mask.tolist() == [True, False, False]

    def test_non_integral_candidates_match_nothing(self):
        values = np.array([2**53, 2**53 + 1, 0], dtype=np.int64)
        mask = col("x").isin([2**53, 0.5]).evaluate({"x": values})
        assert mask.tolist() == [True, False, False]

    def test_an_integral_float_candidate_is_its_integer(self):
        values = np.array([-2, 1, 3], dtype=np.int8)
        assert col("x").isin([1.0, -2.0, 3.5]).evaluate({"x": values}).tolist() == [
            True, True, False]

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.uint64])
    def test_isin_is_the_or_of_equals(self, dtype):
        info = np.iinfo(dtype)
        values = np.array([info.min, info.min + 1, 0, 1, info.max - 1, info.max], dtype=dtype)
        candidates = [info.min - 1, info.min, 1, info.max, info.max + 1, 2**64 + 3,
                      np.uint64(1), np.int64(-1)]
        either = col("x") == candidates[0]
        for candidate in candidates[1:]:
            either = either | (col("x") == candidate)
        env = {"x": values}
        assert col("x").isin(candidates).evaluate(env).tolist() == \
            np.asarray(either.evaluate(env)).tolist()


class TestNormalization:
    def test_double_negation(self):
        expr = ~~(col("a") > 1)
        normalized = normalize_boolean(expr)
        assert isinstance(normalized, Comparison)
        assert repr(normalized) == "(a > 1)"

    def test_de_morgan_or(self):
        expr = ~((col("a") > 1) | (col("b") < 2))
        normalized = normalize_boolean(expr)
        assert isinstance(normalized, BooleanAnd)
        assert repr(normalized) == "((a <= 1) AND (b >= 2))"

    def test_de_morgan_and(self):
        expr = ~((col("a") > 1) & (col("b") < 2))
        normalized = normalize_boolean(expr)
        assert isinstance(normalized, BooleanOr)

    def test_not_comparison_flips(self):
        assert repr(normalize_boolean(~(col("a") == 3))) == "(a != 3)"
        assert repr(normalize_boolean(~(col("a") <= 3))) == "(a > 3)"

    def test_normalization_preserves_semantics(self):
        rng = np.random.default_rng(7)
        env = {"a": rng.integers(0, 10, 500), "b": rng.integers(0, 10, 500)}
        exprs = [
            ~((col("a") > 3) | ~(col("b") < 7)),
            ~(~(col("a") == 2) & (col("b") != 5)),
            ~~((col("a") <= col("b")) | (col("a") > 8)),
        ]
        for expr in exprs:
            left = np.asarray(expr.evaluate(env), dtype=bool)
            right = np.asarray(normalize_boolean(expr).evaluate(env), dtype=bool)
            assert np.array_equal(left, right)

    def test_split_conjuncts(self):
        parts = split_conjuncts((col("a") > 1) & (col("b") < 2) & (col("a") != 5))
        assert len(parts) == 3

    def test_not_propagates_into_and_children(self):
        normalized = normalize_boolean(~(~(col("a") > 1) & (col("b") < 2)))
        env = {"a": np.array([0, 2]), "b": np.array([1, 3])}
        expected = ~(~(env["a"] > 1) & (env["b"] < 2))
        assert np.array_equal(np.asarray(normalized.evaluate(env), dtype=bool),
                              expected)
