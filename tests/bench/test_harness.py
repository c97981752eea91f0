"""Tests for the benchmark harness utilities."""

import pytest

from repro.bench import (
    ExperimentReport,
    compare_schemes,
    compression_row,
    format_table,
    measure_scheme,
    time_callable,
)
from repro.schemes import Delta, Identity, RunLengthEncoding
from repro.workloads import runs_column


class TestTiming:
    def test_time_callable_returns_result(self):
        timing = time_callable(lambda: 42, repeats=2, warmup=0)
        assert timing.result == 42
        assert timing.repeats == 2
        assert timing.best_seconds <= timing.mean_seconds

    def test_warmup_runs(self):
        calls = []
        time_callable(lambda: calls.append(1), repeats=2, warmup=3)
        assert len(calls) == 5


class TestComparisonRows:
    def test_compression_row_fields(self, runs_data):
        row = compression_row(RunLengthEncoding(), runs_data, repeats=1)
        assert row["ratio"] > 1
        assert row["bits_per_value"] > 0
        assert row["plan_operators"] == 7
        assert "decompress_plan_s" in row and "decompress_interpreted_s" in row

    def test_compare_schemes(self, runs_data):
        rows = compare_schemes([Identity(), RunLengthEncoding(), Delta()], runs_data,
                               repeats=1)
        assert [r["scheme"] for r in rows] == ["ID", "RLE(narrow_lengths=True)",
                                               "DELTA(narrow=True)"]

    def test_measure_scheme_reports_consistent_row(self):
        column = runs_column(4096 * 3, average_run_length=16.0,
                             num_distinct_values=128, seed=1)
        row = measure_scheme(RunLengthEncoding(), column, chunk_rows=4096, repeats=1)
        assert row["rows"] == len(column)
        assert row["chunks"] == 3
        assert row["interpreted_s"] > 0 and row["compiled_s"] > 0
        assert row["speedup"] == pytest.approx(
            row["interpreted_s"] / row["compiled_s"], rel=1e-6)
        assert row["optimized_steps"] <= row["plan_steps"]


class TestFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 123456, "b": "z"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_column_subset(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_float_formatting(self):
        text = format_table([{"x": 0.000001234, "y": 12345.678, "z": 1.5}])
        assert "e-" in text and "e+" in text and "1.500" in text


class TestExperimentReport:
    def test_add_rows_and_render(self):
        report = ExperimentReport("E1", "composition ratios")
        report.add_row(scheme="RLE", ratio=10.0)
        report.add_row(scheme="RLE∘DELTA", ratio=40.0)
        report.add_note("composite wins")
        text = report.render()
        assert "[E1]" in text
        assert "RLE∘DELTA" in text
        assert "note: composite wins" in text
