"""Unit tests for the AST engine-invariant lints."""

from pathlib import Path
from textwrap import dedent

import repro
from repro.analysis.lint import RULES, lint_file, lint_tree


def _lint_snippet(tmp_path: Path, relative: str, source: str):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dedent(source))
    return lint_file(path, tmp_path)


class TestRA001:
    def test_bare_sum_in_accumulation_scope_flags(self, tmp_path):
        findings = _lint_snippet(tmp_path, "engine/operators.py", """
            def fold(values):
                return values.sum()
            """)
        assert [f.kind for f in findings] == ["RA001"]

    def test_wide_dtype_is_clean(self, tmp_path):
        findings = _lint_snippet(tmp_path, "engine/operators.py", """
            import numpy as np

            def fold(values):
                return values.sum(dtype=np.int64)
            """)
        assert findings == []

    def test_narrow_dtype_flags(self, tmp_path):
        findings = _lint_snippet(tmp_path, "columnar/ops/scan.py", """
            import numpy as np

            def fold(values):
                return np.cumsum(values, dtype=np.int32)
            """)
        assert [f.kind for f in findings] == ["RA001"]

    def test_out_of_scope_file_is_ignored(self, tmp_path):
        findings = _lint_snippet(tmp_path, "api/frames.py", """
            def fold(values):
                return values.sum()
            """)
        assert findings == []

    def test_inline_suppression(self, tmp_path):
        findings = _lint_snippet(tmp_path, "engine/operators.py", """
            def fold(values):
                return values.sum()  # repro: ignore[RA001] -- float64 path
            """)
        assert findings == []

    def test_suppression_for_other_rule_does_not_apply(self, tmp_path):
        findings = _lint_snippet(tmp_path, "engine/operators.py", """
            def fold(values):
                return values.sum()  # repro: ignore[RA002]
            """)
        assert [f.kind for f in findings] == ["RA001"]


class TestRA002:
    def test_set_iteration_in_merge_flags(self, tmp_path):
        findings = _lint_snippet(tmp_path, "engine/operators.py", """
            def merge_states(left, right):
                for key in set(left) | set(right):
                    left[key] = right.get(key, left.get(key))
            """)
        assert [f.kind for f in findings] == ["RA002"]

    def test_keys_algebra_flags(self, tmp_path):
        findings = _lint_snippet(tmp_path, "engine/operators.py", """
            def merge(left, right):
                return [left[k] for k in left.keys() | right.keys()]
            """)
        assert [f.kind for f in findings] == ["RA002"]

    def test_sorted_iteration_is_clean(self, tmp_path):
        findings = _lint_snippet(tmp_path, "engine/operators.py", """
            def merge_states(left, right):
                for key in sorted(set(left) | set(right)):
                    left[key] = right.get(key, left.get(key))
            """)
        assert findings == []

    def test_non_merge_function_is_ignored(self, tmp_path):
        findings = _lint_snippet(tmp_path, "engine/operators.py", """
            def collect(items):
                for item in set(items):
                    yield item
            """)
        assert findings == []


class TestRA003:
    def test_direct_decompress_in_scan_flags(self, tmp_path):
        findings = _lint_snippet(tmp_path, "engine/scan.py", """
            def evaluate(scheme, form):
                return scheme.decompress(form)
            """)
        assert [f.kind for f in findings] == ["RA003"]

    def test_chunk_values_is_the_sanctioned_site(self, tmp_path):
        findings = _lint_snippet(tmp_path, "engine/scan.py", """
            def chunk_values(scheme, form):
                return scheme.decompress(form)
            """)
        assert findings == []

    def test_the_state_builder_is_linted_like_the_executor(self, tmp_path):
        findings = _lint_snippet(tmp_path, "engine/operators.py", """
            def aggregate_state(chunk, local):
                return chunk.decompress().values[local]
            """)
        assert [f.kind for f in findings] == ["RA003"]

    def test_other_files_may_decompress(self, tmp_path):
        findings = _lint_snippet(tmp_path, "engine/query.py", """
            def evaluate(scheme, form):
                return scheme.decompress(form)
            """)
        assert findings == []


class TestTree:
    def test_rule_table_is_complete(self):
        assert set(RULES) == {"RA001", "RA002", "RA003"}

    def test_current_source_tree_is_clean(self):
        root = Path(repro.__file__).parent
        assert lint_tree(root) == []
