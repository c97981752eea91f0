"""AST-level engine-invariant lints over ``src/repro``.

Three invariants that generic linters cannot express, each of which has a
wrong-result (not crash) failure mode:

* **RA001 accumulator-width** — in the accumulation-sensitive modules
  (``columnar/ops``, ``engine/operators.py``, ``engine/kernels.py``), every
  ``sum``/``cumsum`` must pass an explicit 64-bit ``dtype=``.  NumPy's
  default accumulator follows the input dtype, so a narrow column sums in
  its own width and wraps silently.
* **RA002 merge-determinism** — partial-merge code (any function whose name
  contains ``merge``) must not iterate over sets or set-algebra of dict
  keys: partial-aggregate merging is only order-insensitive if the code
  never *depends* on an iteration order that differs between workers.
* **RA003 scan-cache-bypass** — inside the range executor
  (``engine/scan.py``) and the aggregate state builder it calls
  (``engine/operators.py``), chunk decompression must go through the shared
  per-scan cache (the ``chunk_values`` closure, handed to the state builder
  as an argument); a direct ``.decompress()`` call silently re-decodes the
  chunk and skips the ``chunks_decompressed`` accounting.

Suppress a finding inline with ``# repro: ignore[RA001]`` (or a bare
``# repro: ignore``) on the flagged line, ideally with a trailing reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .intervals import Finding

__all__ = ["RULES", "lint_file", "lint_tree"]

#: rule id -> one-line description (the CLI prints this as the rule list).
RULES: Dict[str, str] = {
    "RA001": "sum/cumsum in accumulation paths must pass an explicit 64-bit dtype",
    "RA002": "merge functions must not iterate over sets (order is not deterministic)",
    "RA003": "the range executor and its state builder must decompress chunks "
             "via the shared chunk_values cache",
}

_SUPPRESS = re.compile(r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Z0-9, ]+)\])?")

_ACCUMULATION_SCOPE = (
    "columnar/ops/",
    "engine/operators.py",
    "engine/kernels.py",
)

#: Where a range's chunks are read: the executor and the state builder.
_RANGE_EXECUTION_SCOPE = (
    "engine/scan.py",
    "engine/operators.py",
)

_WIDE_DTYPES = frozenset(("int64", "uint64", "float64"))


def _suppressed(lines: Sequence[str], lineno: int, rule: str) -> bool:
    if not 1 <= lineno <= len(lines):
        return False
    match = _SUPPRESS.search(lines[lineno - 1])
    if match is None:
        return False
    which = match.group("rules")
    if which is None:
        return True
    return rule in {r.strip() for r in which.split(",")}


def _dtype_kwarg_is_wide(call: ast.Call) -> Optional[bool]:
    """True/False for an explicit ``dtype=`` kwarg, ``None`` when absent."""
    for keyword in call.keywords:
        if keyword.arg != "dtype":
            continue
        value = keyword.value
        if isinstance(value, ast.Attribute):  # np.int64 and friends
            return value.attr in _WIDE_DTYPES
        if isinstance(value, ast.Name):  # a computed accumulator dtype
            return True
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return value.value in _WIDE_DTYPES
        return True  # anything computed: give it the benefit of the doubt
    return None


def _is_sum_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("sum", "cumsum"):
        # Exclude np.add.reduce-style ufunc methods and Python builtins.
        return not (isinstance(func.value, ast.Name) and func.value.id == "builtins")
    return False


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _keys_call(node.left) or _keys_call(node.right) \
            or _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def _keys_call(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys")


class _Linter(ast.NodeVisitor):
    def __init__(self, relative: str, lines: Sequence[str]):
        self.relative = relative
        self.lines = lines
        self.findings: List[Finding] = []
        self._function_stack: List[str] = []

    # ------------------------------------------------------------------ #

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if _suppressed(self.lines, lineno, rule):
            return
        self.findings.append(
            Finding(rule, f"{self.relative}:{lineno}", message))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _in_merge_function(self) -> bool:
        return any("merge" in name for name in self._function_stack)

    # ------------------------------------------------------------------ #

    def visit_Call(self, node: ast.Call) -> None:
        if any(self.relative.endswith(scope) or scope in self.relative
               for scope in _ACCUMULATION_SCOPE) and _is_sum_call(node):
            wide = _dtype_kwarg_is_wide(node)
            if wide is None:
                self._report(
                    "RA001", node,
                    "sum/cumsum without an explicit dtype accumulates in the "
                    "input dtype and can wrap; pass dtype=np.int64/np.uint64/"
                    "np.float64 (or a computed 64-bit accumulator)")
            elif wide is False:
                self._report(
                    "RA001", node,
                    "sum/cumsum accumulator dtype is narrower than 64 bits")
        if self.relative.endswith(_RANGE_EXECUTION_SCOPE):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "decompress" \
                    and "chunk_values" not in self._function_stack:
                self._report(
                    "RA003", node,
                    "direct .decompress() bypasses the shared per-scan chunk "
                    "cache; route through chunk_values()")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._in_merge_function() and _is_set_expression(node.iter):
            self._report(
                "RA002", node,
                "iterating a set inside a merge function is order-"
                "nondeterministic across workers; iterate a sorted list or "
                "the dict itself (insertion-ordered)")
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if self._in_merge_function() and _is_set_expression(node.iter):
            self._report(
                "RA002", node.iter,
                "comprehension over a set inside a merge function is order-"
                "nondeterministic across workers")
        self.generic_visit(node)


def lint_file(path: Path, root: Path) -> List[Finding]:
    """Lint one file; *root* anchors the path names used in findings."""
    relative = path.relative_to(root).as_posix()
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    linter = _Linter(relative, source.splitlines())
    linter.visit(tree)
    return linter.findings


def lint_tree(root: Path) -> List[Finding]:
    """Lint every ``*.py`` file under *root* (typically ``src/repro``)."""
    findings: List[Finding] = []
    for path in sorted(root.rglob("*.py")):
        findings.extend(lint_file(path, root))
    return findings
