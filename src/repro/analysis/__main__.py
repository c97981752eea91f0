"""``python -m repro.analysis`` — run every static check and gate on clean.

Checks, in order:

1. **lint** — the AST engine-invariant rules over the installed ``repro``
   source tree (see :mod:`repro.analysis.lint` for the rule list);
2. **plans** — abstract interpretation of every scheme's and generated
   cascade's decompression plan (must be hazard-free) and translation
   validation of every optimizer pass over those plans, and over every
   scheme's filter and gather query plans (the run family's are rewritten
   into the run domain);
3. **corpus** — the four seeded historical-bug plans, each of which the
   interval analysis *must* flag (the analyzer's own regression suite).

Exit status 0 only if 1–2 are clean and every corpus plan is flagged.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

import numpy as np


def _lint(source_root: Path) -> List:
    from .lint import lint_tree

    return lint_tree(source_root)


def _plans() -> List:
    from ..columnar.column import Column
    from ..engine import RangeBounds, kernels
    from .corpus import decodable_schemes
    from .intervals import (analyze_plan, check_optimization, entry_facts_for_form,
                            entry_facts_from_columns)

    rng = np.random.default_rng(20180409)  # the paper's year+month, fixed
    base = np.repeat(rng.integers(-1000, 1000, 64), rng.integers(1, 9, 64))
    data = Column(base.astype(np.int64))
    sorted_data = Column(np.sort(base).astype(np.int64))
    queries = ((kernels.KERNEL_FILTER_RANGE, RangeBounds(-100, 100)),
               (kernels.KERNEL_GATHER, np.arange(0, len(base), 5)))
    findings: List = []
    for scheme in decodable_schemes():
        for sample in (data, sorted_data):
            form = scheme.compress(sample)
            plans = [(scheme.decompression_plan(form), entry_facts_for_form(scheme, form))]
            plans += [(kernels.query_plan(scheme, form, kind).source,
                       entry_facts_from_columns(kernels.query_inputs(scheme, form, query)))
                      for kind, query in queries]
            for plan, facts in plans:
                findings.extend(analyze_plan(plan, facts).findings)
                findings.extend(check_optimization(plan, facts))
    return findings


def _corpus() -> List:
    from .corpus import run_corpus
    from .intervals import Finding

    missed: List = []
    for bad, analysis, flagged in run_corpus():
        if not flagged:
            missed.append(Finding(
                "corpus-miss", bad.name,
                f"seeded bad plan was NOT flagged (expected a "
                f"{bad.expected_kind!r} finding): {bad.description}"))
    return missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="static verification of the repro engine")
    parser.add_argument("--source-root", type=Path, default=None,
                        help="source tree to lint (default: the installed "
                             "repro package)")
    parser.add_argument("--skip-lint", action="store_true")
    parser.add_argument("--skip-plans", action="store_true")
    parser.add_argument("--skip-corpus", action="store_true")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the lint rule list and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        from .lint import RULES

        for rule, description in sorted(RULES.items()):
            print(f"{rule}  {description}")
        return 0

    if args.source_root is None:
        import repro

        args.source_root = Path(repro.__file__).parent

    failed = False
    sections = (
        ("lint", args.skip_lint, lambda: _lint(args.source_root)),
        ("plans", args.skip_plans, _plans),
        ("corpus", args.skip_corpus, _corpus),
    )
    for title, skipped, run in sections:
        if skipped:
            print(f"-- {title}: skipped")
            continue
        findings = run()
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"-- {title}: {status}")
        for finding in findings:
            print(f"   {finding}")
        failed = failed or bool(findings)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
