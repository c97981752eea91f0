"""Plan compilation: optimize once, cache, execute with buffer reuse.

The rest of the library treats a decompression plan as *data* — a linear
sequence of columnar operator applications (:mod:`repro.columnar.plan`).
This package turns that data into something closer to executable code:

* :mod:`~repro.columnar.compile.optimizer` — a rewrite-pass pipeline over
  plans: dead-step elimination, ParamRef constant folding, scalarisation of
  constant columns, scan strength reduction, common-subplan elimination,
  re-composition of Algorithm 1's run expansion into ``Repeat`` (and of a
  query on it into the run domain) and of Algorithm 2's step function into
  ``Replicate``, and fusion of
  element-wise chains into single fused kernels;
* :mod:`~repro.columnar.compile.executor` — a :class:`CompiledPlan` whose
  evaluation loop resolves operators once (at compile time), frees every
  intermediate binding as soon as its last consumer has run, and serves
  generated columns (``Zeros``/``Ones``/``Constant``/``Iota``) from a shared
  immutable-column cache instead of re-materialising them per evaluation;
* :mod:`~repro.columnar.compile.cache` — process-wide caches keyed by the
  plan's structural signature (and, one level up, by the compression
  scheme's structural signature), so the thousands of chunk decompressions a
  query triggers all share one compiled plan.

The contract of the whole pipeline is strict observational equivalence: for
any valid plan ``p`` and inputs ``b``, ``compile(p).run(b)`` produces the
same column as ``p.evaluate(b)``.  Property tests assert this for every
registered scheme, including after the prefix/suffix plan surgery of
:mod:`repro.schemes.decomposition`.
"""

from .optimizer import (
    OptimizationReport,
    eliminate_common_subplans,
    eliminate_dead_steps,
    fold_param_refs,
    freeze_value,
    fuse_elementwise_chains,
    optimize,
    optimize_with_report,
    query_runs_in_run_domain,
    recompose_run_expansion,
    recompose_step_function,
    reduce_scans_over_generators,
    scalarize_constant_operands,
)
from .executor import (
    CompiledPlan,
    compile_plan,
    generated_column_cache_info,
    clear_generated_column_cache,
)
from .cache import (
    PlanCompileCache,
    cache_info,
    clear_caches,
    compiled_plan,
    compiled_plan_for_key,
    compiled_plan_for_scheme,
    plan_signature,
)

__all__ = [
    "OptimizationReport",
    "optimize",
    "optimize_with_report",
    "eliminate_dead_steps",
    "fold_param_refs",
    "scalarize_constant_operands",
    "reduce_scans_over_generators",
    "eliminate_common_subplans",
    "recompose_run_expansion",
    "query_runs_in_run_domain",
    "recompose_step_function",
    "fuse_elementwise_chains",
    "freeze_value",
    "CompiledPlan",
    "compile_plan",
    "generated_column_cache_info",
    "clear_generated_column_cache",
    "PlanCompileCache",
    "compiled_plan",
    "compiled_plan_for_key",
    "compiled_plan_for_scheme",
    "plan_signature",
    "cache_info",
    "clear_caches",
]
