"""Cost model: what a scheme costs to *read back*.

The paper's framing of compression in a DBMS is explicitly two-sided: the
ratio buys bandwidth, but "overly-demanding decompression would slow down
the speed of processing data below what the incoming bandwidth allows".  A
scheme choice needs both numbers.  **Stored size** is computed: every scheme
states a lower bound on its own stored bytes beside its ``compress``
(:meth:`~repro.schemes.base.CompressionScheme.stored_bytes_bound`), and the
advisor trial-compresses only the candidates that bound cannot rule out.
**Decompression effort** — this module — is measured hardware-agnostically
from the scheme's *compiled* decompression plan: weighted operator
invocations and elements touched (random-access movement weighted above
streaming arithmetic).  It is a simple, monotone figure: the advisor must be
right about *which* scheme wins, not about absolute milliseconds.
"""

from __future__ import annotations

from ..columnar.column import Column
from ..schemes.base import CompressedForm, CompressionScheme


def decompression_cost(
    scheme: CompressionScheme, form: CompressedForm, optimized: bool = True
) -> float:
    """Weighted plan cost per value of decompressing *form*.

    The form's decompression plan is evaluated with cost accounting and the
    weighted cost normalised per output value.  Lossy model schemes are
    charged for their model evaluation.

    By default the cost is measured on the *optimized* plan — the one the
    compiled execution path actually runs (``optimized=False`` recovers the
    uncompiled plan's cost, which is what the operator-counting experiments
    report).  Since the advisor ranks schemes by this number, estimating
    from the unoptimized plan would systematically overcharge schemes whose
    plans the optimizer shrinks the most.
    """
    if optimized:
        compiled = scheme.compiled_decompression_plan(form)
        result = compiled.run_detailed(scheme.plan_inputs(form), collect_cost=True)
    else:
        plan = scheme.decompression_plan(form)
        result = plan.evaluate_detailed(scheme.plan_inputs(form))
    return result.cost.weighted_cost / max(form.original_length, 1)


def measure_decompression_cost(
    scheme: CompressionScheme, sample: Column, optimized: bool = True
) -> float:
    """:func:`decompression_cost` of *sample*'s compressed form (0 if empty)."""
    if len(sample) == 0:
        return 0.0
    return decompression_cost(scheme, scheme.compress(sample), optimized)
