"""Cost model: what a scheme costs to *read back*.

The paper's framing of compression in a DBMS is explicitly two-sided: the
ratio buys bandwidth, but "overly-demanding decompression would slow down
the speed of processing data below what the incoming bandwidth allows".  A
scheme choice needs both numbers.  **Stored size** is computed: every scheme
states a lower bound on its own stored bytes beside its ``compress``
(:meth:`~repro.schemes.base.CompressionScheme.stored_bytes_bound`), and the
advisor trial-compresses only the candidates that bound cannot rule out.
**Decompression effort** — this module — is *computed, not executed*: the
scheme's compiled decompression plan states, per step, an operator weight
(random-access movement above streaming arithmetic) and, through one static
length rule per operator, how many elements it touches.  The figure is a
simple, monotone, hardware-agnostic one: the advisor must be right about
*which* scheme wins, not about absolute milliseconds.
"""

from __future__ import annotations

from ..schemes.base import CompressedForm, CompressionScheme


def decompression_cost(scheme: CompressionScheme, form: CompressedForm) -> float:
    """Weighted plan cost per value of decompressing *form*: what
    ``compiled.run_detailed(inputs).cost.weighted_cost`` would report for the
    plan the compiled path runs, read off the plan without running it.

    Every length follows from the form: the inputs are its constituents, the
    plan's and every nested form's output is as long as the column it decodes,
    each operator in between states its output length statically (one that
    does not raises :class:`~repro.errors.PlanError`: a rule to add).
    """
    if form.original_length == 0:  # ``decompress`` returns the empty column, plan unrun
        return 0.0
    compiled = scheme.compiled_decompression_plan(form)
    lengths = scheme.plan_lengths(form)
    lengths.setdefault(compiled.plan.output, form.original_length)
    return compiled.weighted_cost(lengths) / form.original_length
