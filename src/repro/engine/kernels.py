"""Compressed-domain execution kernels: the one place that knows what runs
compressed.

The paper's point is that a scheme *is* its plan of columnar operators and
that "decompression" and "query execution" are made of the same operators.
Whether a form can be filtered, gathered or grouped without
decompressing is therefore not something a scheme declares — it is the fact
that a kernel for it exists.  :data:`_KERNELS` maps each scheme name to its
kernels; everything else is derived from that table:

* :func:`capabilities` / :func:`supports` — what ``explain()``'s
  ``[compressed]`` / ``[decompress]`` labels, the compressed-aggregate
  planner and the scheme advisor's pushdown tie-break consult;
* :func:`filter_range` — a range predicate on the compressed form (run
  domain, segment bounds + translated constants, dictionary codes, the
  packed comparison at the stream's own width); a FOR/PFOR chunk whose
  undecided segments hold more than a quarter of its rows runs its filter
  :func:`query_plan` instead and counts every row as decoded;
* :func:`gather` — only the requested positions (binary search into run
  ends, byte windows or a slice of a packed stream, model evaluation at the
  touched positions);
* :func:`group_codes` — pre-factorised group codes (dictionary codes are
  group codes already, so a group-by skips the sort/unique pass).

The run family (RLE, RPE) has no hand kernel: its filter and gather run a
:func:`query_plan` — its decompression plan with ``Between`` or ``Gather``
appended — which the optimizer rewrites into the run domain.  It groups
with no kernel kind at all: a run-encoded key's groups are its runs
(:func:`repro.engine.operators.aggregate_state`), never decoded.  The other
families' kernels rewrite the predicate's constants into the stored domain
(most lightweight schemes are *order-preserving coordinate changes*).
Cascades are peeled first (:func:`resolve_form`): ``RLE∘[values=DELTA,
lengths=NS]`` decompresses only its nested constituents — short by
construction: run values, lengths, references — and then runs the outer
scheme's kernels, once the outer scheme's ``check`` passes on the form they
read: a malformed form is an :class:`~repro.errors.OperatorError` in every
kernel, as decompressing it is.

Every kernel is **bit-identical** to decompress-then-compute: ``gather``
reproduces the decompression arithmetic at the requested positions.  The
three dispatch functions return ``None`` when no kernel applies, and callers
fall back to decompression.  A whole chunk's ``sum``, like its ``min`` and
``max``, needs no kernel: its zone map states it
(:meth:`~repro.storage.column_store.StoredColumn.zone_maps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..columnar.column import Column
from ..columnar.compile import CompiledPlan, compiled_plan, compiled_plan_for_key
from ..columnar.ops import bitpack as _bitpack
from ..columnar.plan import Plan, PlanStep, ScalarAt
from ..columnar.plan_types import step_output_length
from ..errors import QueryError
from ..schemes import _residuals
from ..schemes.base import CompressedForm, CompressionScheme
from ..schemes.composite import Cascade
from ..schemes.dict_ import DictionaryEncoding
from ..schemes.for_ import FrameOfReference
from .stats import PushdownStats

__all__ = [
    "KERNEL_FILTER_RANGE",
    "KERNEL_GATHER",
    "KERNEL_GROUP_CODES",
    "RangeBounds",
    "capabilities",
    "supports",
    "plain_scheme",
    "resolve_form",
    "query_plan",
    "query_inputs",
    "run_domain_plan",
    "filter_range",
    "filter_range_decodes",
    "gather",
    "group_codes",
    "range_mask_on_for",
    "range_mask_on_dict",
    "range_mask_on_ns",
    "translate_range_to_stored",
]

#: The kernel kinds — also the field names of a :data:`_KERNELS` entry.
KERNEL_FILTER_RANGE = "filter_range"  #: range/point predicate without decompression
KERNEL_GATHER = "gather"  #: positional gather without full decompression
KERNEL_GROUP_CODES = "group_codes"  #: group-by on (dictionary) codes


@dataclass(frozen=True)
class RangeBounds:
    """The inclusive integer range ``[low, high]`` a range-filter kernel takes."""

    low: int
    high: int

    def __post_init__(self):
        if self.high < self.low:
            raise QueryError(f"empty range: [{self.low}, {self.high}]")


#: What a range-filter kernel returns: the row mask and its accounting.
MaskAndStats = Tuple[np.ndarray, PushdownStats]


def _require(form: CompressedForm, *schemes: str) -> None:
    if form.scheme not in schemes:
        raise QueryError(f"expected a {'/'.join(schemes)} form, got {form.scheme!r}")


def plain_scheme(scheme: CompressionScheme) -> CompressionScheme:
    """The scheme :func:`resolve_form` peels *scheme*'s forms down to."""
    while isinstance(scheme, Cascade):
        scheme = scheme.outer
    return scheme


def resolve_form(scheme: CompressionScheme, form: CompressedForm) -> CompressedForm:
    """Peel cascade layers off *form* until a plain scheme's form remains.

    Each peel materialises the nested constituents of one :class:`Cascade`
    level (memoised on the form, see ``Cascade.resolved_outer_form``) —
    never the column itself.  Non-cascade forms are returned unchanged, and
    either way only once the plain scheme's ``check`` passes: this is the
    form a kernel reads.
    """
    while isinstance(scheme, Cascade):
        form = scheme.resolved_outer_form(form)
        scheme = scheme.outer
    scheme.check(form)
    return form


# --------------------------------------------------------------------------- #
# Query plans: a query step on the decompression plan, for the optimizer
# --------------------------------------------------------------------------- #

def _query_plan_of(scheme: CompressionScheme, form: CompressedForm, kind: str) -> Plan:
    """The outer scheme's decompression plan with the *kind* query step
    appended, built from the form's shape: its scalar parameters and the
    names of its constituents, none of which is read."""
    outer = plain_scheme(scheme)
    shape = CompressedForm(outer.name, {name: Column.empty(name=name)
                                        for name in form.constituent_names()},
                           dict(form.parameters), form.original_length, form.original_dtype)
    plan = outer.decompression_plan(shape)
    if kind == KERNEL_FILTER_RANGE:
        binds, query = "query.bounds", PlanStep("query", "Between", {"col": plan.output}, {
            "lo": ScalarAt("query.bounds", 0), "hi": ScalarAt("query.bounds", 1)})
    else:
        binds, query = "query.positions", PlanStep("query", "Gather", {
            "values": plan.output, "indices": "query.positions"})
    return Plan(plan.inputs + (binds,), plan.steps + (query,), "query",
                description=f"{plan.description}, then {kind}")


def query_plan(scheme: CompressionScheme, form: CompressedForm, kind: str) -> CompiledPlan:
    """The compiled *kind* query plan (:data:`KERNEL_FILTER_RANGE` or
    :data:`KERNEL_GATHER`) of ``(scheme, form)``: the outer scheme's
    decompression plan with ``Between`` or ``Gather`` appended, optimized.
    The bounds and positions are plan inputs (:func:`query_inputs`), so one
    compiled plan per outer scheme and kind serves every chunk and query;
    finding it reads no constituent."""
    key = plain_scheme(scheme).plan_cache_key(form)
    return compiled_plan_for_key(key and ("query", kind) + key,
                                 lambda: _query_plan_of(scheme, form, kind))


def query_inputs(scheme: CompressionScheme, form: CompressedForm,
                 query: Union[RangeBounds, np.ndarray]) -> Dict[str, Column]:
    """What :func:`query_plan` binds: the plan inputs of the outer scheme's
    resolved form — its form check runs here — and the query's own: a
    range's bounds as a two-value column (an integer column's in its dtype,
    clamped into it, a range beyond it as bounds no value meets; any other
    column's as given), or positions."""
    inputs = plain_scheme(scheme).plan_inputs(resolve_form(scheme, form))
    if isinstance(query, RangeBounds):
        dtype, bounds = np.dtype(form.original_dtype), [query.low, query.high]
        if dtype.kind in "iu":
            limits = np.iinfo(dtype)
            low, high = max(query.low, limits.min), min(query.high, limits.max)
            bounds = np.array([low, high] if low <= high else [limits.max, limits.min], dtype)
        inputs["query.bounds"] = Column.adopt(np.array(bounds))
    else:
        positions = np.asarray(query, dtype=np.int64).view()
        positions.flags.writeable = False  # the caller's array stays as it was
        inputs["query.positions"] = Column.wrap_readonly(positions)
    return inputs


def run_domain_plan(scheme: CompressionScheme, form: CompressedForm, kind: str) -> CompiledPlan:
    """The compiled *kind* query plan of a run scheme cut where the
    optimizer's rewrite still answers per run: a filter's verdict for every
    run, before it expands to rows, or a gather's run for every position.
    Its inputs are :func:`query_inputs`'."""
    plan = query_plan(scheme, form, kind).plan
    last = plan.step_producing(plan.output)  # Repeat(verdicts, lengths) or Gather(values, runs)
    answer = last.column_inputs["values" if kind == KERNEL_FILTER_RANGE else "indices"]
    return compiled_plan(plan.truncate_at(answer))


def _filter_on_plan(outer: CompressionScheme, form: CompressedForm,
                    bounds: RangeBounds) -> MaskAndStats:
    """The filter query plan's row mask; ``runs_total`` is how many values its
    ``Between`` compared — one per run, once rewritten."""
    inputs = query_inputs(outer, form, bounds)
    compiled = query_plan(outer, form, KERNEL_FILTER_RANGE)
    lengths = {name: len(column) for name, column in inputs.items()}
    for step in compiled.plan.steps:  # as far as the Between
        lengths[step.output] = step_output_length(step, lengths)
        if step.op == "Between":
            return compiled.run(inputs).values, PushdownStats(
                rows_total=form.original_length, runs_total=lengths[step.output])


def _gather_on_plan(outer: CompressionScheme, form: CompressedForm,
                    positions: np.ndarray) -> np.ndarray:
    inputs = query_inputs(outer, form, positions)
    return query_plan(outer, form, KERNEL_GATHER).run(inputs).values


# --------------------------------------------------------------------------- #
# FOR / PFOR: the segment domain
# --------------------------------------------------------------------------- #


def _segment_bounds(form: CompressedForm) -> Tuple[np.ndarray, np.ndarray]:
    """Per-segment int64 ``[low, high]`` value bounds, memoised on the form:
    derivable from the references and the offset width alone, and reused by
    every conjunct of a scan."""

    def compute() -> Tuple[np.ndarray, np.ndarray]:
        if form.scheme == "STEPFUNCTION":  # a pure model: no offsets at all
            refs = form.constituent("refs").values.astype(np.int64)
            return refs, refs
        return FrameOfReference.segment_bounds(form)

    return form.cached(("segment_bounds",), compute)


def _segments_fit_int64(form: CompressedForm) -> bool:
    # The segment-bound and patch arithmetic below is int64; uint64 values
    # at or above 2**63 would wrap, so those forms decompress instead.
    return np.dtype(form.original_dtype) != np.uint64


def range_mask_on_for(outer: CompressionScheme, form: CompressedForm,
                      bounds: RangeBounds) -> MaskAndStats:
    """Evaluate a range predicate on a FOR-family form with segment skipping.

    The per-segment references bound every value in the segment, so the
    range constants translate into whole-segment verdicts: segments entirely
    outside the range are rejected wholesale, segments entirely inside are
    accepted wholesale, and only the remaining segments' rows have their
    offsets decoded, by position, and compared (E9); PFOR's patches are
    decided last.  Where those rows are more than one in ``SPARSE_RATIO``,
    the filter :func:`query_plan` answers instead (decode, then ``Between``)
    and every row counts as decoded.  A STEPFUNCTION form is all model.
    """
    _require(form, "FOR", "PFOR", "STEPFUNCTION")
    if not _segments_fit_int64(form):
        raise QueryError("segment pushdown computes in int64; got a uint64 form")
    # One segment at most as long as the rows: the same verdicts, and a
    # segment length past them allocates nothing of its size.
    n = form.original_length
    each = min(form.parameters["segment_length"], max(n, 1))
    seg_low, seg_high = _segment_bounds(form)
    reject = (seg_high < bounds.low) | (seg_low > bounds.high)
    accept = (seg_low >= bounds.low) & (seg_high <= bounds.high)
    stats = PushdownStats(rows_total=n, segments_total=len(seg_low),
                          segments_skipped=int(np.count_nonzero(reject)),
                          segments_accepted=int(np.count_nonzero(accept)))
    # The verdicts are disjoint; an undecided last segment may be short.
    undecided = stats.segments_total - stats.segments_skipped - stats.segments_accepted
    short = -n % each if n and not (reject[-1] or accept[-1]) else 0
    stats.rows_decoded = undecided * each - short
    if stats.rows_decoded * _bitpack.SPARSE_RATIO > n:
        stats.rows_decoded = n
        mask = query_plan(outer, form, KERNEL_FILTER_RANGE).run(query_inputs(outer, form, bounds))
        return mask.values, stats

    mask = np.repeat(accept, each)[:n]
    if stats.rows_decoded:
        rows = (np.flatnonzero(~(reject | accept))[:, None] * each + np.arange(each)).ravel()
        rows = rows[: stats.rows_decoded]
        offsets = _residuals.decode_residuals(form, rows)
        values = form.constituent("refs").values[rows // each].astype(np.int64) + offsets
        mask[rows] = (values >= bounds.low) & (values <= bounds.high)
    if form.scheme == "PFOR":
        # A patch may qualify inside a rejected segment or disqualify inside
        # an accepted one: there are few by construction, decided exactly.
        positions = form.constituent("patch_positions").values
        patch_values = form.constituent("patch_values").values.astype(np.int64)
        mask[positions] = (patch_values >= bounds.low) & (patch_values <= bounds.high)
    return mask, stats


def _gather_for(outer: CompressionScheme, form: CompressedForm,
                positions: np.ndarray) -> np.ndarray:
    each = min(form.parameters["segment_length"], max(form.original_length, 1))
    refs = form.constituent("refs").values
    values = _residuals.decode_residuals(form, positions)
    run = _bitpack.contiguous(positions)
    if run is None:
        values = refs[positions // each] + values
    else:  # consecutive rows: each covering segment's reference, repeated over its share
        first, last = run.start // each, (run.stop - 1) // each
        bounds = np.clip(np.arange(first, last + 2) * each, run.start, run.stop)
        values += np.repeat(refs[first : last + 1], np.diff(bounds))
    patches = form.constituent("patch_positions").values if form.scheme == "PFOR" else None
    if patches is not None and patches.size:  # PFOR's few patches, found by binary search
        slot = np.minimum(np.searchsorted(patches, positions), patches.size - 1)
        is_patch = patches[slot] == positions
        values[is_patch] = form.constituent("patch_values").values[slot[is_patch]]
    return values


# --------------------------------------------------------------------------- #
# DICT: the code domain
# --------------------------------------------------------------------------- #


def _dict_codes(form: CompressedForm, positions: Optional[np.ndarray]) -> np.ndarray:
    """The form's codes at *positions* (``None``: every row) as unsigned
    integers, never unpacking more of a packed stream than the positions
    touch — every row unpacks at the codes' own width — and refusing a code
    past the dictionary after one pass over them."""
    stored, width = form.constituent("codes"), form.parameters["code_width"]
    count = form.original_length
    if form.parameters["codes_layout"] != "packed":
        codes = stored.values if positions is None else stored.values[positions]
        codes = codes.view(f"u{codes.dtype.itemsize}")  # a negative code is past it too
    elif positions is None:
        codes = _bitpack._unpack_bits_values(stored.values, width, count, _bitpack._window(width))
    else:
        codes = _bitpack.packed_gather(stored, width, count, positions)
    size = form.constituent("dictionary").values.size
    top = int(codes.max()) if codes.size else -1
    if top >= size:
        form.refuse(f"code {top} is past a dictionary of {size} entries")
    return codes


def range_mask_on_dict(outer: CompressionScheme, form: CompressedForm,
                       bounds: RangeBounds) -> MaskAndStats:
    """Evaluate a range predicate on a DICT form by rewriting it onto codes.

    The value range translates to a code range through the sorted dictionary
    (two binary searches); the codes, unpacked at their own width (a 16-entry
    dictionary's into bytes), are then compared once
    (:func:`repro.columnar.ops.bitpack.range_mask`), never decoded through
    the dictionary, so ``rows_decoded`` stays zero.  A code range holding
    every code or none reads no code at all.
    """
    _require(form, "DICT")
    n = form.original_length
    lo_code, hi_code = DictionaryEncoding.rewrite_range_to_codes(form, bounds.low, bounds.high)
    stats = PushdownStats(rows_total=n)
    if lo_code >= hi_code:
        return np.zeros(n, dtype=bool), stats
    if lo_code == 0 and hi_code >= form.constituent_length("dictionary"):
        return np.ones(n, dtype=bool), stats
    return _bitpack.range_mask(_dict_codes(form, None), lo_code, hi_code - 1), stats


def _gather_dict(outer: CompressionScheme, form: CompressedForm,
                 positions: np.ndarray) -> np.ndarray:
    codes = _dict_codes(form, positions)
    return form.constituent("dictionary").values[codes.astype(np.intp, copy=False)]


def _group_codes_dict(
    outer: CompressionScheme, form: CompressedForm, positions: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    codes = _dict_codes(form, positions).astype(np.int64, copy=False)
    return codes, form.constituent("dictionary").values


# --------------------------------------------------------------------------- #
# NS: the stored (unsigned) domain
# --------------------------------------------------------------------------- #


def _ns_is_order_preserving(form: CompressedForm) -> bool:
    # ``none`` and ``bias`` are shifts; zig-zag interleaves the signs.
    return form.parameters["transform"] != "zigzag"


def translate_range_to_stored(
    form: CompressedForm, bounds: RangeBounds
) -> Optional[Tuple[int, int]]:
    """Rewrite ``[low, high]`` into the NS form's stored unsigned domain:
    the inclusive ``(lo, hi)`` clamped into ``[0, 2**width - 1]``, or
    ``None`` when no stored value can match."""
    if not _ns_is_order_preserving(form):
        raise QueryError("zig-zag NS forms are not order-preserving; no range translation")
    shift = form.parameters["bias"] if form.parameters["transform"] == "bias" else 0
    lo = bounds.low - shift
    hi = bounds.high - shift
    top = (1 << form.parameters["width"]) - 1
    if hi < 0 or lo > top:
        return None
    return max(lo, 0), min(hi, top)


def range_mask_on_ns(outer: CompressionScheme, form: CompressedForm,
                     bounds: RangeBounds) -> MaskAndStats:
    """Evaluate a range predicate on an NS form in its stored unsigned domain.

    The bounds translate into the stored domain, where the values compare at
    the stream's own width (:func:`repro.columnar.ops.bitpack.packed_compare_range`;
    aligned values as they are stored) and are never decoded.
    """
    _require(form, "NS")
    n = form.original_length
    stats = PushdownStats(rows_total=n)
    translated = translate_range_to_stored(form, bounds)
    if translated is None:
        return np.zeros(n, dtype=bool), stats
    lo, hi = translated
    if form.parameters["mode"] != "packed":
        return _bitpack.range_mask(form.constituent("values").values, lo, hi), stats
    width = form.parameters["width"]
    return _bitpack.packed_compare_range(form.constituent("packed"), width, n, lo, hi), stats


def _gather_ns(outer: CompressionScheme, form: CompressedForm,
               positions: np.ndarray) -> np.ndarray:
    # Mirrors NullSuppression.decompression_plan element for element.
    parameters = form.parameters
    if parameters["mode"] != "packed":
        values = form.constituent("values").values[positions].astype(np.uint64)
    else:
        width, count = parameters["width"], form.original_length
        values = _bitpack.packed_gather(form.constituent("packed"), width, count, positions)
    if parameters["transform"] == "zigzag":
        return _bitpack._zigzag_decode_values(values)
    if parameters["transform"] == "bias":
        return values.astype(np.int64) + parameters["bias"]
    return values


# --------------------------------------------------------------------------- #
# LINEAR / POLY: the model domain
# --------------------------------------------------------------------------- #


def _gather_poly(outer: CompressionScheme, form: CompressedForm,
                 positions: np.ndarray) -> np.ndarray:
    # Mirrors PiecewisePolynomial.decompression_plan (Horner in float64) at
    # the requested positions only.
    segment_length = form.parameters["segment_length"]
    seg = positions // segment_length
    pos = (positions % segment_length).astype(np.float64)
    prediction = np.zeros(positions.size, dtype=np.float64)
    for k in range(form.parameters["degree"], -1, -1):
        prediction = prediction * pos + form.constituent(f"coeff_{k}").values[seg]
    offsets = _residuals.decode_residuals(form, positions)
    return np.rint(prediction).astype(np.int64) + offsets


# --------------------------------------------------------------------------- #
# The kernel table
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _Kernels:
    """One scheme's kernels, each taking the plain scheme, the resolved form
    and the query; ``None`` means that operation decompresses."""

    filter_range: Optional[Callable] = None  # (outer, form, bounds) -> (mask, PushdownStats)
    gather: Optional[Callable] = None  # (outer, form, positions) -> values
    group_codes: Optional[Callable] = None  # (outer, form, positions|None) -> (codes, groups)
    #: Whether ``filter_range`` applies to a given form.  It may read the
    #: form's scalar parameters, once they pass the scheme's declared check,
    #: and dtype only, never a constituent: it is asked about unpeeled
    #: cascade forms while planning over mmap-backed tables, which must stay
    #: I/O-free.
    filter_range_if: Callable[[CompressedForm], bool] = lambda form: True


#: The run family's kernels are its query plans, which the optimizer moves
#: into the run domain (``tests/engine/test_kernels.py`` checks it does).
_RUNS = _Kernels(filter_range=_filter_on_plan, gather=_gather_on_plan)
_SEGMENTS = _Kernels(filter_range=range_mask_on_for, gather=_gather_for,
                     filter_range_if=_segments_fit_int64)
_MODEL = _Kernels(gather=_gather_poly)

#: Scheme name -> kernels.  A scheme absent here (DELTA, VARWIDTH,
#: STEPFUNCTION) always decompresses.  ID has no filter on purpose:
#: "pushing down" onto uncompressed values is the decompress path, and
#: counting it would distort the pushdown statistics.
_KERNELS: Dict[str, _Kernels] = {
    "ID": _Kernels(gather=lambda outer, form, positions:
                   form.constituent("values").values[positions]),
    "RLE": _RUNS,
    "RPE": _RUNS,
    "DICT": _Kernels(
        filter_range=range_mask_on_dict,
        gather=_gather_dict,
        group_codes=_group_codes_dict,
    ),
    "NS": _Kernels(
        filter_range=range_mask_on_ns,
        gather=_gather_ns,
        filter_range_if=_ns_is_order_preserving,
    ),
    "FOR": _SEGMENTS,
    "PFOR": _SEGMENTS,
    "LINEAR": _MODEL,
    "POLY": _MODEL,
}
_NO_KERNELS = _Kernels()
_KINDS = (KERNEL_FILTER_RANGE, KERNEL_GATHER, KERNEL_GROUP_CODES)


def _kernel(scheme: CompressionScheme, form: CompressedForm, kind: str) -> Optional[Callable]:
    """The *kind* kernel serving ``(scheme, form)``, taking the plain scheme,
    the resolved form and the query, or ``None``.

    A cascade is served by its outer scheme's kernels, and its form carries
    the outer form's parameters, so only the scheme is peeled here — no
    nested constituent is reconstructed to answer the question.  A form
    whose scalars fail the declared check is offered the filter, which
    refuses it.
    """
    outer = plain_scheme(scheme)
    entry = _KERNELS.get(outer.name, _NO_KERNELS)
    if (kind == KERNEL_FILTER_RANGE and _scalars_pass(outer, form)
            and not entry.filter_range_if(form)):
        return None
    return getattr(entry, kind)


def _scalars_pass(outer: CompressionScheme, form: CompressedForm) -> bool:
    """Whether *form*'s scalars pass *outer*'s declared check
    (:meth:`~repro.schemes.base.CompressionScheme.scalar_problem`), memoised
    on the form: reading them needs no constituent, unlike the full check."""
    return form.cached("scalar_problem", lambda: outer.scalar_problem(form.parameters)) is None


def filter_range_decodes(scheme: CompressionScheme, form: CompressedForm) -> bool:
    """Whether :func:`filter_range` decodes every value of *form* to compare it
    (``range_mask_on_ns`` at a packed width whose comparison runs the period
    kernel, every width but 8/16/32/64): a scan that needs the values anyway
    compares those and decodes once.  Scalar parameters only, like
    ``filter_range_if``."""
    return (
        _kernel(scheme, form, KERNEL_FILTER_RANGE) is range_mask_on_ns
        and _scalars_pass(plain_scheme(scheme), form)
        and form.parameters["mode"] == "packed"
        and _bitpack.compares_word_parallel(form.parameters["width"])
    )


def capabilities(scheme: CompressionScheme, form: CompressedForm) -> frozenset:
    """The kernel kinds that exist for *form* (a subset of ``KERNEL_*``)."""
    return frozenset(kind for kind in _KINDS if _kernel(scheme, form, kind) is not None)


def supports(scheme: CompressionScheme, form: CompressedForm, kernel: str) -> bool:
    """Whether a *kernel* (one of the ``KERNEL_*`` names) exists for *form*."""
    return _kernel(scheme, form, kernel) is not None


# --------------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------------- #


def filter_range(
    scheme: CompressionScheme,
    form: CompressedForm,
    bounds: RangeBounds,
) -> Optional[MaskAndStats]:
    """Evaluate ``low <= column <= high`` on the compressed form, if able.

    Returns ``(mask, stats)`` with a boolean row mask over the form's rows,
    or ``None`` when the form has no :data:`KERNEL_FILTER_RANGE` kernel.
    Cascades are peeled to their outer form first.
    """
    kernel = _kernel(scheme, form, KERNEL_FILTER_RANGE)
    if kernel is None:
        return None
    return kernel(plain_scheme(scheme), resolve_form(scheme, form), bounds)


def gather(
    scheme: CompressionScheme,
    form: CompressedForm,
    positions: np.ndarray,
) -> Optional[np.ndarray]:
    """Materialise the form's values at *positions* without decompressing.

    *positions* are row indices local to the form, in ``[0,
    original_length)``; order is preserved and duplicates are allowed.  The
    result has the form's original dtype and is element-for-element equal to
    ``scheme.decompress(form).values[positions]``.  Returns ``None`` when
    the form has no :data:`KERNEL_GATHER` kernel.
    """
    kernel = _kernel(scheme, form, KERNEL_GATHER)
    if kernel is None:
        return None
    values = kernel(plain_scheme(scheme), resolve_form(scheme, form),
                    np.asarray(positions, dtype=np.int64))
    return values.astype(form.original_dtype, copy=False)


#: Declines every form: a whole chunk's sum is its zone map's total.  No caller
#: is left; the name stays bound because the frozen ``perf/trace.py`` wraps it.
aggregate_whole = lambda scheme, form: None


def group_codes(
    scheme: CompressionScheme,
    form: CompressedForm,
    positions: Optional[np.ndarray],
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Pre-factorised group codes of the form at *positions*.

    Returns ``(codes, group_values)`` where *group_values* is sorted and
    ``group_values[codes]`` equals the form's values at *positions* (some
    groups may be unrepresented in the selection; callers drop empty groups
    when matching ``np.unique`` semantics).  ``positions=None`` means every
    row.  Returns ``None`` when the form has no :data:`KERNEL_GROUP_CODES`
    kernel.
    """
    kernel = _kernel(scheme, form, KERNEL_GROUP_CODES)
    if kernel is None:
        return None
    return kernel(plain_scheme(scheme), resolve_form(scheme, form), positions)
