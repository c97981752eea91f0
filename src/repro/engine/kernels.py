"""Compressed-domain execution kernels: the one place that knows what runs
compressed.

The paper's point is that a scheme *is* its plan of columnar operators and
that "decompression" and "query execution" are made of the same operators.
Whether a form can be filtered, gathered, aggregated or grouped without
decompressing is therefore not something a scheme declares — it is the fact
that a kernel for it exists.  :data:`_KERNELS` maps each scheme name to its
kernels; everything else is derived from that table:

* :func:`capabilities` / :func:`supports` — what ``explain()``'s
  ``[compressed]`` / ``[decompress]`` labels, the compressed-aggregate
  planner and the scheme advisor's pushdown tie-break consult;
* :func:`filter_range` — a range predicate on the compressed form (run
  domain, segment bounds + translated constants, dictionary codes,
  word-parallel packed comparison);
* :func:`gather` — only the requested positions (binary search into run
  positions, positional bit extraction from packed streams, model
  evaluation at the touched positions);
* :func:`aggregate_whole` — the sum over a *whole* form (run values ×
  lengths, dictionary × counts, FOR references × segment lengths + offsets);
* :func:`group_codes` — pre-factorised group codes (dictionary codes are
  group codes already, so a group-by skips the sort/unique pass).

Most lightweight schemes are *order-preserving coordinate changes*, so the
filter kernels rewrite the predicate's constants into the stored domain
instead of rewriting the stored data into the value domain.  Cascades are
peeled first (:func:`resolve_form`): ``RLE∘[values=DELTA, lengths=NS]``
decompresses only its nested constituents — short by construction: run
values, lengths, references — and then runs the outer scheme's kernels.

Every kernel is **bit-identical** to decompress-then-compute: ``gather``
reproduces the decompression arithmetic at the requested positions, and the
aggregate kernels accumulate with the same dtype discipline as
:func:`repro.engine.operators.aggregate`.  The four dispatch functions
return ``None`` when no kernel applies, and callers fall back to
decompression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..columnar.compile import compiled_partial_plan
from ..columnar.ops import bitpack as _bitpack
from ..errors import OperatorError, QueryError
from ..model.fitting import segment_index
from ..schemes import _residuals
from ..schemes.base import CompressedForm, CompressionScheme
from ..schemes.composite import Cascade
from ..schemes.dict_ import DictionaryEncoding
from ..schemes.for_ import FrameOfReference
from ..schemes.rle import build_rle_decompression_plan
from .predicates import RangeBounds
from .stats import PushdownStats

__all__ = [
    "KERNEL_FILTER_RANGE",
    "KERNEL_GATHER",
    "KERNEL_AGGREGATE",
    "KERNEL_GROUP_CODES",
    "capabilities",
    "supports",
    "resolve_form",
    "filter_range",
    "filter_range_decodes",
    "gather",
    "aggregate_whole",
    "group_codes",
    "run_positions_of",
    "range_mask_on_runs",
    "sum_in_range_on_runs",
    "range_mask_on_for",
    "range_mask_on_dict",
    "range_mask_on_ns",
    "translate_range_to_stored",
]

#: The kernel kinds — also the field names of a :data:`_KERNELS` entry.
KERNEL_FILTER_RANGE = "filter_range"  #: range/point predicate without decompression
KERNEL_GATHER = "gather"  #: positional gather without full decompression
KERNEL_AGGREGATE = "aggregate"  #: sum over a whole form
KERNEL_GROUP_CODES = "group_codes"  #: group-by on (dictionary) codes


#: What a range-filter kernel returns: the row mask and its accounting.
MaskAndStats = Tuple[np.ndarray, PushdownStats]


def _require(form: CompressedForm, *schemes: str) -> None:
    if form.scheme not in schemes:
        raise QueryError(f"expected a {'/'.join(schemes)} form, got {form.scheme!r}")


def resolve_form(scheme: CompressionScheme, form: CompressedForm) -> CompressedForm:
    """Peel cascade layers off *form* until a plain scheme's form remains.

    Each peel materialises the nested constituents of one :class:`Cascade`
    level (memoised on the form, see ``Cascade.resolved_outer_form``) —
    never the column itself.  Non-cascade forms are returned unchanged.
    """
    while isinstance(scheme, Cascade):
        form = scheme.resolved_outer_form(form)
        scheme = scheme.outer
    return form


# --------------------------------------------------------------------------- #
# ID
# --------------------------------------------------------------------------- #


def _sum_accumulator(dtype: np.dtype):
    return np.uint64 if np.issubdtype(dtype, np.unsignedinteger) else np.int64


def _gather_id(form: CompressedForm, positions: np.ndarray) -> np.ndarray:
    return form.constituent("values").values[positions]


def _sum_id(form: CompressedForm):
    data = form.constituent("values").values
    return data.sum(dtype=_sum_accumulator(data.dtype))


# --------------------------------------------------------------------------- #
# RLE / RPE: the run domain
# --------------------------------------------------------------------------- #


def _run_lengths_of_form(form: CompressedForm) -> np.ndarray:
    """Per-run lengths of an RLE/RPE form as int64, memoised on the form."""

    def compute() -> np.ndarray:
        if form.scheme == "RLE":
            return form.constituent("lengths").values.astype(np.int64)
        positions = form.constituent("run_positions").values.astype(np.int64)
        lengths = np.empty(len(positions), dtype=np.int64)
        if len(positions):
            lengths[0] = positions[0]
            np.subtract(positions[1:], positions[:-1], out=lengths[1:])
        return lengths

    _require(form, "RLE", "RPE")
    return form.cached(("run_lengths",), compute)


def run_positions_of(form: CompressedForm) -> np.ndarray:
    """Run *end* positions of an RLE/RPE form, as int64 (memoised on the form).

    RPE stores them directly.  For RLE they are obtained by executing the
    compiled truncation of Algorithm 1 at its first binding
    (``run_positions``) — partial evaluation through the plan executor, the
    executable form of "RLE converts to RPE by one prefix sum".  The result
    is cached on the form, so a multi-conjunct scan (or a filter followed by
    a compressed-domain gather) pays for the prefix sum at most once.
    """

    def compute() -> np.ndarray:
        if form.scheme == "RPE":
            return form.constituent("run_positions").values.astype(np.int64)
        compiled = compiled_partial_plan(build_rle_decompression_plan(), "run_positions")
        positions = compiled.run(
            {"lengths": form.constituent("lengths"), "values": form.constituent("values")}
        )
        return positions.values.astype(np.int64)

    _require(form, "RLE", "RPE")
    return form.cached(("run_end_positions",), compute)


def _runs_in_range(form: CompressedForm, bounds: RangeBounds):
    """``(values, lengths, per-run verdict, stats)``: the predicate is
    evaluated once per run, on the (short) ``values`` column."""
    lengths = _run_lengths_of_form(form)
    values = form.constituent("values").values
    run_mask = (values >= bounds.low) & (values <= bounds.high)
    stats = PushdownStats(rows_total=form.original_length, runs_total=len(values))
    return values, lengths, run_mask, stats


def range_mask_on_runs(form: CompressedForm, bounds: RangeBounds) -> MaskAndStats:
    """Evaluate a range predicate on an RLE/RPE form, returning a row mask.

    The per-run verdicts are expanded to rows — the per-element work is a
    single ``repeat`` regardless of how selective the predicate is.
    """
    __, lengths, run_mask, stats = _runs_in_range(form, bounds)
    return np.repeat(run_mask, lengths), stats


def sum_in_range_on_runs(form: CompressedForm, bounds: RangeBounds) -> Tuple[int, PushdownStats]:
    """SUM(col) WHERE lo <= col <= hi, computed entirely in the run domain.

    Each qualifying run contributes ``value * length`` — the aggregation never
    leaves the run domain, which is the paper's "no clear distinction between
    decompression and query execution" taken to its conclusion (E10).
    """
    values, lengths, run_mask, stats = _runs_in_range(form, bounds)
    total = (values[run_mask].astype(np.int64) * lengths[run_mask]).sum(dtype=np.int64)
    return int(total), stats


def _gather_runs(form: CompressedForm, positions: np.ndarray) -> np.ndarray:
    run_index = np.searchsorted(run_positions_of(form), positions, side="right")
    return form.constituent("values").values[run_index]


def _sum_weighted(values: np.ndarray, weights: np.ndarray):
    """The sum of ``repeat(values, weights)`` without expanding it."""
    accumulator = _sum_accumulator(values.dtype)
    return (values.astype(accumulator) * weights.astype(accumulator)).sum(dtype=accumulator)


def _sum_runs(form: CompressedForm):
    return _sum_weighted(form.constituent("values").values, _run_lengths_of_form(form))


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


def range_mask_on_for(form: CompressedForm, bounds: RangeBounds) -> MaskAndStats:
    """Evaluate a range predicate on a FOR-family form with segment skipping.

    The per-segment references bound every value in the segment, so the
    range constants translate into whole-segment verdicts: segments entirely
    outside the range are rejected wholesale, segments entirely inside are
    accepted wholesale, and only the remaining segments have their offsets
    decoded and compared (E9).  For PFOR, patches are re-applied afterwards
    so the mask is exact.  A STEPFUNCTION form is all model: every segment
    is decided by its reference.
    """
    _require(form, "FOR", "PFOR", "STEPFUNCTION")
    if not _segments_fit_int64(form):
        raise QueryError("segment pushdown computes in int64; got a uint64 form")
    n = form.original_length
    seg_low, seg_high = _segment_bounds(form)
    reject = (seg_high < bounds.low) | (seg_low > bounds.high)
    accept = (seg_low >= bounds.low) & (seg_high <= bounds.high)
    inspect = ~(reject | accept)

    seg_of_row = segment_index(n, int(form.parameter("segment_length")))
    mask = accept[seg_of_row].copy()
    stats = PushdownStats(
        rows_total=n,
        segments_total=len(seg_low),
        segments_skipped=int(reject.sum(dtype=np.int64)),
        segments_accepted=int(accept.sum(dtype=np.int64)),
    )

    if inspect.any():
        refs = form.constituent("refs").values.astype(np.int64)
        rows_to_inspect = inspect[seg_of_row]
        stats.rows_decoded = int(rows_to_inspect.sum(dtype=np.int64))
        if stats.rows_decoded * _bitpack.SPARSE_RATIO <= n:
            # Sparse straddle: decode only the inspected rows' offsets (a
            # positional gather into the packed stream) instead of the whole
            # constituent.
            rows_to_inspect = np.flatnonzero(rows_to_inspect)
            offsets = _residuals.decode_residuals_at(
                form.constituent("offsets"), form.parameters, rows_to_inspect
            )
        else:
            offsets = _residuals.decode_residuals(form.constituent("offsets"), form.parameters)
            offsets = offsets[rows_to_inspect]
        reconstructed = refs[seg_of_row[rows_to_inspect]] + offsets
        mask[rows_to_inspect] = (reconstructed >= bounds.low) & (reconstructed <= bounds.high)

    if form.scheme == "PFOR":
        # Patched rows carry their true value outside the offsets, so the
        # segment-bound reasoning above does not apply to them (a patch may
        # qualify inside a rejected segment or disqualify inside an accepted
        # one).  There are few patches by construction; decide them exactly.
        positions = form.constituent("patch_positions").values
        if positions.size:
            patch_values = form.constituent("patch_values").values.astype(np.int64)
            mask[positions] = (patch_values >= bounds.low) & (patch_values <= bounds.high)
    return mask, stats


def _gather_for(form: CompressedForm, positions: np.ndarray) -> np.ndarray:
    seg = positions // int(form.parameter("segment_length"))
    offsets = _residuals.decode_residuals_at(
        form.constituent("offsets"), form.parameters, positions
    )
    return form.constituent("refs").values[seg] + offsets


def _gather_pfor(form: CompressedForm, positions: np.ndarray) -> np.ndarray:
    base = _gather_for(form, positions)
    patch_positions = form.constituent("patch_positions").values
    if patch_positions.size:
        slot = np.searchsorted(patch_positions, positions)
        slot = np.minimum(slot, patch_positions.size - 1)
        is_patch = patch_positions[slot] == positions
        if is_patch.any():
            base[is_patch] = form.constituent("patch_values").values[slot[is_patch]]
    return base


def _sum_for(form: CompressedForm):
    """``Σ refs·segment lengths + Σ offsets`` in the sum accumulator, exact mod
    2**64 like NumPy's sum of the decoded values; a PFOR patch replaces its
    row's reference + offset."""
    accumulator = _sum_accumulator(np.dtype(form.original_dtype))
    rows, each = form.original_length, int(form.parameter("segment_length"))
    refs = form.constituent("refs").values
    offsets = _residuals.decode_residuals(form.constituent("offsets"), form.parameters)
    segments = -(-rows // max(each, 1))
    if each < 1 or refs.size < segments or offsets.size != rows:
        message = f"{rows} rows in segments of {each}: {refs.size} refs, {offsets.size} offsets"
        raise OperatorError(f"malformed {form.scheme} form: {message}")
    refs = refs[:segments].astype(accumulator)
    lengths = np.full(segments, each, dtype=accumulator)
    lengths[-1] = rows - each * (segments - 1)
    terms = [(refs * lengths).sum(dtype=accumulator), offsets.sum(dtype=accumulator)]
    if form.scheme == "PFOR":
        at = form.constituent("patch_positions").values
        patched = refs[at // each] + offsets[at].astype(accumulator)
        patches = form.constituent("patch_values").values.astype(accumulator)
        terms.append((patches - patched).sum(dtype=accumulator))
    # One array reduction: NumPy scalar ``+`` warns where the sum wraps.
    return np.array(terms, dtype=accumulator).sum(dtype=accumulator)


# --------------------------------------------------------------------------- #
# DICT: the code domain
# --------------------------------------------------------------------------- #


def _dict_codes(form: CompressedForm, positions: Optional[np.ndarray]) -> np.ndarray:
    """The form's codes at *positions* (``None``: every row), never
    unpacking more of a packed stream than the positions touch."""
    stored = form.constituent("codes")
    if form.parameter("codes_layout") != "packed":
        return stored.values if positions is None else stored.values[positions]
    width = int(form.parameter("code_width"))
    count = int(form.parameter("count"))
    if positions is None:
        return _bitpack.unpack_bits(stored, width=width, count=count, dtype=np.int64).values
    codes = _bitpack.packed_gather(stored, width=width, count=count, positions=positions)
    return codes.astype(np.int64)


def range_mask_on_dict(form: CompressedForm, bounds: RangeBounds) -> MaskAndStats:
    """Evaluate a range predicate on a DICT form by rewriting it onto codes.

    The value range translates to a code range through the sorted dictionary
    (two binary searches); packed code columns are then compared
    word-parallel on the packed uint64 words — BitWeaving-style masking via
    :func:`repro.columnar.ops.bitpack.packed_compare_range` — without
    unpacking a single code.  ``rows_decoded`` reports how many codes had to
    be individually decoded: zero on the word-parallel and trivial paths.
    """
    _require(form, "DICT")
    n = form.original_length
    lo_code, hi_code = DictionaryEncoding.rewrite_range_to_codes(form, bounds.low, bounds.high)
    stats = PushdownStats(rows_total=n)
    if lo_code >= hi_code:
        return np.zeros(n, dtype=bool), stats
    if lo_code == 0 and hi_code >= int(form.parameter("dictionary_size", 0)):
        return np.ones(n, dtype=bool), stats
    if form.parameter("codes_layout") == "packed":
        width = int(form.parameter("code_width"))
        mask = _bitpack.packed_compare_range(
            form.constituent("codes"),
            width=width,
            count=int(form.parameter("count")),
            lo=lo_code,
            hi=min(hi_code - 1, (1 << width) - 1),
        )
    else:
        codes = form.constituent("codes").values
        mask = (codes >= lo_code) & (codes < hi_code)
    return mask, stats


def _gather_dict(form: CompressedForm, positions: np.ndarray) -> np.ndarray:
    return form.constituent("dictionary").values[_dict_codes(form, positions)]


def _sum_dict(form: CompressedForm):
    entries = form.constituent("dictionary").values
    return _sum_weighted(entries, np.bincount(_dict_codes(form, None), minlength=entries.size))


def _group_codes_dict(
    form: CompressedForm, positions: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    codes = _dict_codes(form, positions).astype(np.int64, copy=False)
    return codes, form.constituent("dictionary").values


# --------------------------------------------------------------------------- #
# NS: the stored (word-parallel) domain
# --------------------------------------------------------------------------- #


def _ns_is_order_preserving(form: CompressedForm) -> bool:
    # ``none`` and ``bias`` are shifts; zig-zag interleaves the signs.
    return form.parameter("transform", "none") != "zigzag"


def translate_range_to_stored(
    form: CompressedForm, bounds: RangeBounds
) -> Optional[Tuple[int, int]]:
    """Rewrite ``[low, high]`` into the NS form's stored unsigned domain:
    the inclusive ``(lo, hi)`` clamped into ``[0, 2**width - 1]``, or
    ``None`` when no stored value can match."""
    if not _ns_is_order_preserving(form):
        raise QueryError("zig-zag NS forms are not order-preserving; no range translation")
    shift = int(form.parameter("bias", 0)) if form.parameter("transform") == "bias" else 0
    lo = bounds.low - shift
    hi = bounds.high - shift
    top = (1 << int(form.parameter("width"))) - 1
    if hi < 0 or lo > top:
        return None
    return max(lo, 0), min(hi, top)


def range_mask_on_ns(form: CompressedForm, bounds: RangeBounds) -> MaskAndStats:
    """Evaluate a range predicate on an NS form in its stored unsigned domain.

    The bounds translate into the stored domain and the comparison runs
    word-parallel against the packed words without unpacking.
    """
    _require(form, "NS")
    n = form.original_length
    stats = PushdownStats(rows_total=n)
    translated = translate_range_to_stored(form, bounds)
    if translated is None:
        return np.zeros(n, dtype=bool), stats
    lo, hi = translated
    if form.parameter("mode") == "packed":
        mask = _bitpack.packed_compare_range(
            form.constituent("packed"),
            width=int(form.parameter("width")),
            count=int(form.parameter("count")),
            lo=lo,
            hi=hi,
        )
    else:
        values = form.constituent("values").values
        mask = (values >= np.uint64(lo)) & (values <= np.uint64(hi))
    return mask, stats


def _gather_ns(form: CompressedForm, positions: np.ndarray) -> np.ndarray:
    # Mirrors NullSuppression.decompression_plan element for element.
    if form.parameter("mode") == "aligned":
        values = form.constituent("values").values[positions].astype(np.uint64)
    else:
        values = _bitpack.packed_gather(
            form.constituent("packed"),
            width=int(form.parameter("width")),
            count=int(form.parameter("count")),
            positions=positions,
        )
    transform = form.parameter("transform", "none")
    if transform == "zigzag":
        return _bitpack._zigzag_decode_values(values)
    if transform == "bias":
        return values.astype(np.int64) + int(form.parameter("bias", 0))
    return values


# --------------------------------------------------------------------------- #
# LINEAR / POLY: the model domain
# --------------------------------------------------------------------------- #


def _gather_poly(form: CompressedForm, positions: np.ndarray) -> np.ndarray:
    # Mirrors PiecewisePolynomial.decompression_plan (Horner in float64) at
    # the requested positions only.
    segment_length = int(form.parameter("segment_length"))
    seg = positions // segment_length
    pos = (positions % segment_length).astype(np.float64)
    prediction = np.zeros(positions.size, dtype=np.float64)
    for k in range(int(form.parameter("degree")), -1, -1):
        prediction = prediction * pos + form.constituent(f"coeff_{k}").values[seg]
    offsets = _residuals.decode_residuals_at(
        form.constituent("offsets"), form.parameters, positions
    )
    return np.rint(prediction).astype(np.int64) + offsets


# --------------------------------------------------------------------------- #
# The kernel table
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _Kernels:
    """One scheme's kernels, each taking the resolved form first; ``None``
    means that operation decompresses."""

    filter_range: Optional[Callable] = None  # (form, bounds) -> (mask, PushdownStats)
    gather: Optional[Callable] = None  # (form, positions) -> values
    aggregate: Optional[Callable] = None  # (form) -> the sum over the whole form
    group_codes: Optional[Callable] = None  # (form, positions|None) -> (codes, groups)
    #: Whether ``filter_range`` applies to a given form.  It may read the
    #: form's scalar parameters and dtype only, never a constituent: it is
    #: asked about unpeeled cascade forms while planning over mmap-backed
    #: tables, which must stay I/O-free.
    filter_range_if: Callable[[CompressedForm], bool] = lambda form: True


_RUNS = _Kernels(filter_range=range_mask_on_runs, gather=_gather_runs, aggregate=_sum_runs)
_MODEL = _Kernels(gather=_gather_poly)

#: Scheme name -> kernels.  A scheme absent here (DELTA, VARWIDTH,
#: STEPFUNCTION) always decompresses.  ID has no filter on purpose:
#: "pushing down" onto uncompressed values is the decompress path, and
#: counting it would distort the pushdown statistics.
_KERNELS: Dict[str, _Kernels] = {
    "ID": _Kernels(gather=_gather_id, aggregate=_sum_id),
    "RLE": _RUNS,
    "RPE": _RUNS,
    "DICT": _Kernels(
        filter_range=range_mask_on_dict,
        gather=_gather_dict,
        aggregate=_sum_dict,
        group_codes=_group_codes_dict,
    ),
    "NS": _Kernels(
        filter_range=range_mask_on_ns,
        gather=_gather_ns,
        filter_range_if=_ns_is_order_preserving,
    ),
    "FOR": _Kernels(
        filter_range=range_mask_on_for,
        gather=_gather_for,
        aggregate=_sum_for,
        filter_range_if=_segments_fit_int64,
    ),
    "PFOR": _Kernels(
        filter_range=range_mask_on_for,
        gather=_gather_pfor,
        aggregate=_sum_for,
        filter_range_if=_segments_fit_int64,
    ),
    "LINEAR": _MODEL,
    "POLY": _MODEL,
}
_NO_KERNELS = _Kernels()
_KINDS = (KERNEL_FILTER_RANGE, KERNEL_GATHER, KERNEL_AGGREGATE, KERNEL_GROUP_CODES)


def _kernel(scheme: CompressionScheme, form: CompressedForm, kind: str) -> Optional[Callable]:
    """The *kind* kernel serving ``(scheme, form)``, or ``None``.

    A cascade is served by its outer scheme's kernels, and its form carries
    the outer form's parameters, so only the scheme is peeled here — no
    nested constituent is reconstructed to answer the question.
    """
    while isinstance(scheme, Cascade):
        scheme = scheme.outer
    entry = _KERNELS.get(scheme.name, _NO_KERNELS)
    if kind == KERNEL_FILTER_RANGE and not entry.filter_range_if(form):
        return None
    return getattr(entry, kind)


def filter_range_decodes(scheme: CompressionScheme, form: CompressedForm) -> bool:
    """Whether :func:`filter_range` decodes every value of *form* to compare it
    (``range_mask_on_ns`` at a packed width ``packed_compare_range`` unpacks):
    a scan that needs the values anyway compares those and decodes once.
    Scalar parameters only, like ``filter_range_if``."""
    return (
        _kernel(scheme, form, KERNEL_FILTER_RANGE) is range_mask_on_ns
        and form.parameter("mode") == "packed"
        and not _bitpack.compares_word_parallel(int(form.parameter("width")))
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
    return kernel(resolve_form(scheme, form), bounds)


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
    values = kernel(resolve_form(scheme, form), np.asarray(positions, dtype=np.int64))
    dtype = np.dtype(form.original_dtype)
    if values.dtype != dtype:
        values = values.astype(dtype)
    return values


def aggregate_whole(scheme: CompressionScheme, form: CompressedForm) -> Optional[np.generic]:
    """The sum over *every* row of the form, without decompressing: a NumPy
    scalar in the int64/uint64 accumulator of :func:`repro.engine.operators.aggregate`,
    or ``None`` when the form is empty or has no :data:`KERNEL_AGGREGATE` kernel.
    ``count`` is ``original_length``; a stored chunk's zone map states ``min``/``max``."""
    kernel = _kernel(scheme, form, KERNEL_AGGREGATE)
    if kernel is None or form.original_length == 0:
        return None
    return kernel(resolve_form(scheme, form))


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
    return kernel(resolve_form(scheme, form), positions)
