"""Tests for the compressed-execution kernels and the table they live in."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.columnar.ops import bitpack as _bitpack
from repro.api import col, count, dataset
from repro.engine import RangeBounds, kernels
from repro.engine.kernels import (
    KERNEL_FILTER_RANGE,
    KERNEL_GATHER,
    KERNEL_GROUP_CODES,
    range_mask_on_ns,
)
from repro.errors import QueryError
from repro.schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    Identity,
    NullSuppression,
    PatchedFrameOfReference,
    PiecewiseLinear,
    PiecewisePolynomial,
    RunLengthEncoding,
    RunPositionEncoding,
)
from repro.schemes.registry import make_cascade, make_scheme
from repro.storage import Table


@pytest.fixture(scope="module")
def column():
    rng = np.random.default_rng(11)
    values = np.repeat(rng.integers(-60, 600, 400),
                       rng.integers(1, 6, 400)).astype(np.int64)
    return Column(values)


SCHEMES = [
    RunLengthEncoding(),
    RunPositionEncoding(),
    DictionaryEncoding(),
    DictionaryEncoding(codes_layout="aligned"),
    FrameOfReference(segment_length=37),
    FrameOfReference(segment_length=64, reference="mid"),
    PatchedFrameOfReference(segment_length=23),
    NullSuppression(),
    NullSuppression(mode="aligned"),
    NullSuppression(signed="bias"),
    Identity(),
    PiecewiseLinear(segment_length=19),
    Cascade(RunLengthEncoding(), {"values": Delta(),
                                  "lengths": NullSuppression()}),
    Cascade(RunPositionEncoding(), {"values": Delta(),
                                    "run_positions": Delta()}),
]

SCHEME_IDS = [s.describe() for s in SCHEMES]


def _sample(kind):
    if kind == "runs":
        return np.repeat(np.arange(40, dtype=np.int64) * 7 + 3, np.arange(40) % 5 + 1)
    if kind == "sorted":
        return np.cumsum(np.arange(200, dtype=np.int64) % 9)
    if kind == "signed":
        return (np.arange(200, dtype=np.int64) * 3) % 41 - 20
    return (np.arange(200, dtype=np.int64) * 37) % 101


#: Every registered scheme, the parameter shapes its kernels depend on, and
#: three cascades: variant -> (scheme, sample kind).
VARIANTS = {
    "ID": (make_scheme("ID"), "runs"),
    "NS/none": (make_scheme("NS"), "spread"),
    "NS/zigzag": (make_scheme("NS", signed="zigzag"), "signed"),
    "NS/bias": (make_scheme("NS", signed="bias"), "signed"),
    "DELTA": (make_scheme("DELTA"), "sorted"),
    "RLE": (make_scheme("RLE"), "runs"),
    "RPE": (make_scheme("RPE"), "runs"),
    "FOR": (make_scheme("FOR"), "sorted"),
    "STEPFUNCTION": (make_scheme("STEPFUNCTION"), "sorted"),
    "DICT/packed": (make_scheme("DICT", codes_layout="packed"), "runs"),
    "DICT/aligned": (make_scheme("DICT", codes_layout="aligned"), "runs"),
    "PFOR": (make_scheme("PFOR"), "sorted"),
    "VARWIDTH": (make_scheme("VARWIDTH"), "spread"),
    "LINEAR": (make_scheme("LINEAR"), "sorted"),
    "POLY": (make_scheme("POLY"), "sorted"),
    "CASCADE/RLE∘NS": (make_cascade("RLE", {"values": "NS"}), "runs"),
    "CASCADE/RLE∘DELTA": (make_cascade("RLE", {"lengths": "DELTA"}), "runs"),
    "CASCADE/DICT∘NS": (make_cascade("DICT", {"codes": "NS"}), "runs"),
}


class TestRangeBounds:
    def test_valid(self):
        bounds = RangeBounds(1, 5)
        assert bounds.low == 1 and bounds.high == 5

    def test_invalid(self):
        with pytest.raises(QueryError):
            RangeBounds(5, 1)


class TestCapabilities:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_capability_means_the_kernel_answers(self, variant):
        """``supports(kernel)`` ⇔ the kernel returns non-``None``, and every
        answer equals decompress-then-compute."""
        scheme, kind = VARIANTS[variant]
        form = scheme.compress(Column(_sample(kind)))
        reference = scheme.decompress(form).values
        positions = np.arange(0, len(reference), 3)
        low, high = np.sort(reference)[[len(reference) // 4, len(reference) // 2]]
        bounds = RangeBounds(int(low), int(high))
        answers = {
            KERNEL_FILTER_RANGE: kernels.filter_range(scheme, form, bounds),
            KERNEL_GATHER: kernels.gather(scheme, form, positions),
            KERNEL_GROUP_CODES: kernels.group_codes(scheme, form, positions),
        }
        answered = {kernel for kernel, answer in answers.items() if answer is not None}
        assert kernels.capabilities(scheme, form) == answered
        for kernel in answers:
            assert kernels.supports(scheme, form, kernel) == (kernel in answered)

        if KERNEL_FILTER_RANGE in answered:
            mask, stats = answers[KERNEL_FILTER_RANGE]
            assert np.array_equal(mask, (reference >= low) & (reference <= high))
            assert stats.rows_total == len(reference)
        if KERNEL_GATHER in answered:
            assert answers[KERNEL_GATHER].dtype == reference.dtype
            assert np.array_equal(answers[KERNEL_GATHER], reference[positions])
        if KERNEL_GROUP_CODES in answered:
            codes, groups = answers[KERNEL_GROUP_CODES]
            assert np.array_equal(groups, np.unique(groups))
            assert np.array_equal(groups[codes], reference[positions])

    def test_zigzag_ns_drops_filter_but_keeps_gather(self):
        scheme = NullSuppression(signed="zigzag")
        form = scheme.compress(Column(np.array([-5, 3, -1, 7], dtype=np.int64)))
        assert kernels.capabilities(scheme, form) == {KERNEL_GATHER}
        with pytest.raises(QueryError):
            range_mask_on_ns(scheme, form, RangeBounds(0, 1))

    def test_cascade_inherits_outer_capabilities(self, column):
        cascade = Cascade(RunLengthEncoding(), {"values": Delta()})
        form = cascade.compress(column)
        plain = RunLengthEncoding().compress(column)
        assert kernels.capabilities(cascade, form) \
            == kernels.capabilities(RunLengthEncoding(), plain)

    def test_capabilities_touch_no_constituents(self, column):
        """Consulting capabilities must not materialise lazy constituents
        (the mmap reader relies on this for I/O-free planning)."""
        class Exploding(dict):
            def __getitem__(self, key):
                raise AssertionError(f"capabilities read constituent {key!r}")

        cascade = Cascade(NullSuppression(signed="bias"),
                          {"packed": Delta()})
        form = cascade.compress(column)
        form.columns = Exploding(form.columns)
        form.nested = Exploding(form.nested)
        assert kernels.capabilities(cascade, form) \
            == {KERNEL_FILTER_RANGE, KERNEL_GATHER}
        assert kernels.filter_range_decodes(cascade, form)  # 10-bit: scalars only, too

    @pytest.mark.parametrize("scheme, top, decodes", [
        (NullSuppression(), 1 << 10, True), (NullSuppression(), 1 << 3, True),
        (NullSuppression(), 1 << 4, True),
        (NullSuppression(), 1 << 8, False), (NullSuppression(), 1 << 16, False),
        (NullSuppression(mode="aligned"), 1 << 10, False),
        (DictionaryEncoding(), 1 << 10, False), (FrameOfReference(), 1 << 10, False),
    ], ids=["ns-10", "ns-3", "ns-4", "ns-8", "ns-16", "ns-aligned-10", "dict", "for"])
    def test_only_ns_compared_through_the_period_kernel_decodes_to_filter(self, scheme, top,
                                                                         decodes):
        """The fact the scan reads to decode a chunk once: packed NS asks
        ``bitpack.compares_word_parallel``, whether ``packed_compare_range``
        runs the period kernel to compare."""
        form = scheme.compress(Column(np.arange(max(top - 50, 0), top, dtype=np.int64)))
        assert kernels.filter_range_decodes(scheme, form) is decodes


class TestDtypeLimits:
    """Wrong answers the kernels used to give at the edges of the dtype."""

    @staticmethod
    def _row_counts(values, scheme, predicate):
        table = Table.from_columns({"u": Column(values)}, schemes={"u": scheme})
        query = dataset(table).filter(predicate)
        return (query.collect().row_count,
                query.without_pushdown().collect().row_count)

    @pytest.mark.parametrize("predicate, expected", [
        (col("u") == 2**63 - 1, 0),
        (col("u") <= 2**63 - 1, 3),
        (col("u") >= 2**63, 2),
    ])
    def test_dict_code_rewrite_on_uint64(self, predicate, expected):
        values = np.array([2**63, 5, 7, 2**64 - 1, 9], dtype=np.uint64)
        assert self._row_counts(values, DictionaryEncoding(), predicate) \
            == (expected, expected)

    def test_dict_bounds_outside_the_dictionary_dtype(self):
        limits = np.iinfo(np.int64)
        scheme = DictionaryEncoding()
        form = scheme.compress(Column(np.array([limits.min, 0, limits.max])))
        for bounds, expected in [
                (RangeBounds(2**63, 2**64 - 1), [False, False, False]),
                (RangeBounds(-2**70, -2**63 - 1), [False, False, False]),
                (RangeBounds(-2**70, 2**70), [True, True, True]),
                (RangeBounds(1, 2**63), [False, False, True])]:
            mask, __ = kernels.filter_range(scheme, form, bounds)
            assert mask.tolist() == expected, bounds

    def test_pfor_filter_on_uint64_above_int64(self):
        values = np.array([0, 2**64 - 1, 2**63, 5] + [3] * 60, dtype=np.uint64)
        scheme = PatchedFrameOfReference()
        assert self._row_counts(values, scheme, col("u") >= 2**63) == (2, 2)
        # The int64 segment arithmetic cannot represent these values, so the
        # form has no filter kernel and the scan decompresses.
        form = scheme.compress(Column(values))
        assert not kernels.supports(scheme, form, KERNEL_FILTER_RANGE)
        assert kernels.filter_range(scheme, form, RangeBounds(0, 1)) is None


class TestGatherKernel:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
    def test_gather_equals_decompress_then_index(self, scheme, column):
        form = scheme.compress(column)
        reference = scheme.decompress(form).values
        rng = np.random.default_rng(3)
        positions = rng.integers(0, len(column), 137)
        gathered = kernels.gather(scheme, form, positions)
        assert gathered is not None
        assert gathered.dtype == reference.dtype
        assert np.array_equal(gathered, reference[positions])

    def test_gather_empty_positions(self, column):
        scheme = RunLengthEncoding()
        form = scheme.compress(column)
        out = kernels.gather(scheme, form, np.empty(0, dtype=np.int64))
        assert out is not None and out.size == 0

    def test_gather_unsupported_returns_none(self, column):
        scheme = Delta()
        form = scheme.compress(column)
        assert kernels.gather(scheme, form, np.array([0, 1])) is None


class TestFilterKernel:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
    @pytest.mark.parametrize("bounds", [RangeBounds(0, 250),
                                        RangeBounds(-60, -60),
                                        RangeBounds(10_000, 20_000)])
    def test_filter_matches_reference(self, scheme, column, bounds):
        form = scheme.compress(column)
        pushed = kernels.filter_range(scheme, form, bounds)
        if pushed is None:
            assert not kernels.supports(scheme, form, KERNEL_FILTER_RANGE)
            return
        mask, stats = pushed
        reference = scheme.decompress(form).values
        assert np.array_equal(mask, (reference >= bounds.low)
                              & (reference <= bounds.high))
        assert stats.rows_total == len(column)

    def test_ns_bias_translates_bounds(self):
        values = Column(np.array([-100, -50, 0, 50, 100], dtype=np.int64))
        scheme = NullSuppression(signed="bias")
        form = scheme.compress(values)
        translated = kernels.translate_range_to_stored(form, RangeBounds(-50, 50))
        assert translated == (50, 150)
        mask, __ = range_mask_on_ns(scheme, form, RangeBounds(-50, 50))
        assert mask.tolist() == [False, True, True, True, False]

    def test_ns_disjoint_range_matches_nothing(self):
        values = Column(np.array([5, 6, 7], dtype=np.int64))
        scheme = NullSuppression()
        form = scheme.compress(values)
        assert kernels.translate_range_to_stored(form, RangeBounds(-9, -1)) is None
        mask, __ = range_mask_on_ns(scheme, form, RangeBounds(-9, -1))
        assert not mask.any()


class TestWholeChunkSum:
    """A whole chunk's sum is no kernel's: its zone map states it."""

    @pytest.mark.parametrize("scheme", [RunLengthEncoding(),
                                        RunPositionEncoding(),
                                        DictionaryEncoding(),
                                        Identity(),
                                        FrameOfReference(segment_length=37),
                                        PatchedFrameOfReference(segment_length=23)],
                             ids=lambda s: s.describe())
    def test_whole_form_sum_matches_numpy(self, scheme, column):
        stored = Table.from_columns({"v": column}, schemes={"v": scheme}).column("v")
        assert kernels.aggregate_whole(scheme, stored.chunks[0].form) is None
        totals = stored.zone_maps().totals
        assert totals.dtype == np.int64
        assert totals.sum(dtype=np.int64) == column.values.sum(dtype=np.int64)

    @pytest.mark.parametrize("scheme", [RunLengthEncoding(), FrameOfReference(segment_length=3)],
                             ids=lambda s: s.describe())
    def test_uint64_sum_uses_unsigned_accumulator(self, scheme):
        values = Column(np.array([2**63, 2**63 - 1, 5, 5], dtype=np.uint64))
        stored = Table.from_columns({"v": values}, schemes={"v": scheme}).column("v")
        assert stored.chunks[0].statistics.total == 2**64 + 9
        totals = stored.zone_maps().totals
        assert totals.dtype == np.uint64
        assert totals[0] == values.values.sum(dtype=np.uint64)


class TestGroupCodes:
    @pytest.mark.parametrize("layout", ["packed", "aligned"])
    def test_codes_reconstruct_values(self, column, layout):
        scheme = DictionaryEncoding(codes_layout=layout)
        form = scheme.compress(column)
        positions = np.arange(0, len(column), 3)
        coded = kernels.group_codes(scheme, form, positions)
        assert coded is not None
        codes, groups = coded
        assert np.array_equal(groups[codes], column.values[positions])
        full = kernels.group_codes(scheme, form, None)
        assert np.array_equal(full[1][full[0]], column.values)


class TestMemoisation:
    def test_query_plans_shared_by_forms_and_cascades(self, column):
        """One compiled query plan per outer scheme and kind: other chunks
        and a cascade over the same outer scheme find the same one."""
        scheme, cascade = RunLengthEncoding(), Cascade(RunLengthEncoding(), {"values": Delta()})
        for kind in (KERNEL_FILTER_RANGE, KERNEL_GATHER):
            first = kernels.query_plan(scheme, scheme.compress(column), kind)
            assert kernels.query_plan(scheme, scheme.compress(column[:50]), kind) is first
            assert kernels.query_plan(cascade, cascade.compress(column), kind) is first

    def test_query_plans_run_on_the_runs(self, column):
        """The optimizer moves every run query off the expansion: no step of
        an optimized filter or gather plan reads a ``Repeat``'s rows (the
        filter's verdicts expand last), so the runs' filter is always offered."""
        for scheme in (RunLengthEncoding(), RunPositionEncoding(),
                       Cascade(RunLengthEncoding(), {"values": Delta()})):
            form = scheme.compress(column)
            assert kernels.supports(scheme, form, KERNEL_FILTER_RANGE)
            for kind in (KERNEL_FILTER_RANGE, KERNEL_GATHER):
                plan = kernels.query_plan(scheme, form, kind).plan
                expanded = {step.output for step in plan.steps if step.op == "Repeat"}
                assert not any(expanded & set(step.column_inputs.values())
                               for step in plan.steps)

    def test_segment_bounds_cached_per_form(self, column):
        form = FrameOfReference(segment_length=32).compress(column)
        first = kernels._segment_bounds(form)
        assert kernels._segment_bounds(form) is first

    @pytest.mark.parametrize("scheme", [FrameOfReference(segment_length=32),
                                        FrameOfReference(segment_length=32, reference="mid",
                                                         offsets_layout="aligned"),
                                        PatchedFrameOfReference(segment_length=32)],
                             ids=["FOR", "FOR/mid-aligned", "PFOR"])
    def test_segment_filters_decide_from_the_references(self, column, scheme):
        """A range the references decide — every segment inside it, or every
        one outside — is answered from them alone: no offset is decoded."""
        form = scheme.compress(column)
        values = column.values
        low, high = int(values.min()), int(values.max())
        for bounds, accepted in [(RangeBounds(low - 2**20, high + 2**20), True),
                                 (RangeBounds(high + 2**20, high + 2**21), False)]:
            mask, stats = kernels.filter_range(scheme, form, bounds)
            assert mask.tolist() == [accepted] * values.size
            assert stats.rows_decoded == 0
            decided = stats.segments_accepted if accepted else stats.segments_skipped
            assert decided == stats.segments_total == form.constituent_length("refs")

    def test_cascade_resolution_cached_per_form(self, column):
        cascade = Cascade(RunLengthEncoding(), {"values": Delta()})
        form = cascade.compress(column)
        resolved = kernels.resolve_form(cascade, form)
        assert resolved.scheme == "RLE"
        assert kernels.resolve_form(cascade, form) is resolved


class TestWordParallelBitpack:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 7, 8, 11, 16, 24, 32,
                                       33, 63, 64])
    def test_compare_range_matches_unpacked(self, width, monkeypatch):
        periods = []
        kernel = _bitpack._unpack_periods
        monkeypatch.setattr(_bitpack, "_unpack_periods",
                            lambda *args: periods.append(width) or kernel(*args))
        rng = np.random.default_rng(width)
        count = 1_003  # odd size: tail fields must be masked off
        top = (1 << width) - 1
        values = rng.integers(0, min(top, 2**50) + 1, count).astype(np.uint64)
        packed = _bitpack.pack_bits(Column(values), width=width)
        for lo, hi in [(0, top), (0, 0), (min(3, top), min(17, top)),
                       (int(values.min()), int(values.max()))]:
            if lo > hi:
                continue
            mask = _bitpack.packed_compare_range(packed, width, count, lo, hi)
            assert np.array_equal(
                mask, (values >= np.uint64(lo)) & (values <= np.uint64(hi))), \
                (width, lo, hi)
        # One comparison path: every width unpacks into its narrowest
        # unsigned dtype; the predicate the scan asks is whether that unpack
        # ran the period kernel (every width but the whole-byte ones).
        assert _bitpack.compares_word_parallel(width) == bool(periods)
        assert _bitpack.compares_word_parallel(width) == (width not in (8, 16, 32, 64))

    @pytest.mark.parametrize("width", [3, 4, 8, 17, 64])
    def test_packed_gather_matches_unpack(self, width):
        rng = np.random.default_rng(width)
        count = 517
        values = rng.integers(0, 1 << min(width, 50), count).astype(np.uint64)
        packed = _bitpack.pack_bits(Column(values), width=width)
        positions = rng.integers(0, count, 301)
        assert np.array_equal(
            _bitpack.packed_gather(packed, width, count, positions),
            values[positions])

    def test_compare_range_rejects_bad_bounds(self):
        packed = _bitpack.pack_bits(Column(np.array([1, 2, 3], dtype=np.uint64)),
                                    width=4)
        from repro.errors import OperatorError
        with pytest.raises(OperatorError):
            _bitpack.packed_compare_range(packed, 4, 3, 0, 16)

    def test_packed_gather_rejects_out_of_range_positions(self):
        packed = _bitpack.pack_bits(Column(np.array([1, 2, 3], dtype=np.uint64)),
                                    width=4)
        from repro.errors import OperatorError
        with pytest.raises(OperatorError):
            _bitpack.packed_gather(packed, 4, 3, np.array([3]))


@pytest.mark.parametrize("positions", [np.array([5, 500, 999]), np.arange(10, 40)],
                         ids=["sparse", "dense"])
@pytest.mark.parametrize("scheme, constituent", [
    (NullSuppression(), "packed"),
    (DictionaryEncoding(), "codes"),
    (FrameOfReference(segment_length=128), "offsets"),
], ids=["NS", "DICT", "FOR"])
def test_gather_and_decompress_refuse_a_truncated_constituent(scheme, constituent,
                                                              positions):
    """A packed constituent cut to 50 bytes holds 400 of its 10 000 bits: the
    positional read must refuse it with the error decompression raises, not
    answer ``[5, 0, 0]`` from the zero padding of its last words."""
    from repro.errors import OperatorError
    from repro.schemes.base import CompressedForm

    values = np.random.default_rng(0).integers(0, 1000, 1000).astype(np.int64)
    form = scheme.compress(Column(values))
    assert np.array_equal(kernels.gather(scheme, form, positions), values[positions])
    columns = dict(form.columns)
    columns[constituent] = Column(columns[constituent].values[:50])
    truncated = CompressedForm(
        scheme=form.scheme, columns=columns, parameters=dict(form.parameters),
        original_length=form.original_length, original_dtype=form.original_dtype)
    with pytest.raises(OperatorError, match="holds 400 bits, needs 10000") as decoding:
        scheme.decompress(truncated)
    with pytest.raises(OperatorError, match="holds 400 bits, needs 10000") as gathering:
        kernels.gather(scheme, truncated, positions)
    assert type(gathering.value) is type(decoding.value)


class TestConsecutiveRuns:
    """A run of consecutive positions — a chunk a selection covers whole —
    reads its slice of the packed offsets and repeats each covering
    segment's reference over it."""

    @pytest.mark.parametrize("scheme", [FrameOfReference(segment_length=16),
                                        PatchedFrameOfReference(segment_length=16)],
                             ids=["FOR", "PFOR"])
    def test_runs_equal_the_decompressed_slice(self, scheme):
        rng = np.random.default_rng(21)
        values = np.cumsum(rng.integers(-3, 4, 400)) + 10_000
        values[[17, 18, 40, 161]] += 1 << 40  # PFOR patches these
        form = scheme.compress(Column(values))
        reference = scheme.decompress(form).values
        patches = set(form.constituent("patch_positions").values.tolist()) \
            if scheme.name == "PFOR" else set()
        assert scheme.name == "FOR" or {17, 18, 40, 161} <= patches
        # Starting, ending and straddling segment boundaries; patches inside.
        for start, stop in [(0, 16), (16, 48), (5, 11), (3, 40), (15, 17), (31, 33),
                            (17, 19), (0, 400), (391, 400), (399, 400), (160, 162)]:
            positions = np.arange(start, stop)
            assert _bitpack.contiguous(positions) == slice(start, stop)
            gathered = kernels.gather(scheme, form, positions)
            assert gathered.dtype == reference.dtype
            assert np.array_equal(gathered, reference[start:stop]), (start, stop)

    @pytest.mark.parametrize("scheme", [FrameOfReference(segment_length=16),
                                        PatchedFrameOfReference(segment_length=16)],
                             ids=["FOR", "PFOR"])
    def test_a_run_over_truncated_offsets_is_refused(self, scheme):
        from repro.errors import OperatorError
        from repro.schemes.base import CompressedForm

        form = scheme.compress(Column(np.arange(1_000, dtype=np.int64) * 7 % 997))
        columns = {**form.columns, "offsets": Column(form.constituent("offsets").values[:50])}
        truncated = CompressedForm(
            scheme=form.scheme, columns=columns, parameters=dict(form.parameters),
            original_length=form.original_length, original_dtype=form.original_dtype)
        for positions in (np.arange(0, 10), np.arange(1_000)):
            with pytest.raises(OperatorError, match="buffer holds"):
                kernels.gather(scheme, truncated, positions)


# --------------------------------------------------------------------------- #
# Malformed forms: one exception type on every path that reads them
# --------------------------------------------------------------------------- #

def reversed_dictionary_values():
    """4 096 rows over the 16 even values 0..30 (DICT packs their codes at 4 bits)."""
    return np.random.default_rng(3).integers(0, 16, 4_096).astype(np.int64) * 2


def _edited(form, columns, parameters):
    """A copy of *form* with the given constituents and parameters replaced."""
    from repro.schemes.base import CompressedForm

    return CompressedForm(
        scheme=form.scheme, columns={**form.columns, **columns},
        parameters={**form.parameters, **parameters},
        original_length=form.original_length, original_dtype=form.original_dtype)


def _damaged(case):
    """``(scheme, form, bounds)``: a form whose metadata the data does not
    fit, and filter bounds that make the filter kernel read it."""
    family, damage = case.split("/")
    if family in ("RLE", "RPE"):
        # 120 rows in three runs; RLE's lengths then add up to 123, RPE's ends
        # descend, or the second run is empty (the two decoders read it apart).
        scheme = RunLengthEncoding() if family == "RLE" else RunPositionEncoding()
        form = scheme.compress(Column(np.repeat(np.array([10, 20, 30]), 40)))
        ends = {"lengths-past-the-rows": [40, 40, 43], "descending-ends": [80, 40, 120],
                "empty-run": [80, 0, 40] if family == "RLE" else [80, 80, 120]}[damage]
        name = "lengths" if family == "RLE" else "run_positions"
        columns = {name: Column(np.array(ends, dtype=np.uint8))}
        parameters, bounds = {}, RangeBounds(15, 25)
    elif case == "DICT/codes-long":
        # 120 rows, the packed codes of 132: the stream holds more values than rows.
        scheme = DictionaryEncoding()
        form = scheme.compress(Column(np.tile(np.array([10, 20, 30]), 40)))
        longer = scheme.compress(Column(np.tile(np.array([10, 20, 30]), 44)))
        columns, parameters = {"codes": longer.constituent("codes")}, {}
        bounds = RangeBounds(15, 25)
    elif case == "DICT/reversed":
        # 16 values whose dictionary is reversed, its codes remapped to match:
        # the form decodes right, but the kernels binary-search the dictionary.
        scheme, values = DictionaryEncoding(), reversed_dictionary_values()
        form = scheme.compress(Column(values))
        columns = {"dictionary": Column(form.constituent("dictionary").values[::-1].copy()),
                   "codes": _bitpack.pack_bits(Column((15 - values // 2).astype(np.uint64)), 4)}
        parameters, bounds = {}, RangeBounds(3, 5)
    elif family == "DICT":
        scheme = DictionaryEncoding(codes_layout=damage)
        form = scheme.compress(Column(np.tile(np.array([10, 20, 30]), 40)))
        codes = np.tile(np.arange(3, dtype=np.uint64), 40)
        codes[7] = 3  # a 3-entry dictionary packs at 2 bits: code 3 fits the stream
        stored = (_bitpack.pack_bits(Column(codes), 2) if damage == "packed"
                  else Column(codes.astype(np.uint8)))
        columns, parameters, bounds = {"codes": stored}, {}, RangeBounds(15, 25)
    elif case == "NS/bias-past-int32":
        # int32 rows from -5, stored less a bias of -5; a bias of 2**31 - 50
        # takes the stored values past int32, where decoding wraps and the
        # filter's bounds less the bias do not.
        scheme = NullSuppression(signed="bias")
        form = scheme.compress(Column(np.arange(-5, 115, dtype=np.int32)))
        columns, parameters, bounds = {}, {"bias": 2**31 - 50}, RangeBounds(15, 25)
    elif case == "NS/aligned-value-past-width":
        # 100 values in [0, 16) stored aligned at 4 bits, one of them then 200:
        # the decoders read 200, the filter bounds the stream by 15.
        scheme = NullSuppression(mode="aligned", signed="reject")
        form = scheme.compress(Column(np.arange(100) % 16))
        stored = form.constituent("values").values.copy()
        stored[7] = 200
        columns, parameters, bounds = {"values": Column(stored)}, {}, RangeBounds(5, 300)
    elif family == "NS":
        # 120 rows, the packed stream of 132 or one aligned value short of them.
        scheme = NullSuppression(mode=damage.split("-")[0])
        form = scheme.compress(Column(np.arange(10, 130, dtype=np.int64)))
        if damage == "packed-long":
            longer = scheme.compress(Column(np.arange(10, 142, dtype=np.int64)))
            columns = {"packed": longer.constituent("packed")}
        else:
            columns = {"values": Column(form.constituent("values").values[:-1])}
        parameters, bounds = {}, RangeBounds(15, 25)
    elif damage == "reference-at-the-limit":
        # 1 000 rows in [0, 100) whose first reference is moved to 2**63 - 11:
        # a valid form, but decoding wraps its first segment past the int64
        # limit from the 12th offset on, where the bounds it used to be
        # accepted by do not.
        values = np.random.default_rng(0).integers(0, 100, 1_000)
        scheme = (FrameOfReference if family == "FOR" else PatchedFrameOfReference)(
            segment_length=128)
        form = scheme.compress(Column(values))
        refs = form.constituent("refs").values.copy()
        refs[0] = 2**63 - 11
        columns, parameters = {"refs": Column(refs)}, {}
        bounds = RangeBounds(2**63 - 201, 2**63 - 1)
    elif family in ("LINEAR", "POLY"):
        # 120 rows in 8 segments of 16; the form then says 4 segments of 32,
        # or a degree-2 model of degree 1, or its aligned offsets miss one.
        layout = "aligned" if damage == "aligned-offsets-short" else "packed"
        scheme = PiecewiseLinear(segment_length=16, offsets_layout=layout) \
            if family == "LINEAR" else \
            PiecewisePolynomial(segment_length=16, degree=2, offsets_layout=layout)
        form = scheme.compress(Column(np.arange(120, dtype=np.int64) ** 2 // 7))
        columns, bounds = {}, RangeBounds(15, 25)
        parameters = {"segment_length": 32} if family == "LINEAR" else {"degree": 1}
        if damage == "aligned-offsets-short":
            columns = {"offsets": Column(form.constituent("offsets").values[:-1])}
            parameters = {}
    else:
        # 120 rows in 8 segments of 16; PFOR patches rows 7, 33 and 101.
        values = np.arange(100_000, 100_120, dtype=np.int64)
        if family == "PFOR":
            values[[7, 33, 101]] += 1 << 40
        layout = "aligned" if damage in ("aligned-width", "aligned-offsets-short") else "packed"
        scheme = (FrameOfReference if family == "FOR" else PatchedFrameOfReference)(
            segment_length=16, offsets_layout=layout)
        form = scheme.compress(Column(values))
        columns, parameters = {}, {"segment_length": 0}
        if damage == "short-refs":
            columns, parameters = {"refs": Column(form.constituent("refs").values[:5])}, {}
        if damage == "long-segments":  # 8 refs for the 4 segments of 32 the form claims
            parameters = {"segment_length": 32}
        if damage == "aligned-width":  # offsets up to 15, stored as bytes, said to fit 2 bits
            parameters = {"offsets_width": 2}
        if damage == "aligned-offsets-short":  # 119 offsets for the 120 rows the count states
            columns = {"offsets": Column(form.constituent("offsets").values[:-1])}
            parameters = {}
        patches = {"patch-count": ([7, 33, 101], [0]),
                   "reversed-patches": ([101, 33, 7], [2, 1, 0]),
                   "negative-position": ([7, 33, -1], [0, 1, 2])}
        if damage in patches:  # one value for three patches, positions descending or below 0
            positions, taken = patches[damage]
            columns = {"patch_positions": Column(np.array(positions, dtype=np.int64)),
                       "patch_values": Column(form.constituent("patch_values").values[taken])}
            parameters = {}
        bounds = RangeBounds(100_050, 100_060)
    return scheme, _edited(form, columns, parameters), bounds


#: path -> how it reads ``(scheme, form, bounds)``; every gather covers row 7.
READS = {
    "decompress": lambda scheme, form, bounds: scheme.decompress(form),
    "decompress_interpreted": lambda scheme, form, bounds: scheme.decompress_interpreted(form),
    "gather-sparse": lambda scheme, form, bounds: kernels.gather(scheme, form,
                                                                 np.array([7, 101])),
    "gather-dense": lambda scheme, form, bounds: kernels.gather(scheme, form,
                                                                np.arange(1, 120, 2)),
    "gather-run": lambda scheme, form, bounds: kernels.gather(scheme, form, np.arange(120)),
    "filter_range": lambda scheme, form, bounds: kernels.filter_range(scheme, form, bounds),
    "group_codes": lambda scheme, form, bounds: kernels.group_codes(scheme, form, None),
    "group_codes-at": lambda scheme, form, bounds: kernels.group_codes(scheme, form,
                                                                       np.arange(5, 9)),
    "group-key": lambda scheme, form, bounds: dataset(_table_of(scheme, form)).group_by(
        "k").agg(count()).collect(),
}


def _table_of(scheme, form):
    """A one-chunk table whose column ``k`` is *form*."""
    from dataclasses import replace

    rows = np.arange(form.original_length, dtype=form.original_dtype)
    table = Table.from_pydict({"k": rows}, schemes={"k": scheme}, chunk_size=rows.size)
    chunks = table.column("k").chunks
    chunks[0] = replace(chunks[0], form=form)
    return table


@pytest.mark.parametrize("path", list(READS))
@pytest.mark.parametrize("case", ["DICT/packed", "DICT/aligned", "DICT/codes-long",
                                  "DICT/reversed", "FOR/segment-length-0", "FOR/short-refs",
                                  "FOR/long-segments", "FOR/aligned-width",
                                  "PFOR/segment-length-0", "PFOR/short-refs",
                                  "PFOR/patch-count", "PFOR/reversed-patches",
                                  "PFOR/negative-position", "RLE/lengths-past-the-rows",
                                  "RPE/descending-ends", "RLE/empty-run", "RPE/empty-run",
                                  "NS/packed-long", "NS/aligned-short",
                                  "NS/aligned-value-past-width", "NS/bias-past-int32",
                                  "LINEAR/segment-length", "POLY/degree",
                                  "FOR/aligned-offsets-short", "PFOR/aligned-offsets-short",
                                  "LINEAR/aligned-offsets-short",
                                  "POLY/aligned-offsets-short"])
def test_a_malformed_form_is_an_operator_error_on_every_path(case, path):
    """A code past its dictionary, a DICT dictionary out of order, DICT codes
    or an NS stream longer or shorter than the rows, a FOR segment length
    of 0, references too few or too many for the segments, aligned FOR
    offsets wider than their width, PFOR patch positions that are not as
    many as their values or that descend or precede row 0,
    an aligned NS value past its width (both decoders counted 67 rows in
    ``[5, 300]``, the filter 66), an NS bias that takes stored
    values past the column's dtype, run lengths adding up past the rows, run
    ends that descend or an empty run (RPE's decoders used to answer apart),
    LINEAR/POLY coefficients that do not match the segments or the degree,
    FOR/PFOR/LINEAR/POLY aligned offsets one short of the rows (the filter
    and the gathers used to raise a bare ``IndexError``) — a scalar outside
    its declared domain is ``tests/schemes/test_declared_parameters.py``'s:
    each path either has no kernel for the form (``group_codes`` on FOR, NS;
    ``filter_range`` on LINEAR/POLY) or raises ``OperatorError`` itself —
    never a bare ``IndexError``/``ValueError``, never an answer (RLE's filter
    used to return a mask of 123 rows, RPE's gather an ``IndexError``, NS's
    and DICT's filters a mask of the count's rows, FOR's a wrong mask; a
    PFOR gather answered wrong, and a count short of values was an
    ``IndexError`` there)."""
    from repro.errors import OperatorError

    scheme, form, bounds = _damaged(case)
    kind = {"filter_range": KERNEL_FILTER_RANGE}.get(
        path, KERNEL_GROUP_CODES if path.startswith("group_codes") else KERNEL_GATHER)
    if path.startswith(("decompress", "group-key")):
        pass  # every form is read this way
    elif not kernels.supports(scheme, form, kind):
        return
    with pytest.raises(OperatorError) as raised:
        READS[path](scheme, form, bounds)
    assert raised.type is OperatorError


@pytest.mark.parametrize("storage", ["memory", "packed"])
@pytest.mark.parametrize("case", ["FOR/reference-at-the-limit", "PFOR/reference-at-the-limit"])
def test_a_form_that_decodes_is_answered_as_decoded_on_every_path(case, storage, tmp_path):
    """A reference at the dtype's limit: every path — both decoders, the
    filter and the gathers — equals NumPy over ``decompress_interpreted``'s
    column, or every path raises the same ``ReproError``; in memory and read
    back from a packed file.  (The FOR filter used to accept the first
    segment whole from its saturated bounds: 128 rows where the decoded
    column has 12.)"""
    from dataclasses import replace

    from repro.errors import ReproError
    from repro.io.reader import open_packed_table
    from repro.io.writer import write_packed_table

    scheme, form, bounds = _damaged(case)
    if storage == "packed":
        table = Table.from_pydict({"k": np.zeros(form.original_length, dtype=np.int64)},
                                  schemes={"k": scheme}, chunk_size=form.original_length)
        chunks = table.column("k").chunks
        chunks[0] = replace(chunks[0], form=form)
        chunk = open_packed_table(write_packed_table(table, tmp_path / "k.rpk")).table \
            .column("k").chunks[0]
        scheme, form = chunk.scheme, chunk.form
    outcomes = {}
    for path in ("decompress", "decompress_interpreted", "filter_range", "gather-sparse",
                 "gather-dense", "gather-run"):
        try:
            outcomes[path] = READS[path](scheme, form, bounds)
        except ReproError as error:
            outcomes[path] = type(error)
    raised = {outcome for outcome in outcomes.values() if isinstance(outcome, type)}
    if raised:
        assert len(raised) == 1 and all(isinstance(outcome, type)
                                        for outcome in outcomes.values()), outcomes
        return
    decoded = outcomes["decompress_interpreted"].values
    assert np.array_equal(outcomes["decompress"].values, decoded)
    assert np.array_equal(outcomes["filter_range"][0],
                          (decoded >= bounds.low) & (decoded <= bounds.high))
    for path, positions in (("gather-sparse", [7, 101]), ("gather-dense", np.arange(1, 120, 2)),
                            ("gather-run", np.arange(120))):
        assert np.array_equal(outcomes[path], decoded[positions]), path


@pytest.mark.parametrize("reference", ["min", "mid"])
@pytest.mark.parametrize("width", [0, 1, 32, 62, 63])
@pytest.mark.parametrize("limit", ["top", "bottom"])
def test_a_reference_near_the_limits_is_answered_as_decoded(limit, width, reference):
    """References 10 from either int64 limit under offsets of every width —
    unsigned from the segment minimum, zig-zag signed around its middle —
    filter and gather as ``decompress_interpreted`` decodes them, wrapped
    where the offsets carry a value past the limit."""
    top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    values = np.zeros(256, dtype=np.int64)
    values[1::2] = (1 << width) - 1
    scheme = FrameOfReference(segment_length=64, reference=reference)
    form = scheme.compress(Column(values))
    refs = form.constituent("refs").values.copy()
    refs[1] = top - 10 if limit == "top" else bottom + 10
    form = _edited(form, {"refs": Column(refs)}, {})
    decoded = scheme.decompress_interpreted(form).values
    for bounds in (RangeBounds(top - 200, top), RangeBounds(bottom, bottom + 200),
                   RangeBounds(-10, (1 << 40)), RangeBounds(bottom, top)):
        mask, __ = kernels.filter_range(scheme, form, bounds)
        assert np.array_equal(mask, (decoded >= bounds.low) & (decoded <= bounds.high)), bounds
    for positions in (np.array([3, 64, 65, 127, 200]), np.arange(40, 140), np.arange(256)):
        assert np.array_equal(kernels.gather(scheme, form, positions), decoded[positions])


@pytest.mark.parametrize("width", [33, 63])
@pytest.mark.parametrize("family", ["FOR", "PFOR", "LINEAR", "POLY"])
def test_aligned_offsets_wider_than_32_bits_are_answered_exactly(family, width):
    """Aligned, unsigned offsets of 33 and 63 bits are stored as uint64:
    both decoders, the filter and the gathers give the input back bit for
    bit.  (Added to int64 references or predictions as uint64, they used to
    decode through float64, a few units off.)  A least-squares model leaves
    signed residuals, so LINEAR and POLY get theirs edited in, under a model
    whose prediction is ``base`` exactly."""
    base = 2**60 if width < 60 else 0
    rows = np.arange(64)
    offsets = np.where(rows % 2, (1 << width) - 1 - rows % 7, rows % 5).astype(np.uint64)
    values = base + offsets.astype(np.int64)
    if family in ("FOR", "PFOR"):
        scheme = (FrameOfReference if family == "FOR" else PatchedFrameOfReference)(
            segment_length=8, offsets_layout="aligned")
        form = scheme.compress(Column(values))
    else:
        scheme = PiecewiseLinear(segment_length=8, offsets_layout="aligned") if family == "LINEAR" \
            else PiecewisePolynomial(segment_length=8, degree=2, offsets_layout="aligned")
        constant = scheme.compress(Column(np.full(64, base, dtype=np.int64)))
        model = {name: Column(np.full(8, float(base) if name == "coeff_0" else 0.0))
                 for name in constant.columns if name.startswith("coeff_")}
        form = _edited(constant, {"offsets": Column(offsets), **model},
                       {"offsets_width": width, "offsets_zigzag": False})
    assert form.parameters["offsets_width"] == width
    assert not form.parameters["offsets_zigzag"]
    assert np.array_equal(scheme.decompress(form).values, values)
    assert np.array_equal(scheme.decompress_interpreted(form).values, values)
    if kernels.supports(scheme, form, KERNEL_FILTER_RANGE):
        bounds = RangeBounds(base + (1 << (width - 1)), base + (1 << width) - 4)
        mask, __ = kernels.filter_range(scheme, form, bounds)
        assert np.array_equal(mask, (values >= bounds.low) & (values <= bounds.high))
    for positions in (np.array([1, 3, 8, 13, 30]), rows[::3], rows):
        assert np.array_equal(kernels.gather(scheme, form, positions), values[positions])


def _segmented_values(kind, family):
    """16 284 int64 rows (63 segments of 256 and a short one): sorted, 16
    spread values, or a random walk; PFOR's get three outliers to patch, one
    of them inside a segment the middle band accepts."""
    rng, rows = np.random.default_rng(5), 16_284
    if kind == "sorted":
        values = np.sort(rng.integers(0, 1 << 20, rows))
    elif kind == "spread":
        values = rng.choice(np.arange(16) * 1_000, rows)
    else:
        values = np.cumsum(rng.integers(-64, 65, rows))
    if family == "PFOR":
        values[[37, 8_000, 16_200]] = 1 << 40
    return values.astype(np.int64)


@pytest.mark.parametrize("band", ["middle", "top"])
@pytest.mark.parametrize("kind", ["sorted", "spread", "walk"])
@pytest.mark.parametrize("layout", ["packed", "aligned"])
@pytest.mark.parametrize("family", ["FOR", "PFOR"])
def test_the_for_filter_decides_segments_and_decodes_the_rest(family, layout, kind, band):
    """The FOR/PFOR filter equals NumPy over ``decompress_interpreted``; its
    segment counts are the references' verdicts; it decodes exactly the
    undecided segments' rows, or — when those are more than a quarter of the
    chunk — runs the filter query plan and counts every row decoded.  The
    middle band leaves a sorted chunk a few segments and straddles every
    other chunk; the top band reaches into the short last segment."""
    values = _segmented_values(kind, family)
    scheme = (FrameOfReference if family == "FOR" else PatchedFrameOfReference)(
        segment_length=256, offsets_layout=layout)
    form = scheme.compress(Column(values))
    assert family == "FOR" or form.constituent_length("patch_positions") == 3
    assert form.constituent_length("refs") == 64
    decoded = scheme.decompress_interpreted(form).values
    quantiles = (0.4, 0.6) if band == "middle" else (0.97, 1.0)
    bounds = RangeBounds(*(int(np.quantile(values[values < 1 << 40], q)) for q in quantiles))
    mask, stats = kernels.filter_range(scheme, form, bounds)
    assert np.array_equal(mask, (decoded >= bounds.low) & (decoded <= bounds.high))

    seg_low, seg_high = FrameOfReference.segment_bounds(form)
    rejected = (seg_high < bounds.low) | (seg_low > bounds.high)
    accepted = (seg_low >= bounds.low) & (seg_high <= bounds.high)
    assert (stats.segments_total, stats.segments_skipped, stats.segments_accepted) == (
        64, rejected.sum(), accepted.sum())
    undecided = int(np.repeat(~(rejected | accepted), 256)[:values.size].sum())
    straddles = undecided * 4 > values.size
    assert stats.rows_decoded == (values.size if straddles else undecided)
    if band == "middle":
        assert straddles == (kind != "sorted") and undecided > 0


@pytest.mark.parametrize("bounds", [RangeBounds(3, 5), RangeBounds(-9, -1), RangeBounds(-9, 99)],
                         ids=["some-codes", "no-code", "every-code"])
def test_a_dictionary_out_of_order_is_refused_before_its_code_range(bounds):
    """The code range a value range maps to is found by binary search, so a
    reversed dictionary is refused first — also where the range holds no
    code or every code and the filter reads none (it used to select none
    of the 277 rows in ``[3, 5]``)."""
    from repro.errors import OperatorError

    scheme, form, __ = _damaged("DICT/reversed")
    with pytest.raises(OperatorError, match="dictionary is not strictly increasing"):
        kernels.filter_range(scheme, form, bounds)


def _damaged_chunk(damage):
    """``(scheme, values, form)``: 4 096 rows of
    :func:`reversed_dictionary_values` (PFOR's with nine patches, at rows
    the ``gather`` query selects in the second chunk) and their form with a
    value fact a fast path trusts made false: the dictionary reversed, the
    patches in descending order, or aligned offsets said to fit 1 bit — or
    16 runs of 256 rows, RPE's first run end raised onto the second's."""
    if damage == "DICT/reversed":
        scheme, form, __ = _damaged(damage)
        return scheme, reversed_dictionary_values(), form
    if damage == "RPE/empty-run":
        scheme, values = RunPositionEncoding(), np.repeat(np.arange(16) * 2, 256)
        form = scheme.compress(Column(values))
        ends = form.constituent("run_positions").values.copy()
        ends[0] = ends[1]
        return scheme, values, _edited(form, {"run_positions": Column(ends)}, {})
    values = reversed_dictionary_values()
    if damage == "PFOR/reversed-patches":
        values[np.arange(1, 10) * 441 + 6] += 1 << 40
        scheme = PatchedFrameOfReference(segment_length=128)
        form = scheme.compress(Column(values))
        columns = {name: Column(form.constituent(name).values[::-1].copy())
                   for name in ("patch_positions", "patch_values")}
        parameters = {}
    else:
        scheme = FrameOfReference(segment_length=128, offsets_layout="aligned")
        form = scheme.compress(Column(values))
        columns, parameters = {}, {"offsets_width": 1}
    return scheme, values, _edited(form, columns, parameters)


#: path -> the query that reads column ``k`` that way.
DAMAGED_CHUNK_QUERIES = {
    "filter": lambda ds: ds.filter(col("k").between(3, 5)).agg(count()),
    "filter-no-code": lambda ds: ds.filter(col("k") == 5).agg(count()),
    "gather": lambda ds: ds.filter(col("v") % 7 == 0).select("k"),
    "group-key": lambda ds: ds.group_by("k").agg(count()),
    "decompress": lambda ds: ds.select("k"),
}

#: damage -> the problem a query names, and the paths that trust the fact.
DAMAGED_CHUNKS = {
    "DICT/reversed": ("dictionary is not strictly increasing", list(DAMAGED_CHUNK_QUERIES)),
    "PFOR/reversed-patches": ("patch positions do not rise strictly", ["gather"]),
    "FOR/aligned-width": ("aligned offset 30 does not fit 1 bits", ["filter"]),
    "RPE/empty-run": ("run ends do not rise strictly", list(DAMAGED_CHUNK_QUERIES)),
}


@pytest.fixture(scope="module")
def damaged_chunk_tables(tmp_path_factory):
    """damage -> column ``k`` in two chunks, the second damaged
    (:func:`_damaged_chunk`), in memory and packed; ``v`` is the row."""
    from dataclasses import replace

    from repro.io.reader import open_packed_table
    from repro.io.writer import write_packed_table

    tables = {}
    for damage in DAMAGED_CHUNKS:
        scheme, values, form = _damaged_chunk(damage)
        memory = Table.from_pydict({"k": np.tile(values, 2), "v": np.arange(2 * values.size)},
                                   schemes={"k": scheme}, chunk_size=values.size)
        chunks = memory.column("k").chunks
        chunks[1] = replace(chunks[1], form=form)
        path = tmp_path_factory.mktemp("damaged") / f"{damage.replace('/', '-')}.rpk"
        tables[damage] = {"memory": memory,
                          "packed": open_packed_table(write_packed_table(memory, path)).table}
    return tables


@pytest.mark.parametrize("damage, path", [(damage, path) for damage, (__, paths)
                                          in DAMAGED_CHUNKS.items() for path in paths])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("storage", ["memory", "packed"])
def test_a_false_value_fact_is_refused_by_every_query(damaged_chunk_tables, storage, workers,
                                                      damage, path):
    """Filter, gather, group key and decompress on a reversed dictionary or
    an empty RPE run, gather on PFOR patches out of order, filter on aligned
    FOR offsets wider than their width: a query that reads the damaged
    chunk that way raises ``OperatorError`` — in memory and packed, serial
    and pooled — never an answer (the PFOR gather and the FOR filter used
    to answer wrong)."""
    from repro.engine import shutdown_pools
    from repro.errors import OperatorError

    ds = dataset(damaged_chunk_tables[damage][storage]).with_backend(
        "process" if workers > 1 else "serial", workers=workers)
    try:
        with pytest.raises(OperatorError, match=DAMAGED_CHUNKS[damage][0]):
            DAMAGED_CHUNK_QUERIES[path](ds).collect()
    finally:
        shutdown_pools()


def test_a_code_range_that_reads_no_code_stays_an_answer():
    """Every code or none: the DICT filter answers from the dictionary
    alone, so the damaged codes are not read."""
    scheme, form, __ = _damaged("DICT/packed")
    assert kernels.filter_range(scheme, form, RangeBounds(0, 100))[0].all()
    assert not kernels.filter_range(scheme, form, RangeBounds(40, 50))[0].any()


@pytest.mark.parametrize("values", [np.array([1.5, 2.0, 2.5], dtype=np.float32),
                                    np.array([True, False, True])], ids=["float32", "bool"])
@pytest.mark.parametrize("scheme", [RunLengthEncoding(), RunPositionEncoding()],
                         ids=["RLE", "RPE"])
def test_run_form_of_a_non_integer_column_filters_and_gathers(scheme, values):
    """A run form over a float or bool column (built by hand: the schemes
    compress integers) filters with the predicate's bounds as given."""
    from repro.schemes.base import CompressedForm

    template = scheme.compress(Column(np.repeat(np.arange(3), [2, 3, 1])))
    form = CompressedForm(template.scheme, {**template.columns, "values": Column(values)},
                          dict(template.parameters), template.original_length, values.dtype)
    decoded = scheme.decompress(form).values
    mask, __ = kernels.filter_range(scheme, form, RangeBounds(1, 2))
    assert np.array_equal(mask, (decoded >= 1) & (decoded <= 2))
    assert np.array_equal(kernels.gather(scheme, form, [5, 0, 2]), decoded[[5, 0, 2]])
