"""Tests for the compressed-execution kernels and the table they live in."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.columnar.ops import bitpack as _bitpack
from repro.api import col, dataset
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
            range_mask_on_ns(form, RangeBounds(0, 1))

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
        mask, __ = range_mask_on_ns(form, RangeBounds(-50, 50))
        assert mask.tolist() == [False, True, True, True, False]

    def test_ns_disjoint_range_matches_nothing(self):
        values = Column(np.array([5, 6, 7], dtype=np.int64))
        form = NullSuppression().compress(values)
        assert kernels.translate_range_to_stored(form, RangeBounds(-9, -1)) is None
        mask, __ = range_mask_on_ns(form, RangeBounds(-9, -1))
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

def _damaged(case):
    """``(scheme, form, bounds)``: a form whose metadata the data does not
    fit, and filter bounds that make the filter kernel read it."""
    from repro.schemes.base import CompressedForm

    family, damage = case.split("/")
    if family in ("RLE", "RPE"):
        # 120 rows in three runs; RLE's lengths then add up to 123, RPE's ends descend.
        scheme = RunLengthEncoding() if family == "RLE" else RunPositionEncoding()
        form = scheme.compress(Column(np.repeat(np.array([10, 20, 30]), 40)))
        ends = {"lengths": [40, 40, 43], "run_positions": [80, 40, 120]}
        name = "lengths" if family == "RLE" else "run_positions"
        columns = {name: Column(np.array(ends[name], dtype=np.uint8))}
        parameters, bounds = {}, RangeBounds(15, 25)
    elif case == "DICT/count":
        # 120 rows, the count says 108: the codes stream holds more values than rows.
        scheme = DictionaryEncoding()
        form = scheme.compress(Column(np.tile(np.array([10, 20, 30]), 40)))
        columns, parameters, bounds = {}, {"count": 108}, RangeBounds(15, 25)
    elif family == "DICT":
        scheme = DictionaryEncoding(codes_layout=damage)
        form = scheme.compress(Column(np.tile(np.array([10, 20, 30]), 40)))
        codes = np.tile(np.arange(3, dtype=np.uint64), 40)
        codes[7] = 3  # a 3-entry dictionary packs at 2 bits: code 3 fits the stream
        stored = (_bitpack.pack_bits(Column(codes), 2) if damage == "packed"
                  else Column(codes.astype(np.uint8)))
        columns, parameters, bounds = {"codes": stored}, {}, RangeBounds(15, 25)
    elif family == "NS":
        # 120 rows, the count says 108: the stream holds more values than rows.
        scheme = NullSuppression(mode=damage)
        form = scheme.compress(Column(np.arange(10, 130, dtype=np.int64)))
        columns, parameters, bounds = {}, {"count": 108}, RangeBounds(15, 25)
    elif family in ("LINEAR", "POLY"):
        # 120 rows in 8 segments of 16; the form then says 4 segments of 32,
        # or a degree-2 model of degree 1.
        scheme = PiecewiseLinear(segment_length=16) if family == "LINEAR" else \
            PiecewisePolynomial(segment_length=16, degree=2)
        form = scheme.compress(Column(np.arange(120, dtype=np.int64) ** 2 // 7))
        columns, bounds = {}, RangeBounds(15, 25)
        parameters = {"segment_length": 32} if family == "LINEAR" else {"degree": 1}
    else:
        scheme = (FrameOfReference if family == "FOR" else PatchedFrameOfReference)(
            segment_length=16)
        form = scheme.compress(Column(np.arange(100_000, 100_120, dtype=np.int64)))
        columns, parameters = {}, {"segment_length": 0}
        if damage == "short-refs":
            columns, parameters = {"refs": Column(form.constituent("refs").values[:5])}, {}
        if damage == "long-segments":  # 8 refs for the 4 segments of 32 the form claims
            parameters = {"segment_length": 32}
        bounds = RangeBounds(100_050, 100_060)
    return scheme, CompressedForm(
        scheme=form.scheme, columns={**form.columns, **columns},
        parameters={**form.parameters, **parameters},
        original_length=form.original_length, original_dtype=form.original_dtype), bounds


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
}


@pytest.mark.parametrize("path", list(READS))
@pytest.mark.parametrize("case", ["DICT/packed", "DICT/aligned", "DICT/count",
                                  "FOR/segment-length-0", "FOR/short-refs",
                                  "FOR/long-segments", "PFOR/segment-length-0",
                                  "PFOR/short-refs", "RLE/lengths-past-the-rows",
                                  "RPE/descending-ends", "NS/packed", "NS/aligned",
                                  "LINEAR/segment-length", "POLY/degree"])
def test_a_malformed_form_is_an_operator_error_on_every_path(case, path):
    """A code past its dictionary, a DICT or NS count that is not the row
    count, a FOR segment length of 0, references too few or too many for the
    segments, run lengths adding up past the rows, run ends that descend,
    LINEAR/POLY coefficients that do not match the segments or the degree:
    each path either has no kernel for the form (``group_codes`` on FOR, NS;
    ``filter_range`` on LINEAR/POLY) or raises ``OperatorError`` itself —
    never a bare ``IndexError``/``ValueError``, never an answer (RLE's filter
    used to return a mask of 123 rows, RPE's gather an ``IndexError``, NS's
    and DICT's filters a mask of the count's rows, FOR's a wrong mask)."""
    from repro.errors import OperatorError

    scheme, form, bounds = _damaged(case)
    kind = {"filter_range": KERNEL_FILTER_RANGE}.get(
        path, KERNEL_GROUP_CODES if path.startswith("group_codes") else KERNEL_GATHER)
    if not path.startswith("decompress") and not kernels.supports(scheme, form, kind):
        return
    with pytest.raises(OperatorError) as raised:
        READS[path](scheme, form, bounds)
    assert raised.type is OperatorError


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
