"""Tests for the compressed-execution kernels and the table they live in."""

import numpy as np
import pytest

from repro.columnar import Column
from repro.columnar.ops import bitpack as _bitpack
from repro.api import col, dataset
from repro.engine import RangeBounds, kernels
from repro.engine.kernels import (
    KERNEL_AGGREGATE,
    KERNEL_FILTER_RANGE,
    KERNEL_GATHER,
    KERNEL_GROUP_CODES,
    range_mask_on_ns,
    run_positions_of,
)
from repro.engine.operators import aggregate
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
            KERNEL_AGGREGATE: kernels.aggregate_whole(scheme, form),
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
        if KERNEL_AGGREGATE in answered:  # the sum of the whole form
            assert answers[KERNEL_AGGREGATE] == aggregate(Column(reference), "sum")
            assert answers[KERNEL_AGGREGATE].dtype == np.int64
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
        (NullSuppression(), 1 << 8, False), (NullSuppression(), 1 << 16, False),
        (NullSuppression(mode="aligned"), 1 << 10, False),
        (DictionaryEncoding(), 1 << 10, False), (FrameOfReference(), 1 << 10, False),
    ], ids=["ns-10", "ns-3", "ns-8", "ns-16", "ns-aligned-10", "dict", "for"])
    def test_only_ns_at_a_width_not_dividing_64_decodes_to_filter(self, scheme, top, decodes):
        """The fact the scan reads to decode a chunk once: packed NS asks
        ``bitpack.compares_word_parallel``, the predicate
        ``packed_compare_range`` itself branches on."""
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


class TestAggregateKernel:
    @pytest.mark.parametrize("scheme", [RunLengthEncoding(),
                                        RunPositionEncoding(),
                                        DictionaryEncoding(),
                                        Identity(),
                                        FrameOfReference(segment_length=37),
                                        PatchedFrameOfReference(segment_length=23)],
                             ids=lambda s: s.describe())
    def test_whole_form_sum_matches_numpy(self, scheme, column):
        form = scheme.compress(column)
        result = kernels.aggregate_whole(scheme, form)
        assert result is not None and result.dtype == np.int64
        assert result == column.values.sum(dtype=np.int64)

    @pytest.mark.parametrize("scheme", [RunLengthEncoding(), FrameOfReference(segment_length=3)],
                             ids=lambda s: s.describe())
    def test_uint64_sum_uses_unsigned_accumulator(self, scheme):
        values = Column(np.array([2**63, 2**63 - 1, 5, 5], dtype=np.uint64))
        result = kernels.aggregate_whole(scheme, scheme.compress(values))
        assert result.dtype == np.uint64
        assert result == values.values.sum(dtype=np.uint64)


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
    def test_run_positions_cached_per_form(self, column):
        form = RunLengthEncoding().compress(column)
        first = run_positions_of(form)
        assert run_positions_of(form) is first

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
        unpacked = []
        unpack = _bitpack._unpack_bits_values
        monkeypatch.setattr(_bitpack, "_unpack_bits_values",
                            lambda *args: unpacked.append(width) or unpack(*args))
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
        # The predicate the scan asks is the branch the comparison took.
        assert _bitpack.compares_word_parallel(width) == (not unpacked)

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
