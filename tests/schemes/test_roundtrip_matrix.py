"""Round-trip matrix: every lossless scheme × every workload shape.

One parametrised test sweeps the full cross product so a regression in any
scheme/data combination is caught by name, plus plan-vs-fused agreement and
size sanity for each combination.
"""

import numpy as np
import pytest

from repro.columnar import Column
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
    VariableWidth,
)
from repro.workloads import (
    monotone_identifiers,
    runs_column,
    shipping_dates,
    smooth_measure,
    step_with_outliers,
    trending_sensor,
    uniform_random,
    zipfian_categories,
)

SCHEMES = {
    "ID": lambda: Identity(),
    "NS-packed": lambda: NullSuppression(mode="packed"),
    "NS-aligned": lambda: NullSuppression(mode="aligned"),
    "DELTA": lambda: Delta(),
    "RLE": lambda: RunLengthEncoding(),
    "RPE": lambda: RunPositionEncoding(),
    "FOR-min": lambda: FrameOfReference(segment_length=64),
    "FOR-mid": lambda: FrameOfReference(segment_length=64, reference="mid"),
    "DICT": lambda: DictionaryEncoding(),
    "PFOR": lambda: PatchedFrameOfReference(segment_length=64),
    "VARWIDTH": lambda: VariableWidth(),
    "LINEAR": lambda: PiecewiseLinear(segment_length=64),
    "POLY2": lambda: PiecewisePolynomial(segment_length=64, degree=2),
    "RLE∘DELTA": lambda: Cascade(RunLengthEncoding(), {"values": Delta()}),
    "DELTA∘NS": lambda: Cascade(Delta(narrow=False), {"deltas": NullSuppression()}),
}

WORKLOADS = {
    "dates": lambda: shipping_dates(3_000, orders_per_day_mean=40.0, seed=1),
    "runs": lambda: runs_column(3_000, average_run_length=12.0, seed=2),
    "monotone": lambda: monotone_identifiers(3_000, seed=3),
    "smooth": lambda: smooth_measure(3_000, seed=4),
    "outliers": lambda: step_with_outliers(3_000, outlier_fraction=0.02, seed=5),
    "trending": lambda: trending_sensor(3_000, seed=6),
    "categorical": lambda: zipfian_categories(3_000, num_categories=30, seed=7),
    "random": lambda: uniform_random(3_000, seed=8),
    "tiny": lambda: Column([5, 5, 7]),
    "constant": lambda: Column(np.full(500, 123, dtype=np.int64)),
    "negative": lambda: Column(np.random.default_rng(9).integers(-5_000, 5_000, 2_000)),
}


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_lossless_roundtrip(scheme_name, workload_name):
    scheme = SCHEMES[scheme_name]()
    column = WORKLOADS[workload_name]()
    form = scheme.compress(column)
    restored = scheme.decompress(form)
    assert restored.equals(column), f"{scheme_name} failed on {workload_name}"
    assert restored.dtype == column.dtype
    assert form.original_length == len(column)
    assert form.compressed_size_bytes() > 0


@pytest.mark.parametrize("workload_name", ["dates", "smooth", "negative", "tiny"])
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_compiled_agrees_with_interpreter(scheme_name, workload_name):
    scheme = SCHEMES[scheme_name]()
    column = WORKLOADS[workload_name]()
    form = scheme.compress(column)
    assert scheme.decompress_interpreted(form).equals(scheme.decompress(form))


@pytest.mark.parametrize("scheme_name", sorted(set(SCHEMES) - {"ID"}))
def test_compresses_its_target_workload(scheme_name):
    """Every non-trivial scheme beats ID on at least one of the workloads."""
    scheme = SCHEMES[scheme_name]()
    best_ratio = max(
        scheme.compress(WORKLOADS[w]()).compression_ratio()
        for w in ("dates", "runs", "monotone", "smooth", "trending", "categorical")
    )
    assert best_ratio > 1.2, f"{scheme_name} never beats no-compression"


@pytest.mark.parametrize("path", ["decompress", "decompress_interpreted"])
@pytest.mark.parametrize("mode, values", [
    ("aligned", [-5, 3, 7]),
    ("packed", [np.iinfo(np.int64).min, np.iinfo(np.int64).max]),  # width 64
])
def test_ns_bias_reads_what_it_writes(mode, values, path):
    """The bias is negative and the stored column unsigned: every path must
    add it in int64, not refuse the mixed-sign operands."""
    scheme = NullSuppression(mode=mode, signed="bias")
    column = Column(np.array(values, dtype=np.int64))
    form = scheme.compress(column)
    assert form.parameters["transform"] == "bias"
    assert getattr(scheme, path)(form).equals(column)
