"""Property-style compiler correctness: compiled ≡ interpreted, everywhere.

For every scheme in the registry (plus representative cascades) and a grid
of generated workloads, the optimized/compiled execution must be
bit-identical to the interpreted plan evaluation — and, for lossless
schemes, both must reconstruct the original column exactly.  Equivalence
includes failure: a packed constituent too short for its count raises the
same error on both paths, never values.
The same must hold after the paper's plan surgery
(``truncate_at`` / ``drop_prefix``), which is how the decomposition
arguments stay valid under the compiler.
"""

import dataclasses

import numpy as np
import pytest

from repro.columnar import Column
from repro.columnar.compile import compiled_plan
from repro.errors import OperatorError
from repro.schemes.composite import Cascade
from repro.schemes.decomposition import surgery_commutes_with_optimization
from repro.schemes.for_ import build_for_decompression_plan
from repro.schemes.registry import SCHEME_FACTORIES, make_scheme
from repro.schemes.rle import build_rle_decompression_plan
from repro.workloads import (
    monotone_identifiers,
    runs_column,
    smooth_measure,
    uniform_random,
    zipfian_categories,
)

SIZES = [1, 7, 257, 2048]

WORKLOADS = {
    "runs": lambda n: runs_column(n, average_run_length=9.0,
                                  num_distinct_values=max(4, n // 8), seed=n),
    "smooth": lambda n: smooth_measure(n, seed=n),
    "monotone": lambda n: monotone_identifiers(n, seed=n),
    "categories": lambda n: zipfian_categories(n, num_categories=max(2, min(32, n)),
                                               seed=n),
    "uniform": lambda n: uniform_random(n, low=-1000, high=1000, seed=n),
}

#: Workloads every scheme can compress (DICT needs few distinct values, some
#: schemes reject negatives — the matrix picks compatible pairs).
SCHEME_WORKLOADS = {
    "ID": ("uniform",),
    "NS": ("categories",),
    "DELTA": ("monotone",),
    "RLE": ("runs",),
    "RPE": ("runs",),
    "FOR": ("smooth", "runs"),
    "STEPFUNCTION": ("smooth",),
    "DICT": ("categories",),
    "PFOR": ("smooth",),
    "VARWIDTH": ("uniform",),
    "LINEAR": ("smooth",),
    "POLY": ("smooth",),
}

CASCADES = [
    lambda: Cascade.rle_then_delta_on_values(),
    lambda: Cascade.rpe_with_delta_positions(),
]


def _check_compiled_equals_interpreted(scheme, column):
    form = scheme.compress(column)
    compiled = scheme.decompress(form)
    interpreted = scheme.decompress_interpreted(form)
    assert compiled.equals(interpreted, check_dtype=True), \
        f"{scheme.describe()} diverged on n={len(column)}"
    if scheme.is_lossless:
        assert compiled.equals(column), \
            f"{scheme.describe()} lost data on n={len(column)}"


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
@pytest.mark.parametrize("size", SIZES)
def test_compiled_equals_interpreted_for_every_registered_scheme(scheme_name, size):
    for workload in SCHEME_WORKLOADS[scheme_name]:
        scheme = make_scheme(scheme_name)
        column = WORKLOADS[workload](size)
        _check_compiled_equals_interpreted(scheme, column)


@pytest.mark.parametrize("scheme_name, workload, constituent", [
    ("NS", "categories", "packed"),
    ("DICT", "categories", "codes"),
    ("FOR", "smooth", "offsets"),
])
def test_compiled_and_interpreted_refuse_a_truncated_constituent(
        scheme_name, workload, constituent):
    scheme = make_scheme(scheme_name)
    form = scheme.compress(WORKLOADS[workload](2048))
    packed = form.constituent(constituent).values
    assert packed.dtype == np.uint8  # the bit-packed layout is the default
    columns = dict(form.columns)
    columns[constituent] = Column(packed[:len(packed) // 20])
    truncated = dataclasses.replace(form, columns=columns)
    with pytest.raises(OperatorError, match="buffer holds") as interpreted:
        scheme.decompress_interpreted(truncated)
    with pytest.raises(OperatorError, match="buffer holds") as compiled:
        scheme.decompress(truncated)
    assert type(compiled.value) is type(interpreted.value)
    assert str(compiled.value) == str(interpreted.value)


@pytest.mark.parametrize("factory", CASCADES, ids=["rle_delta", "rpe_delta"])
@pytest.mark.parametrize("size", SIZES)
def test_compiled_equals_interpreted_for_cascades(factory, size):
    scheme = factory()
    column = WORKLOADS["runs"](size)
    form = scheme.compress(column)
    compiled = scheme.decompress(form)
    assert compiled.equals(scheme.decompress_interpreted(form), check_dtype=True)
    assert compiled.equals(column)


@pytest.mark.parametrize("size", SIZES)
def test_optimizer_commutes_with_rle_prefix_surgery(size):
    column = WORKLOADS["runs"](size)
    scheme = make_scheme("RPE", narrow_positions=False)
    form = scheme.compress(column)
    inputs = {"run_positions": form.constituent("run_positions"),
              "values": form.constituent("values")}
    assert surgery_commutes_with_optimization(
        build_rle_decompression_plan(), inputs, drop_prefix=["run_positions"])


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("faithful", [True, False])
def test_optimizer_commutes_with_for_truncation(size, faithful):
    column = WORKLOADS["smooth"](size)
    scheme = make_scheme("FOR", segment_length=64, offsets_layout="aligned",
                         faithful_plan=faithful)
    form = scheme.compress(column)
    inputs = {"refs": form.constituent("refs"),
              "offsets": form.constituent("offsets")}
    plan = build_for_decompression_plan(64, offsets_form=None,
                                        faithful_to_paper=faithful)
    assert surgery_commutes_with_optimization(plan, inputs,
                                              truncate_at="replicated")
    # And the full plan itself round-trips identically through the compiler.
    assert compiled_plan(plan).run(inputs).equals(plan.evaluate(inputs),
                                                  check_dtype=True)


@pytest.mark.parametrize("size", SIZES)
def test_truncated_plans_compile_identically(size):
    """Partial evaluation through the compiler matches the interpreter."""
    column = WORKLOADS["runs"](size)
    scheme = make_scheme("RLE")
    form = scheme.compress(column)
    plan = build_rle_decompression_plan()
    inputs = scheme.plan_inputs(form)
    for binding in ("run_positions", "pos_delta", "positions"):
        truncated = plan.truncate_at(binding)
        reference = truncated.evaluate(inputs)
        assert compiled_plan(truncated).run(inputs).equals(reference,
                                                           check_dtype=True)


def test_empty_columns_roundtrip_through_compiled_path():
    empty = Column.empty(np.int64)
    for scheme_name in sorted(SCHEME_FACTORIES):
        scheme = make_scheme(scheme_name)
        if not scheme.is_lossless:
            continue
        form = scheme.compress(empty)
        assert scheme.decompress(form).equals(empty)
