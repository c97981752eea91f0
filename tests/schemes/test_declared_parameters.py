"""Every scheme declares its scalar parameters once (``CompressionScheme.scalars``).

Enumerated, not drawn: every declared scalar of the probe's configurations
(and of the perf workloads' explicit schemes, the ``date`` cascade's nested
forms included) is set to each of a fixed list of bad values, or deleted, and
one undeclared name — a length the form used to restate — is added.  Every
path that reads the edited form, in memory and read back from a packed file,
then raises the same ``OperatorError``, or every path equals NumPy over
``decompress_interpreted``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import count, dataset
from repro.columnar import Column
from repro.columnar.compile import clear_caches
from repro.engine import kernels
from repro.engine.kernels import RangeBounds
from repro.errors import OperatorError
from repro.io.reader import open_packed_table
from repro.io.writer import write_packed_table
from repro.schemes import (
    Cascade,
    Delta,
    DictionaryEncoding,
    FrameOfReference,
    NullSuppression,
    PatchedFrameOfReference,
    PiecewiseLinear,
    PiecewisePolynomial,
    RunLengthEncoding,
    RunPositionEncoding,
    StepFunctionModel,
    VariableWidth,
)
from repro.schemes.base import CompressedForm
from repro.storage import Table

ROWS = 400
VALUES = np.repeat(np.random.default_rng(0).integers(0, 50, ROWS // 10).cumsum(), 10)
VALUES[[37, 212]] += 1 << 20  # PFOR patches them
BOUNDS = RangeBounds(int(VALUES[100]), int(VALUES[250]))
POSITIONS = np.array([0, 37, 200, ROWS - 1])

CONFIGURATIONS = {
    "NS/packed": NullSuppression(mode="packed"),
    "NS/aligned": NullSuppression(mode="aligned"),
    "NS/bias": NullSuppression(signed="bias"),  # over VALUES less 300: a bias transform
    "DICT/packed": DictionaryEncoding(codes_layout="packed"),
    "DICT/aligned": DictionaryEncoding(codes_layout="aligned"),
    "FOR/packed": FrameOfReference(offsets_layout="packed"),
    "FOR/aligned": FrameOfReference(offsets_layout="aligned"),
    "PFOR/packed": PatchedFrameOfReference(offsets_layout="packed"),
    "PFOR/aligned": PatchedFrameOfReference(offsets_layout="aligned"),
    "LINEAR": PiecewiseLinear(),
    "POLY(2)": PiecewisePolynomial(degree=2),
    "STEPFUNCTION": StepFunctionModel(),
    "DELTA": Delta(),
    "RLE": RunLengthEncoding(),
    "RPE": RunPositionEncoding(),
    "VARWIDTH": VariableWidth(),
    # perf/workloads.explicit_schemes()
    "perf/mode": DictionaryEncoding(),
    "perf/date": Cascade(RunLengthEncoding(), {"values": Delta(), "lengths": NullSuppression()}),
    "perf/price": FrameOfReference(segment_length=256),
    "perf/qty": NullSuppression(),
    "perf/oid": Delta(),
}
#: The name each family's producer used to write beside its declared ones.
RESTATED = {"NS": "count", "DICT": "dictionary_size", "FOR": "offsets_count",
            "PFOR": "patch_count", "LINEAR": "offsets_count", "POLY": "offsets_count",
            "STEPFUNCTION": "num_segments", "DELTA": "count", "RLE": "num_runs",
            "RPE": "num_runs", "VARWIDTH": "count"}
MISSING = object()
EDITS = {"None": None, "-1": -1, "0": 0, "2^31": 2**31, "2^63": 2**63, "2^64-1": 2**64 - 1,
         "bogus": "bogus", "1.5": 1.5, "deleted": MISSING}


def _column(config):
    return Column(VALUES - 300 if config == "NS/bias" else VALUES)


FORMS = {config: scheme.compress(_column(config)) for config, scheme in CONFIGURATIONS.items()}


def _declared(form, where=()):
    """``(where, name)`` of every scalar of *form* and of its nested forms."""
    found = [(where, name) for name in form.parameters]
    for constituent, nested in sorted(form.nested.items()):
        found += _declared(nested, where + (constituent,))
    return found


def _edited(form, where, name, value):
    """A copy of *form* whose (nested) form at *where* has *name* set to *value*."""
    nested = dict(form.nested)
    parameters = dict(form.parameters)
    if where:
        nested[where[0]] = _edited(form.nested[where[0]], where[1:], name, value)
    elif value is MISSING:
        del parameters[name]
    else:
        parameters[name] = value
    return CompressedForm(form.scheme, dict(form.columns), parameters, form.original_length,
                          form.original_dtype, nested)


def _cases():
    for config, form in FORMS.items():
        for where, name in _declared(form):
            scalar = ".".join(where + (name,))
            for label, value in EDITS.items():
                yield pytest.param(config, where, name, value, id=f"{config}-{scalar}-{label}")
        family = form.scheme.split("∘")[0]
        yield pytest.param(config, (), RESTATED[family], float(ROWS),
                           id=f"{config}-undeclared-{RESTATED[family]}")


def _group_key(table):
    result = dataset(table).group_by("k").agg(count().alias("n")).collect()
    order = np.argsort(result.columns["k"].values)
    return result.columns["k"].values[order], result.columns["n"].values[order]


#: path -> how it reads ``(scheme, form, table)``; ``None``: no kernel.
PATHS = {
    "decompress": lambda scheme, form, table: scheme.decompress(form).values,
    "decompress_interpreted": lambda scheme, form, table:
        scheme.decompress_interpreted(form).values,
    "filter_range": lambda scheme, form, table: (
        kernels.filter_range(scheme, form, BOUNDS) or (None,))[0],
    "gather": lambda scheme, form, table: kernels.gather(scheme, form, POSITIONS),
    "group_codes": lambda scheme, form, table: kernels.group_codes(scheme, form, None),
    "group-key": lambda scheme, form, table: _group_key(table),
}


def _expected(path, decoded):
    if path == "filter_range":
        return (decoded >= BOUNDS.low) & (decoded <= BOUNDS.high)
    if path == "gather":
        return decoded[POSITIONS]
    if path == "group-key":
        return np.unique(decoded, return_counts=True)
    return decoded


def _outcomes(scheme, form, table):
    outcomes = {}
    for path, read in PATHS.items():
        try:
            outcomes[path] = ("answer", read(scheme, form, table))
        except OperatorError as error:  # a cascade's names its outer scheme or itself
            outcomes[path] = ("refused", str(error).split(" form: ", 1)[-1])
    return outcomes


def _assert_consistent(outcomes):
    kind, decoded = outcomes["decompress_interpreted"]
    for path, (outcome, result) in outcomes.items():
        if outcome == "answer" and result is None:
            continue  # no kernel for this form
        if kind == "refused":
            assert (outcome, result) == (kind, decoded), path
            continue
        assert outcome == "answer", (path, result)
        if path == "group_codes":
            codes, groups = result
            result = groups[codes]
        expected = _expected(path, decoded)
        if isinstance(expected, tuple):
            assert all(np.array_equal(a, b) for a, b in zip(result, expected)), path
        else:
            assert np.array_equal(result, expected), path


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """config -> a packed one-chunk file of column ``k`` under that scheme."""
    directory = tmp_path_factory.mktemp("declared")
    return {config: write_packed_table(
        Table.from_pydict({"k": _column(config).values}, schemes={"k": scheme},
                          chunk_size=ROWS), directory / f"{config.replace('/', '-')}.rpk")
            for config, scheme in CONFIGURATIONS.items()}


def _memory_table(scheme, form):
    table = Table.from_pydict({"k": VALUES}, schemes={"k": scheme}, chunk_size=ROWS)
    chunks = table.column("k").chunks
    chunks[0] = replace(chunks[0], form=form)
    return table


@pytest.mark.parametrize("config, where, name, value", list(_cases()))
def test_an_edited_scalar_is_refused_alike_or_read_alike(config, where, name, value, written,
                                                         packed_editor, tmp_path):
    scheme = CONFIGURATIONS[config]
    form = _edited(FORMS[config], where, name, value)
    memory = _outcomes(scheme, form, _memory_table(scheme, form))
    _assert_consistent(memory)

    def edit(document):
        described = document["form"]
        for constituent in where:
            described = described["nested"][constituent]
        if value is MISSING:
            del described["parameters"][name]
        else:
            described["parameters"][name] = value

    path = packed_editor.rewrite(written[config], tmp_path / "edited.rpk", chunk=("k", 0, edit))
    table = open_packed_table(path).table
    chunk = table.column("k").chunks[0]
    packed = _outcomes(chunk.scheme, chunk.form, table)
    _assert_consistent(packed)
    assert packed["decompress_interpreted"][0] == memory["decompress_interpreted"][0]


@pytest.mark.parametrize("rows", [ROWS, 0], ids=["rows", "empty"])
@pytest.mark.parametrize("config", list(CONFIGURATIONS))
def test_a_producer_writes_exactly_the_declared_scalars(config, rows):
    """Every form a producer writes, empty ones too, carries exactly the
    scalars its scheme declares and passes its check."""
    scheme = CONFIGURATIONS[config]
    form = scheme.compress(Column(_column(config).values[:rows]))
    pairs = [(kernels.plain_scheme(scheme), form)]
    pairs += [(scheme.inner[name], nested) for name, nested in form.nested.items()]
    for plain, described in pairs:
        assert set(described.parameters) == set(type(plain).scalars)
        plain.check(described)


@pytest.mark.parametrize("scheme", [NullSuppression(width=9), FrameOfReference(segment_length=64)],
                         ids=["NS", "FOR"])
def test_chunks_apart_only_in_rows_compile_apart(scheme):
    """Two forms with the same scalars but different rows, decoded one after
    the other through the shared plan cache: the key holds the rows, which
    the scalars no longer restate."""
    clear_caches()
    for rows in (300, 200, 300):
        values = np.arange(rows, dtype=np.int64) % 97 * 5
        form = scheme.compress(Column(values))
        assert np.array_equal(scheme.decompress(form).values, values)
        assert np.array_equal(scheme.decompress_interpreted(form).values, values)
    assert form.parameters == scheme.compress(Column(values[:200])).parameters
