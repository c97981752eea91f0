"""Structure-aware fuzzing of a v6 file's metadata: the footer's per-column
arrays and the chunks' descriptor documents.

Every mutation is applied through the shared editor, which keeps the framing
valid and refreshes a rewritten document's digest — so no CRC and no trailer
masks the damage and each one is met by the check it aims at.  Whatever is
drawn, the three readers of the metadata — ``open_table(...).table``, a scan
that touches every chunk of the column, ``verify_packed_file`` — end in a
:class:`~repro.errors.ReproError` that names the file (or, for ``verify``, a
report that does), or in the right answer: never a wrong column, never a bare
``KeyError``/``OverflowError``/``MemoryError``, never an allocation sized
from a length nobody checked.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.engine.scan import scan_table
from repro.errors import ReproError
from repro.io import open_table, save_table
from repro.io.verify import verify_packed_file
from repro.schemes import Cascade, Delta, FrameOfReference, NullSuppression, RunLengthEncoding
from repro.storage import Table

ROWS, CHUNK = 3_000, 500
COLUMNS = ("day", "price", "big")
CHUNKS = ROWS // CHUNK


@pytest.fixture(scope="module")
def packed(tmp_path_factory):
    rng = np.random.default_rng(26)
    data = {
        "day": np.sort(rng.integers(0, 60, ROWS)).astype(np.int64),
        "price": (np.cumsum(rng.integers(-3, 4, ROWS)) + 9_000).astype(np.int64),
        "big": rng.integers(2**62, 2**63, ROWS).astype(np.uint64) * np.uint64(2),
        "weight": rng.random(ROWS) * 100,
    }
    table = Table.from_pydict(
        data,
        schemes={"day": Cascade(RunLengthEncoding(), {"values": Delta(),
                                                      "lengths": NullSuppression()}),
                 "price": FrameOfReference(segment_length=128)},
        chunk_size=CHUNK)
    directory = tmp_path_factory.mktemp("footer-fuzz")
    return save_table(table, directory / "intact.rpk"), data, directory


WRONG_TYPES = st.sampled_from(["7", 1.5, True, None, [1], {"n": 1}])
PER_CHUNK_ARRAYS = ["row_offset", "row_count", "statistics.count", "statistics.minimum",
                    "statistics.maximum", "statistics.total", "statistics.distinct_count",
                    "statistics.run_count",
                    "statistics.is_sorted", "statistics.value_bits", "statistics.range_bits",
                    "statistics.max_delta_bits", "descriptors.offset", "descriptors.nbytes",
                    "descriptors.crc32"]


def _array(entry, key):
    for part in key.split("."):
        entry = entry[part]
    return entry


FOOTER_KINDS = ["descriptor-offset", "descriptor-nbytes", "unequal-length", "wrong-type",
                "row-offset-order", "row-count-alone", "row-count-consistent",
                "minimum-above-maximum", "outside-dtype", "total-outside-bounds",
                "total-on-a-float-column", "dtype", "table-row-count", "statistics-keys"]
#: Footer kinds every reader must refuse, naming the array; the column each damages.
REFUSED = {"total-outside-bounds": None, "total-on-a-float-column": "weight"}
DESCRIPTOR_KINDS = ["not-an-object", "truncated", "original-length", "segment-range",
                    "segment-type", "form-shape", "delta-base"]


def _footer_mutation(kind, draw, size):
    """``edit(column entry, whole footer)`` for one drawn footer mutation."""
    index, other = draw(st.integers(0, CHUNKS - 1)), draw(st.integers(0, CHUNKS - 1))
    key = draw(st.sampled_from(PER_CHUNK_ARRAYS))

    def edit(entry, footer):
        where = entry["descriptors"]
        if kind == "descriptor-offset":
            where["offset"][index] = draw(st.sampled_from([
                -1, -where["nbytes"][index], 0, 8, where["offset"][other] + 1,
                size - 10, size + 1_024, 2**62, 2**64]))
        elif kind == "descriptor-nbytes":
            where["nbytes"][index] = draw(st.sampled_from([2**62, 2**64, 0, -1, size]))
        elif kind == "unequal-length":
            values = _array(entry, key)
            values.pop() if draw(st.booleans()) else values.append(values[-1])
        elif kind == "wrong-type":
            _array(entry, key)[index] = draw(WRONG_TYPES)
        elif kind == "row-offset-order":
            rows = entry["row_offset"]
            rows[index] = rows[other] + draw(st.sampled_from([-1, 1, CHUNK]))
        elif kind == "row-count-alone":
            entry["row_count"][index] += draw(st.sampled_from([-1, 1, 2**62]))
        elif kind == "row-count-consistent":  # the footer agrees with itself, not with the form
            for column in footer["columns"]:
                column["row_count"][index] += 1
                column["statistics"]["count"][index] += 1
                for later in range(index + 1, CHUNKS):
                    column["row_offset"][later] += 1
            footer["row_count"] += 1
        elif kind == "minimum-above-maximum":
            entry["statistics"]["minimum"][index] = entry["statistics"]["maximum"][index] + 1
        elif kind == "outside-dtype":
            bound = draw(st.sampled_from(["minimum", "maximum"]))
            entry["statistics"][bound][index] = draw(st.sampled_from([-2**63 - 1, -1, 2**64, 2**70])) \
                if bound == "minimum" else draw(st.sampled_from([2**64, 2**70]))
        elif kind == "total-outside-bounds":  # one past count * maximum, or short of count * minimum
            statistics = entry["statistics"]
            count = statistics["count"][index]
            statistics["total"][index] = draw(st.sampled_from([
                count * statistics["maximum"][index] + 1, count * statistics["minimum"][index] - 1]))
        elif kind == "total-on-a-float-column":
            entry["statistics"]["total"][index] = draw(st.sampled_from([1, -1, 2**70]))
        elif kind == "dtype":
            entry["dtype"] = draw(st.sampled_from(["q9", "", 7, None, ["<i8"]]))
        elif kind == "table-row-count":
            footer["row_count"] = draw(st.sampled_from([ROWS - 1, ROWS + 1, 0, -ROWS, 2**70,
                                                        str(ROWS), float(ROWS), None]))
        else:
            statistics = entry["statistics"]
            statistics.pop(key.split(".")[-1], None) if draw(st.booleans()) \
                else statistics.update(surprise=[1] * CHUNKS)
    return edit


def _descriptor_mutation(kind, draw, size, document):
    """What replaces one chunk's descriptor document: a mutated copy, another
    JSON value, or raw bytes."""
    document = copy.deepcopy(document)
    form = document["form"]
    forms = [form, *form["nested"].values()]
    target = forms[draw(st.integers(0, len(forms) - 1))]
    entries = [entry for part in forms for entry in part["segments"].values()]
    entry = entries[draw(st.integers(0, len(entries) - 1))]
    if kind == "not-an-object":
        return draw(st.sampled_from([[], ["scheme", "form"], "form", 7, None, {}]))
    if kind == "truncated":
        encoded = json.dumps(document).encode()
        return encoded[:draw(st.integers(0, len(encoded) - 1))]
    if kind == "original-length":
        form["original_length"] = draw(st.sampled_from([CHUNK - 1, CHUNK + 1, 2**62, -CHUNK,
                                                        str(CHUNK), float(CHUNK), None]))
    elif kind == "segment-range":
        field = draw(st.sampled_from(["offset", "nbytes", "length"]))
        entry[field] = draw(st.sampled_from([
            -1, -entry["nbytes"] - 24, 0, 8, size - 10, size + 1_024, 2**62, 2**64,
            entries[0]["offset"] + 8]))
    elif kind == "segment-type":
        field = draw(st.sampled_from(["offset", "nbytes", "length", "crc32", "dtype"]))
        entry[field] = draw(st.one_of(WRONG_TYPES, st.sampled_from(["q9", ""])))
    elif kind == "delta-base":  # "day"'s run values are a DELTA form
        parameters = form["nested"]["values"]["parameters"]
        damage = draw(st.sampled_from(["missing", None, "float", 2**64]))
        if damage == "missing":
            del parameters["base"]
        else:
            parameters["base"] = float(parameters["base"]) if damage == "float" else damage
    else:
        part = draw(st.sampled_from(["segments", "nested", "parameters", "original_dtype"]))
        damage = draw(st.sampled_from(["drop", "list", "null"]))
        if damage == "drop":
            del target[part]
        else:
            target[part] = ["values"] if damage == "list" else None
    return document


def _outcome(path, column, expected, refused_on_decode=None):
    """``(located errors, verify report)`` of the three readers; asserts on
    the way that nothing but a located ``ReproError`` or the right answer
    ever comes out.  A form check that runs on decode names the form, not
    the file: its message starts with *refused_on_decode*."""
    errors = []
    try:
        table = open_table(path).table
        scan = scan_table(table, [], materialize=(column,))
        values = scan.columns[column].values
        assert values.dtype == expected.dtype and np.array_equal(values, expected), \
            "a damaged file decoded to a wrong column"
    except ReproError as error:
        located = path.name in str(error) or (
            refused_on_decode is not None and str(error).startswith(refused_on_decode))
        assert located, f"unlocated error: {error}"
        errors.append(error)
    report = verify_packed_file(path)
    assert all(path.name in problem for problem in report.problems)
    return errors, report


@pytest.mark.parametrize("kind", FOOTER_KINDS + DESCRIPTOR_KINDS)
@given(data=st.data())
@settings(derandomize=True, max_examples=25, deadline=None)
def test_a_mutated_footer_or_descriptor_is_refused_or_read_right(packed, packed_editor, kind, data):
    intact, columns, directory = packed
    size = intact.stat().st_size
    column = "day" if kind == "delta-base" else REFUSED.get(kind) \
        or data.draw(st.sampled_from(COLUMNS))
    target = directory / "mutated.rpk"
    if kind in FOOTER_KINDS:
        edit = _footer_mutation(kind, data.draw, size)
        packed_editor.rewrite(
            intact, target,
            footer=lambda footer: edit(packed_editor.entry(footer, column), footer))
    else:
        index = data.draw(st.integers(0, CHUNKS - 1))
        replacement = _descriptor_mutation(
            kind, data.draw, size, packed_editor.document(intact, column, index))
        packed_editor.rewrite(intact, target, chunk=(column, index, replacement))
    errors, report = _outcome(target, column, columns[column],
                              "malformed DELTA form: base" if kind == "delta-base" else None)
    event("refused" if errors else "read right")
    # verify walks every chunk of every column, so it sees whatever stopped a
    # reader — short of a form's parameters and dtypes, which only rebuilding
    # the scheme reads (verify checks byte ranges and digests, decodes nothing).
    if errors and kind != "form-shape":
        assert not report.ok, f"readers refused ({errors[0]}), verify did not"
    if kind == "delta-base":  # refused by the form check, never decoded wrong
        assert errors and any("nested form 'values': base" in line for line in report.problems)
    if kind in REFUSED:  # a sum no value could add up to: refused wherever it is read
        assert errors and "total" in str(errors[0])
        assert any("total" in line for line in report.problems)


def test_the_intact_file_reads_right_and_verifies(packed):
    intact, columns, __ = packed
    for column in COLUMNS:
        errors, report = _outcome(intact, column, columns[column])
        assert not errors and report.ok
