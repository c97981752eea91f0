"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import struct
import threading
import zlib

import numpy as np
import pytest

from repro.columnar import Column
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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _run_in_threads(fn, jobs, timeout=120):
    """``[fn(job) for job in jobs]`` with every call on its own thread, all
    started together; re-raises the first failure."""
    results = [None] * len(jobs)
    errors = []

    def work(index, job):
        try:
            results[index] = fn(job)
        except BaseException as error:  # re-raised on the calling thread
            errors.append(error)

    threads = [threading.Thread(target=work, args=(index, job))
               for index, job in enumerate(jobs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        assert not thread.is_alive(), "thread did not finish in time"
    if errors:
        raise errors[0]
    return results


@pytest.fixture
def run_in_threads():
    """Callers' own threads — what the engine's locks exist for."""
    return _run_in_threads


class _PackedFileEditor:
    """Edit a v4 packed file's metadata while keeping its framing valid, so
    a test's damage is met by the check it aims at and not by a CRC or the
    trailer.  The one such helper: corruption, lazy-open, packed-error,
    chaos and the footer fuzz tests all go through it."""

    @staticmethod
    def _parts(blob):
        footer_offset, footer_length, __ = struct.unpack("<QQ8s", blob[-24:])
        return footer_offset, json.loads(blob[footer_offset:footer_offset + footer_length])

    @staticmethod
    def entry(footer, column):
        return next(entry for entry in footer["columns"] if entry["name"] == column)

    def document(self, path, column, index):
        """The parsed ``{scheme, form}`` descriptor document of one chunk."""
        blob = path.read_bytes()
        where = self.entry(self._parts(blob)[1], column)["descriptors"]
        offset = where["offset"][index]
        return json.loads(blob[offset:offset + where["nbytes"][index]])

    def rewrite(self, source, target, footer=None, chunk=None):
        """Copy *source* to *target* edited: ``chunk=(column, index, edit)``
        replaces that chunk's descriptor document by what ``edit(document)``
        leaves of it — or, when *edit* is not callable, by *edit* itself: any
        JSON value, or raw ``bytes`` — placed at the end of the segment
        region with its footer entry (offset, nbytes, digest) refreshed; then
        ``footer(document)`` edits the parsed footer in place.  The trailer
        is recomputed."""
        blob = source.read_bytes()
        footer_offset, document = self._parts(blob)
        body = blob[:footer_offset]
        if chunk is not None:
            column, index, edit = chunk
            described = edit
            if callable(edit):
                described = self.document(source, column, index)
                edit(described)
            data = described if isinstance(described, bytes) else json.dumps(described).encode()
            where = self.entry(document, column)["descriptors"]
            where["offset"][index], where["nbytes"][index] = len(body), len(data)
            where["crc32"][index] = zlib.crc32(data)
            body += data
        if footer is not None:
            footer(document)
        encoded = json.dumps(document).encode()
        target.write_bytes(body + encoded
                           + struct.pack("<QQ8s", len(body), len(encoded), b"RPROPEND"))
        return target

    def flip_segment_byte(self, path, column, index):
        """Flip one byte inside the first segment of the given chunk, on disk."""
        segment = next(iter(self.document(path, column, index)["form"]["segments"].values()))
        position = segment["offset"] + segment["nbytes"] // 2
        with open(path, "r+b") as handle:
            handle.seek(position)
            byte = handle.read(1)
            handle.seek(position)
            handle.write(bytes([byte[0] ^ 0xFF]))


@pytest.fixture(scope="session")
def packed_editor():
    return _PackedFileEditor()


@pytest.fixture
def listed_candidates():
    """The advisor's candidate list as PR 21 hard-coded it: four listed
    cascades.  A member-for-member subset of what ``default_candidates``
    generates now, kept so tests can pin that the costing and bound changes
    alone moved no choice."""
    from repro import schemes as s

    def listed(stats, segment_length=128):
        candidates = [s.Identity(), s.NullSuppression(), s.VariableWidth(),
                      s.FrameOfReference(segment_length=segment_length),
                      s.PatchedFrameOfReference(segment_length=segment_length),
                      s.PiecewiseLinear(segment_length=segment_length), s.Delta()]
        if stats.average_run_length >= 1.5:
            candidates += [
                s.RunLengthEncoding(), s.RunPositionEncoding(),
                s.Cascade(s.RunLengthEncoding(),
                          {"values": s.Delta(), "lengths": s.NullSuppression()}),
                s.Cascade(s.RunPositionEncoding(),
                          {"values": s.Delta(), "run_positions": s.Delta()})]
        if 1 < stats.distinct_count and stats.distinct_fraction <= 0.5:
            candidates.append(s.DictionaryEncoding())
        if stats.max_delta_bits <= stats.value_bits:
            candidates += [s.Cascade(s.Delta(narrow=False), {"deltas": s.NullSuppression()}),
                           s.Cascade(s.Delta(narrow=False), {"deltas": s.VariableWidth()})]
        return candidates

    return listed


@pytest.fixture
def small_column():
    """A small, hand-checkable column with runs."""
    return Column([7, 7, 7, 9, 9, 5, 5, 5, 5], name="small")


@pytest.fixture
def empty_column():
    return Column.empty(np.int64, name="empty")


@pytest.fixture
def runs_data():
    """Run-structured data of moderate size."""
    return runs_column(5_000, average_run_length=25.0, num_distinct_values=200, seed=7)


@pytest.fixture
def dates_data():
    """The paper's shipping-dates column (monotone, long runs)."""
    return shipping_dates(10_000, orders_per_day_mean=150.0, seed=11)


@pytest.fixture
def smooth_data():
    """Locally-smooth measure data (FOR territory)."""
    return smooth_measure(6_000, seed=13)


@pytest.fixture
def outlier_data():
    """Step data with injected outliers (PFOR territory)."""
    return step_with_outliers(4_096, segment_length=128, outlier_fraction=0.02, seed=17)


@pytest.fixture
def trending_data():
    """Per-segment trending data (LINEAR territory)."""
    return trending_sensor(4_096, segment_length=128, seed=19)


@pytest.fixture
def categorical_data():
    """Zipf-skewed categorical data (DICT territory)."""
    return zipfian_categories(5_000, num_categories=50, seed=23)


@pytest.fixture
def random_data():
    """Incompressible uniform-random data."""
    return uniform_random(4_000, seed=29)


@pytest.fixture
def monotone_data():
    """Monotone identifiers with small gaps (DELTA territory)."""
    return monotone_identifiers(5_000, seed=31)
