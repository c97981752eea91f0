"""The pool's return path without a pool: what a worker writes, what the
coordinator claims and checks, what the fold reads.

A range's positions and pieces cross the pipe only up to
``parallel.SPOOL_THRESHOLD`` bytes; larger ones are written to a spool file
by :func:`parallel._spool_outcome`, claimed by :func:`parallel._claim`,
checked by :func:`parallel._receipt_cause` and read into the result by
:func:`scan._fold`.  All four are plain functions over a directory.
"""

import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.engine import parallel
from repro.engine.parallel import (
    ParallelExecutionError,
    _claim,
    _receipt_cause,
    _spool_name,
    _spool_outcome,
    _Spooled,
)
from repro.engine.scan import _fold, _RangeOutcome
from repro.engine.stats import ScanStats

EXPECTED = {"price": np.dtype(np.int64), "weight": np.dtype(np.float64),
            "flag": np.dtype(bool)}


def _outcome(rows, start=0, seed=0):
    """*rows* selected rows with an output of every dtype family; the
    positions are a strided (non-contiguous) view."""
    rng = np.random.default_rng(seed)
    positions = np.arange(start, start + 2 * rows, dtype=np.int64)[::2]
    assert rows < 2 or not positions.flags.c_contiguous
    return _RangeOutcome(
        positions=positions, stats=ScanStats(rows_selected=rows),
        pieces={"price": rng.integers(-2**62, 2**62, rows),
                "weight": rng.random(rows),
                "flag": rng.random(rows) < 0.5})


def _through_the_spool(outcome, path):
    """Worker side, the pipe, coordinator side: the outcome as ``run``
    accepts it, or the retry cause."""
    sent = pickle.loads(pickle.dumps(_spool_outcome(outcome, str(path))))
    spool = _claim(str(path))
    cause = _receipt_cause(sent, EXPECTED, spool)
    if cause is not None:
        if spool is not None:
            spool.close()
        return cause
    sent.spool = spool
    return sent


def test_round_trip_equals_concatenate(tmp_path, monkeypatch):
    """Large, small and empty outcomes, each spooled (the threshold is
    lowered for the small ones) or in band, fold to ``np.concatenate`` of
    the originals in value and dtype — and every file is gone."""
    originals = [_outcome(20_000, 0, seed=1), _outcome(3, 50_000, seed=2),
                 _outcome(0, 60_000, seed=3), _outcome(9_000, 70_000, seed=4),
                 _outcome(5, 90_000, seed=5)]
    received = []
    for index, outcome in enumerate(originals):
        if index in (1, 2):  # spool these whatever their size
            monkeypatch.setattr(parallel, "SPOOL_THRESHOLD", -1)
        got = _through_the_spool(outcome, tmp_path / _spool_name(7, index, 0))
        monkeypatch.undo()
        assert isinstance(got, _RangeOutcome), got
        received.append(got)
    assert [o.spool is not None for o in received] == [True, True, True, True, False]
    assert os.listdir(tmp_path) == []  # claimed: open, and unlinked

    positions, columns = _fold(received, list(EXPECTED))
    want = np.concatenate([o.positions for o in originals])
    assert positions.values.dtype == np.int64
    assert np.array_equal(positions.values, want)
    assert list(columns) == list(EXPECTED)
    for name, dtype in EXPECTED.items():
        want = np.concatenate([o.pieces[name] for o in originals])
        assert columns[name].values.dtype == want.dtype == dtype
        assert np.array_equal(columns[name].values, want)
        assert columns[name].name == name
    assert all(o.spool is None or o.spool.closed for o in received)


def test_a_small_outcome_comes_back_untouched(tmp_path):
    outcome = _outcome(100)
    path = tmp_path / _spool_name(0, 0, 0)
    assert sum(a.nbytes for a in [outcome.positions, *outcome.pieces.values()]) \
        <= parallel.SPOOL_THRESHOLD
    assert _spool_outcome(outcome, str(path)) is outcome
    assert not path.exists()
    assert _through_the_spool(outcome, path).spool is None


def test_the_threshold_is_one_pipe_buffer_of_array_bytes(tmp_path):
    """8 192 rows of int64 positions alone are 64 KiB: in band; one more
    row is not."""
    def only_positions(rows):
        return _RangeOutcome(positions=np.arange(rows, dtype=np.int64),
                             stats=ScanStats(), pieces={})

    assert parallel.SPOOL_THRESHOLD == 1 << 16
    path = str(tmp_path / "file")
    in_band = only_positions(8_192)
    assert _spool_outcome(in_band, path) is in_band and not os.path.exists(path)
    assert isinstance(_spool_outcome(only_positions(8_193), path).positions, _Spooled)
    assert os.path.getsize(path) == 8_193 * 8


def test_descriptors_say_dtype_size_offset(tmp_path):
    outcome = _outcome(10_000)
    sent = _spool_outcome(outcome, str(tmp_path / "file"))
    assert sent.positions == _Spooled(np.dtype(np.int64), 10_000, 0)
    assert sent.pieces == {
        "price": _Spooled(np.dtype(np.int64), 10_000, 80_000),
        "weight": _Spooled(np.dtype(np.float64), 10_000, 160_000),
        "flag": _Spooled(np.dtype(bool), 10_000, 240_000)}
    assert os.path.getsize(tmp_path / "file") == 250_000
    assert sent.stats is outcome.stats and sent.state is None
    # Stats and the descriptors are all that is pickled: no array bytes.
    assert len(pickle.dumps(sent)) < 2_048


@pytest.mark.parametrize("damage, needle", [
    (lambda path: os.truncate(path, os.path.getsize(path) // 2), "does not hold"),
    (lambda path: os.truncate(path, os.path.getsize(path) + 1), "does not hold"),
    (os.unlink, "spool file: False"),
])
def test_a_truncated_an_oversized_and_a_missing_file_are_retry_causes(
        tmp_path, damage, needle):
    path = tmp_path / _spool_name(1, 2, 3)
    sent = _spool_outcome(_outcome(10_000), str(path))
    damage(str(path))
    spool = _claim(str(path))
    cause = _receipt_cause(sent, EXPECTED, spool)
    assert cause is not None and needle in cause
    if spool is not None:
        spool.close()
    assert os.listdir(tmp_path) == []


def test_a_file_beside_an_in_band_outcome_is_a_retry_cause(tmp_path):
    path = tmp_path / "stray"
    path.write_bytes(b"x" * 10)
    spool = _claim(str(path))
    assert "spool file: True" in _receipt_cause(_outcome(10), EXPECTED, spool)
    spool.close()


def test_receipt_check_of_in_band_outcomes():
    """What used to reach the fold: garbage, a piece shorter than the
    positions, a dtype that is not the output's, a missing or reordered
    output, an array of two dimensions."""
    good = _outcome(10)
    assert _receipt_cause(good, EXPECTED, None) is None
    aggregate = _RangeOutcome(positions=np.empty(0, dtype=np.int64),
                              stats=ScanStats(), pieces={}, state=object())
    assert _receipt_cause(aggregate, {}, None) is None

    def with_piece(name, array):
        return replace(good, pieces=dict(good.pieces, **{name: array}))

    bad = {
        "corrupt result payload (bytes)": b"<injected garbage payload>",
        "are not int64 positions": with_piece("price", good.pieces["price"][:9]),
        "'int32'": with_piece("price", good.pieces["price"].astype(np.int32)),
        "dtype('float64'), 10, 1), (dtype('float64')": with_piece("price", good.pieces["weight"]),
        "are not ['price', 'weight', 'flag']": replace(
            good, pieces={n: good.pieces[n] for n in ("weight", "price", "flag")}),
        "result outputs ['price', 'weight']": replace(
            good, pieces={n: good.pieces[n] for n in ("price", "weight")}),
        ", 2)": replace(good, positions=good.positions.reshape(2, 5)),
        "[(dtype('int32'), 10, 1)": replace(good, positions=good.positions.astype(np.int32)),
        "each one ndarray": with_piece("flag", _Spooled(np.dtype(bool), 10, 0)),
    }
    for needle, outcome in bad.items():
        cause = _receipt_cause(outcome, EXPECTED, None)
        assert cause is not None and needle in cause, (needle, cause)


def test_receipt_check_of_spooled_layouts(tmp_path):
    """Descriptors that overlap, leave a gap or run past the file do not
    pass, whatever the file's size."""
    path = tmp_path / "file"
    sent = _spool_outcome(_outcome(10_000), str(path))

    def cause_of(outcome):
        with open(path, "rb") as probe:  # the check reads its size only
            return _receipt_cause(outcome, EXPECTED, probe)

    assert cause_of(sent) is None
    shifted = replace(sent, pieces=dict(
        sent.pieces, weight=sent.pieces["weight"]._replace(offset=80_000)))
    assert "does not hold" in cause_of(shifted)
    longer = replace(sent, positions=sent.positions._replace(size=10_001))
    assert "are not int64 positions" in cause_of(longer)
    retyped = replace(sent, pieces=dict(
        sent.pieces, flag=sent.pieces["flag"]._replace(dtype=np.dtype(np.int8))))
    assert "'int8'" in cause_of(retyped)


def test_a_short_read_raises_a_typed_error(tmp_path):
    """The file shrinks after it passed the receipt check (nothing in the
    program does that; a full tmpfs or a bug might): the fold raises
    ``ParallelExecutionError`` instead of returning uninitialised memory,
    and still closes every file."""
    path = tmp_path / _spool_name(0, 0, 0)
    outcome = _outcome(10_000)
    with open(path, "wb"):
        pass
    backdoor = open(path, "r+b")  # survives the unlink
    try:
        accepted = _through_the_spool(outcome, path)
        assert isinstance(accepted, _RangeOutcome)
        backdoor.truncate(100_000)
        with pytest.raises(ParallelExecutionError, match="bytes short"):
            _fold([accepted], list(EXPECTED))
        assert accepted.spool.closed
    finally:
        backdoor.close()


def test_the_file_name_is_a_function_of_query_range_attempt_only():
    assert _spool_name(12, 3, 1) == "12.3.1"
    names = {_spool_name(q, r, a) for q in range(3) for r in range(3) for a in range(3)}
    assert len(names) == 27
    assert all(os.path.basename(name) == name for name in names)
    # Integers only: nothing a payload could smuggle a path through.
    for hostile in ("../../etc", "1/2", None):
        with pytest.raises(TypeError):
            _spool_name(0, hostile, 0)


def test_claiming_nothing_is_none(tmp_path):
    assert _claim(str(tmp_path / "absent")) is None
