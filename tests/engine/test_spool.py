"""The pool's return path without a pool: what a worker writes into its
arena, what the coordinator maps and checks, what the fold copies.

A range's positions and pieces cross the pipe only up to
``parallel.SPOOL_THRESHOLD`` bytes; larger ones are appended to the
worker's arena (:class:`parallel._Arena`) by :func:`parallel._spool_outcome`,
mapped by the coordinator through :meth:`parallel._Arenas.of`, checked by
:func:`parallel._receipt_cause` and copied into the result by
:func:`scan._fold`.  All of them are plain objects over a directory.
"""

import errno
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.engine import parallel
from repro.engine.parallel import (
    _PAGE,
    ParallelExecutionError,
    _Arena,
    _arena_name,
    _Arenas,
    _receipt_cause,
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


@pytest.fixture
def arena(tmp_path):
    """This process's arena in a fresh directory, as a worker holds it."""
    arena = _Arena(str(tmp_path))
    yield arena
    if arena.map is not None:
        arena.map.close()
    os.close(arena.fd)


def _through_the_arena(outcome, arena, arenas):
    """Worker side, the pipe, coordinator side: the outcome as ``run``
    accepts it, or the retry cause."""
    sent = pickle.loads(pickle.dumps(_spool_outcome(outcome, arena)))
    mapped = arenas.of(sent.spool)
    cause = _receipt_cause(sent, EXPECTED, mapped)
    if cause is not None:
        return cause
    sent.spool = mapped
    return sent


def _shifted(sent, by):
    """*sent*'s descriptors, every one *by* bytes further on."""
    return replace(sent, positions=sent.positions._replace(offset=sent.positions.offset + by),
                   pieces={name: piece._replace(offset=piece.offset + by)
                           for name, piece in sent.pieces.items()})


def test_round_trip_equals_concatenate(tmp_path, arena, monkeypatch):
    """Large, small and empty outcomes, each spooled (the threshold is
    lowered for the small ones) or in band, fold to ``np.concatenate`` of
    the originals in value and dtype — and the arena is all that is left."""
    originals = [_outcome(20_000, 0, seed=1), _outcome(3, 50_000, seed=2),
                 _outcome(0, 60_000, seed=3), _outcome(9_000, 70_000, seed=4),
                 _outcome(5, 90_000, seed=5)]
    arenas = _Arenas(str(tmp_path))
    received = []
    for index, outcome in enumerate(originals):
        if index in (1, 2):  # spool these whatever their size
            monkeypatch.setattr(parallel, "SPOOL_THRESHOLD", -1)
        got = _through_the_arena(outcome, arena, arenas)
        monkeypatch.undo()
        assert isinstance(got, _RangeOutcome), got
        received.append(got)
    assert [o.spool is not None for o in received] == [True, True, True, True, False]
    assert os.listdir(tmp_path) == [_arena_name(os.getpid())]

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
    assert os.listdir(tmp_path) == [_arena_name(os.getpid())]


def test_a_small_outcome_comes_back_untouched(tmp_path, arena):
    outcome = _outcome(100)
    assert sum(a.nbytes for a in [outcome.positions, *outcome.pieces.values()]) \
        <= parallel.SPOOL_THRESHOLD
    assert _spool_outcome(outcome, arena) is outcome
    assert arena.map is None and arena.cursor == 0
    assert _through_the_arena(outcome, arena, _Arenas(str(tmp_path))).spool is None


def test_the_threshold_is_one_pipe_buffer_of_array_bytes(arena):
    """8 192 rows of int64 positions alone are 64 KiB: in band; one more
    row is not."""
    def only_positions(rows):
        return _RangeOutcome(positions=np.arange(rows, dtype=np.int64),
                             stats=ScanStats(), pieces={})

    assert parallel.SPOOL_THRESHOLD == 1 << 16
    in_band = only_positions(8_192)
    assert _spool_outcome(in_band, arena) is in_band and arena.cursor == 0
    assert isinstance(_spool_outcome(only_positions(8_193), arena).positions, _Spooled)
    assert arena.cursor == 8_193 * 8


def test_descriptors_say_dtype_size_offset_from_a_page_boundary(arena):
    """Back to back within a range; the next range starts on the next page."""
    outcome = _outcome(10_000)
    sent = _spool_outcome(outcome, arena)
    assert sent.spool == os.getpid()
    assert sent.positions == _Spooled(np.dtype(np.int64), 10_000, 0)
    assert sent.pieces == {
        "price": _Spooled(np.dtype(np.int64), 10_000, 80_000),
        "weight": _Spooled(np.dtype(np.float64), 10_000, 160_000),
        "flag": _Spooled(np.dtype(bool), 10_000, 240_000)}
    assert sent.stats is outcome.stats and sent.state is None
    # Stats and the descriptors are all that is pickled: no array bytes.
    assert len(pickle.dumps(sent)) < 2_048
    again = _spool_outcome(outcome, arena)
    assert again.positions.offset == -(-250_000 // _PAGE) * _PAGE
    assert len(arena.map) % _PAGE == 0 and len(arena.map) >= arena.cursor
    arena.cursor = 0  # a new query
    assert _spool_outcome(outcome, arena).positions.offset == 0


@pytest.mark.parametrize("damage, needle", [
    (lambda sent, size: _shifted(sent, size), "does not hold"),  # past the end
    (lambda sent, size: _shifted(sent, -_PAGE), "does not hold"),  # negative
    (lambda sent, size: _shifted(sent, 8), "does not hold"),  # off a page
    (lambda sent, size: replace(sent, pieces=dict(  # a gap
        sent.pieces, flag=sent.pieces["flag"]._replace(offset=240_008))), "does not hold"),
    (lambda sent, size: replace(sent, pieces=dict(  # an overlap
        sent.pieces, weight=sent.pieces["weight"]._replace(offset=80_000))), "does not hold"),
    (lambda sent, size: replace(sent, spool=sent.spool + 1), "has no arena"),
    (lambda sent, size: replace(sent, spool="../../etc/passwd"), "has no arena"),
    (lambda sent, size: replace(sent, spool=None), "each one ndarray"),
])
def test_layouts_the_arena_does_not_hold_are_retry_causes(tmp_path, arena, damage, needle):
    sent = _spool_outcome(_outcome(10_000), arena)
    arenas = _Arenas(str(tmp_path))
    assert _receipt_cause(sent, EXPECTED, arenas.of(sent.spool)) is None
    damaged = damage(sent, arenas.of(sent.spool).size)
    cause = _receipt_cause(damaged, EXPECTED, arenas.of(damaged.spool))
    assert cause is not None and needle in cause, cause
    assert os.listdir(tmp_path) == [_arena_name(os.getpid())]  # the arena stays whole


def test_a_pid_beside_an_in_band_outcome_is_a_retry_cause(tmp_path, arena):
    _spool_outcome(_outcome(10_000), arena)
    beside = replace(_outcome(10), spool=os.getpid())
    cause = _receipt_cause(beside, EXPECTED, _Arenas(str(tmp_path)).of(os.getpid()))
    assert f"each one _Spooled (spooled by: {os.getpid()})" in cause


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


def test_receipt_check_of_spooled_shapes(tmp_path, arena):
    """Descriptors whose sizes or dtypes are not the outputs' do not pass,
    wherever they point."""
    sent = _spool_outcome(_outcome(10_000), arena)
    mapped = _Arenas(str(tmp_path)).of(sent.spool)
    assert _receipt_cause(sent, EXPECTED, mapped) is None
    longer = replace(sent, positions=sent.positions._replace(size=10_001))
    assert "are not int64 positions" in _receipt_cause(longer, EXPECTED, mapped)
    retyped = replace(sent, pieces=dict(
        sent.pieces, flag=sent.pieces["flag"]._replace(dtype=np.dtype(np.int8))))
    assert "'int8'" in _receipt_cause(retyped, EXPECTED, mapped)


def test_a_short_copy_raises_a_typed_error(tmp_path, arena):
    """A descriptor past the mapping that got by the receipt check (nothing
    in the program makes one; a bug might): the fold raises
    ``ParallelExecutionError`` instead of returning uninitialised memory."""
    accepted = _through_the_arena(_outcome(10_000), arena, _Arenas(str(tmp_path)))
    assert isinstance(accepted, _RangeOutcome)
    accepted.pieces["flag"] = accepted.pieces["flag"]._replace(
        offset=accepted.spool.size - 100)
    with pytest.raises(ParallelExecutionError, match="9900 bytes short"):
        _fold([accepted], list(EXPECTED))


def test_a_layout_that_ends_at_the_arenas_end_is_held(tmp_path, arena):
    """4 096 rows of 25 B fill 25 pages exactly: the last byte of the last
    piece is the arena's last byte, and it folds; a page further is not held."""
    outcome = _outcome(4_096)
    accepted = _through_the_arena(outcome, arena, _Arenas(str(tmp_path)))
    assert isinstance(accepted, _RangeOutcome), accepted
    flag = accepted.pieces["flag"]
    assert accepted.spool.size == flag.offset + flag.size == 25 * _PAGE
    positions, columns = _fold([accepted], list(EXPECTED))
    assert np.array_equal(columns["flag"].values, outcome.pieces["flag"])
    sent = _spool_outcome(outcome, arena)
    arena.cursor = 0
    assert "does not hold" in _receipt_cause(
        _shifted(sent, _PAGE), EXPECTED, _Arenas(str(tmp_path)).of(sent.spool))


def test_dropped_pages_fold_again_from_the_file(tmp_path, arena):
    """The fold drops the pages it copied from the coordinator's mapping;
    the file keeps them, so the same regions fold to the same arrays again."""
    outcome = _outcome(20_000)
    accepted = _through_the_arena(outcome, arena, _Arenas(str(tmp_path)))
    for __ in range(2):
        positions, columns = _fold([accepted], list(EXPECTED))
        assert np.array_equal(positions.values, outcome.positions)
        for name in EXPECTED:
            assert np.array_equal(columns[name].values, outcome.pieces[name])


def test_an_arena_with_nothing_spooled_maps_nothing(tmp_path, arena):
    """A worker creates its arena empty as it starts; until it spools a
    range there is nothing to map, and descriptors naming it are a cause."""
    assert os.path.getsize(tmp_path / _arena_name(os.getpid())) == 0
    assert _Arenas(str(tmp_path)).of(os.getpid()) is None
    claimed = replace(_outcome(10), spool=os.getpid(), positions=_Spooled(
        np.dtype(np.int64), 10, 0), pieces={name: _Spooled(dtype, 10, 80 + 8 * i)
                                            for i, (name, dtype) in enumerate(EXPECTED.items())})
    assert "has no arena" in _receipt_cause(claimed, EXPECTED, None)


def test_the_arena_file_is_new_and_private(tmp_path):
    """Whatever sat under the name before, the arena is a new empty file
    only its owner can read."""
    path = tmp_path / _arena_name(os.getpid())
    path.write_bytes(b"left by someone else")
    with open(path, "rb") as stale:  # open, so its inode is not reused
        arena = _Arena(str(tmp_path))
        try:
            now = os.fstat(arena.fd)
            assert now.st_ino != os.fstat(stale.fileno()).st_ino and now.st_size == 0
            assert now.st_mode & 0o777 == 0o600
            assert stale.read() == b"left by someone else"
        finally:
            os.close(arena.fd)


def test_the_arena_grows_by_doubling_in_whole_pages(arena):
    """A range that does not fit doubles the arena, or takes as many whole
    pages as it needs when doubling is not enough."""
    _spool_outcome(_outcome(10_000), arena)
    first = len(arena.map)
    assert first == -(-250_000 // _PAGE) * _PAGE
    _spool_outcome(_outcome(3_000), arena)  # 75 000 B more: less than doubling
    assert len(arena.map) == 2 * first
    _spool_outcome(_outcome(100_000), arena)
    assert len(arena.map) == -(-arena.cursor // _PAGE) * _PAGE > 4 * first
    assert os.fstat(arena.fd).st_size == len(arena.map)


def test_an_arena_that_has_not_grown_is_not_mapped_again(tmp_path, arena):
    """A new query rewinds the worker's cursor; while the file is no larger,
    the coordinator reads it through the mapping it has."""
    arenas = _Arenas(str(tmp_path))
    first = _through_the_arena(_outcome(10_000, seed=1), arena, arenas)
    arena.cursor = 0
    outcome = _outcome(10_000, seed=2)
    second = _through_the_arena(outcome, arena, arenas)
    assert second.spool is first.spool and second.positions.offset == 0
    positions, columns = _fold([second], list(EXPECTED))
    assert np.array_equal(columns["price"].values, outcome.pieces["price"])


def test_a_region_accepted_before_its_arena_is_unlinked_still_folds(tmp_path, arena):
    """A dead worker's arena is unlinked by the sweep that follows the
    fold; until the fold, what was accepted from it is read through the
    mapping, while the name maps nothing any more."""
    arenas = _Arenas(str(tmp_path))
    outcome = _outcome(10_000)
    accepted = _through_the_arena(outcome, arena, arenas)
    os.unlink(tmp_path / _arena_name(os.getpid()))
    assert arenas.of(os.getpid()) is None
    positions, columns = _fold([accepted], list(EXPECTED))
    assert np.array_equal(positions.values, outcome.positions)
    assert np.array_equal(columns["weight"].values, outcome.pieces["weight"])


def test_a_grown_arena_is_mapped_again_and_the_old_mapping_stays_readable(
        tmp_path, arena):
    """The coordinator maps an arena again once the file is larger than its
    mapping; a region accepted through the old mapping still folds."""
    arenas = _Arenas(str(tmp_path))
    small = _outcome(5_000, seed=1)
    first = _through_the_arena(small, arena, arenas)
    size = first.spool.size
    large = _outcome(200_000, 10_000, seed=2)
    second = _through_the_arena(large, arena, arenas)
    assert second.spool is not first.spool and second.spool.size > size
    assert arenas.of(os.getpid()) is second.spool  # not mapped a third time
    positions, columns = _fold([first, second], list(EXPECTED))
    assert np.array_equal(positions.values,
                          np.concatenate([small.positions, large.positions]))
    assert np.array_equal(columns["weight"].values,
                          np.concatenate([small.pieces["weight"], large.pieces["weight"]]))


def test_an_arena_that_cannot_grow_raises_oserror_and_keeps_what_it_has(
        arena, monkeypatch):
    """The grow step reserves the blocks first: a full tmpfs is an
    ``OSError`` the worker reports, not a ``SIGBUS`` on a sparse page."""
    _spool_outcome(_outcome(10_000), arena)
    mapped, cursor = len(arena.map), arena.cursor

    def full(fd, offset, length):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "posix_fallocate", full)
    with pytest.raises(OSError, match="No space left"):
        _spool_outcome(_outcome(100_000), arena)
    assert (len(arena.map), arena.cursor) == (mapped, cursor)


def test_the_arena_name_is_a_function_of_the_pid_only(tmp_path):
    assert _arena_name(12) == "arena.12"
    assert len({_arena_name(pid) for pid in range(100)}) == 100
    # Integers only: nothing a payload could smuggle a path through.
    for hostile in ("../../etc", "1/2", None):
        with pytest.raises(TypeError):
            _arena_name(hostile)
    arenas = _Arenas(str(tmp_path))
    for hostile in ("../../etc", None, 1.5, True):
        assert arenas.of(hostile) is None


def test_a_pid_without_an_arena_maps_nothing(tmp_path):
    assert _Arenas(str(tmp_path)).of(os.getpid()) is None


def test_a_reused_pid_gets_a_new_file_and_a_new_mapping(tmp_path, arena):
    """A worker whose pid a dead one had starts a new file, not the dead
    one's (whose regions the coordinator may not have copied yet)."""
    arenas = _Arenas(str(tmp_path))
    old = _through_the_arena(_outcome(10_000, seed=1), arena, arenas)
    successor = _Arena(str(tmp_path))
    try:
        assert os.fstat(successor.fd).st_ino != old.spool.inode
        new = _through_the_arena(_outcome(10_000, seed=2), successor, arenas)
        assert new.spool is not old.spool and new.spool.size == old.spool.size
        positions, columns = _fold([old, new], list(EXPECTED))
        assert np.array_equal(columns["price"].values, np.concatenate(
            [_outcome(10_000, seed=s).pieces["price"] for s in (1, 2)]))
    finally:
        successor.map.close()
        os.close(successor.fd)
