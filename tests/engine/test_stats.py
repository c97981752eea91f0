"""``ScanStats`` / ``PushdownStats``: every counter survives a merge."""

from dataclasses import fields

from repro.engine.stats import PushdownStats, ScanStats


def _distinct(cls, start):
    """An instance whose counters are ``start, start + 1, ...``."""
    names = [f.name for f in fields(cls) if f.name != "pushdown"]
    return cls(**{name: start + i for i, name in enumerate(names)}), names


def test_merge_adds_every_counter_of_both_classes():
    left, scan_names = _distinct(ScanStats, 100)
    right, __ = _distinct(ScanStats, 1_000)
    left.pushdown, pushdown_names = _distinct(PushdownStats, 10_000)
    right.pushdown, __ = _distinct(PushdownStats, 100_000)

    left.merge(right)
    for i, name in enumerate(scan_names):
        assert getattr(left, name) == 100 + 1_000 + 2 * i, name
    for i, name in enumerate(pushdown_names):
        assert getattr(left.pushdown, name) == 10_000 + 100_000 + 2 * i, name
    assert right.pushdown.rows_total == 100_000  # the source is not touched


def test_comparable_leaves_out_only_the_warmth_fields():
    stats, names = _distinct(ScanStats, 1)
    flat = stats.comparable()
    assert set(names) - set(flat) == set(ScanStats.WARMTH_FIELDS)
    assert {f"pushdown.{f.name}" for f in fields(PushdownStats)} <= set(flat)
