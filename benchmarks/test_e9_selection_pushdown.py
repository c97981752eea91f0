"""E9 — "speed up selections": range queries against the coarse model.

Paper claim (§II-B): the rough correspondence of the column to a simple
(low-dimensional) model "can be used to speed up selections (e.g. range
queries) and joins".

Measured here, sweeping selectivity on a FOR-compressed column: a range
selection evaluated (a) by decompressing everything and filtering, vs (b) by
accepting/rejecting whole segments from the model and decoding offsets only
for straddling segments — wall-clock, fraction of rows whose offsets were
decoded, and result equality.  Where straddling segments hold more than a
quarter of the rows, (b) runs the filter query plan — decode, then compare —
and counts every row as decoded.
"""

import numpy as np
import pytest

from repro.bench import ExperimentReport
from repro.engine import RangeBounds, kernels
from repro.schemes import FrameOfReference

from conftest import print_report

SEGMENT_LENGTH = 128
SELECTIVITIES = [0.01, 0.10, 0.50]


def _bounds(column, selectivity):
    values = column.values
    lo = int(np.quantile(values, 0.5 - selectivity / 2))
    hi = int(np.quantile(values, 0.5 + selectivity / 2))
    return RangeBounds(lo, hi)


def _baseline(scheme, form, bounds):
    values = scheme.decompress(form).values
    return (values >= bounds.low) & (values <= bounds.high)


@pytest.mark.parametrize("selectivity", SELECTIVITIES)
def test_e9_full_decompress_then_filter(benchmark, smooth_column, selectivity):
    """Baseline: decompress every value, then compare."""
    scheme = FrameOfReference(segment_length=SEGMENT_LENGTH)
    form = scheme.compress(smooth_column)
    bounds = _bounds(smooth_column, selectivity)
    mask = benchmark(_baseline, scheme, form, bounds)
    assert int(mask.sum()) > 0


@pytest.mark.parametrize("selectivity", SELECTIVITIES)
def test_e9_model_pushdown_selection(benchmark, smooth_column, selectivity):
    """Pushdown: decide whole segments from the references, decode only stragglers."""
    scheme = FrameOfReference(segment_length=SEGMENT_LENGTH)
    form = scheme.compress(smooth_column)
    bounds = _bounds(smooth_column, selectivity)
    mask, stats = benchmark(kernels.filter_range, scheme, form, bounds)
    assert np.array_equal(mask, _baseline(scheme, form, bounds))
    assert stats.rows_decoded < len(smooth_column)


def test_e9_selectivity_sweep(benchmark, smooth_column):
    """How much decoding the model actually avoids, by selectivity."""
    scheme = FrameOfReference(segment_length=SEGMENT_LENGTH)
    form = scheme.compress(smooth_column)
    report = ExperimentReport(
        "E9", "Range selection on FOR data: segment skipping via the coarse model")

    def measure():
        rows = []
        for selectivity in [0.001, 0.01, 0.05, 0.10, 0.25, 0.50, 0.90]:
            bounds = _bounds(smooth_column, selectivity)
            mask, stats = kernels.filter_range(scheme, form, bounds)
            baseline = _baseline(scheme, form, bounds)
            rows.append({
                "selectivity": selectivity,
                "rows_selected": int(mask.sum()),
                "segments_skipped": stats.segments_skipped,
                "segments_accepted": stats.segments_accepted,
                "decode_fraction": round(stats.decode_fraction, 4),
                "exact": bool(np.array_equal(mask, baseline)),
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for row in rows:
        report.add_row(**row)
    report.add_note("selective predicates reject almost every segment from the model "
                    "alone; only segments straddling the range boundaries decode offsets")
    print_report(report)

    assert all(row["exact"] for row in rows)
    # Selective predicates skip most of the data; broad ones accept most of it
    # from the model alone — in both extremes the decode fraction stays small.
    assert rows[0]["decode_fraction"] < 0.2
    assert rows[0]["segments_skipped"] > 0.7 * (form.parameter("num_segments"))
    assert rows[-1]["segments_accepted"] > 0.5 * (form.parameter("num_segments"))
    # Decode fraction peaks somewhere in the middle of the sweep.
    fractions = [row["decode_fraction"] for row in rows]
    assert max(fractions) == max(fractions[1:-1] + [fractions[0], fractions[-1]])
