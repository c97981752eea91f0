"""Benchmark harness: timing, comparison rows, and paper-style text tables.

Every experiment (E1–E10, see DESIGN.md) produces rows of named values —
"scheme, workload parameters, compression ratio, decompression cost, time" —
and prints them as a fixed-width table.  The helpers here keep the
per-experiment benchmark modules small and keep their output format uniform
so EXPERIMENTS.md can quote it directly.

Wall-clock numbers are reported alongside the hardware-agnostic quantities
(bits per value, operator counts, elements touched); the reproduction's
claims rest on the latter, as the substrate is NumPy rather than the
vectorised C++/GPU kernels a production engine would use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..columnar.column import Column
from ..schemes.base import CompressionScheme


@dataclass
class TimingResult:
    """Result of timing a callable: best and mean wall-clock seconds."""

    best_seconds: float
    mean_seconds: float
    repeats: int
    result: Any = None


def time_callable(fn: Callable[[], Any], repeats: int = 5,
                  warmup: int = 1) -> TimingResult:
    """Time ``fn()`` with warm-up, returning best/mean seconds and the last result."""
    result = None
    for _ in range(max(0, warmup)):
        result = fn()
    samples = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return TimingResult(best_seconds=min(samples),
                        mean_seconds=sum(samples) / len(samples),
                        repeats=len(samples), result=result)


# --------------------------------------------------------------------------- #
# Comparison rows
# --------------------------------------------------------------------------- #

def compression_row(scheme: CompressionScheme, column: Column,
                    time_decompression: bool = True,
                    repeats: int = 3) -> Dict[str, Any]:
    """Measure one (scheme, column) pair: ratio, bits/value, plan cost, times."""
    compress_timing = time_callable(lambda: scheme.compress(column), repeats=repeats)
    form = compress_timing.result
    row: Dict[str, Any] = {
        "scheme": scheme.describe(),
        "ratio": form.compression_ratio(),
        "bits_per_value": form.bits_per_value(),
        "compress_s": compress_timing.best_seconds,
    }
    if scheme.is_lossless:
        plan = scheme.decompression_plan(form)
        detailed = plan.evaluate_detailed(scheme.plan_inputs(form))
        row["plan_operators"] = detailed.cost.operator_invocations
        row["plan_weighted_cost"] = detailed.cost.weighted_cost
        row["optimized_operators"] = len(scheme.compiled_decompression_plan(form).plan.steps)
        if time_decompression:
            plan_timing = time_callable(lambda: scheme.decompress(form), repeats=repeats)
            interpreted_timing = time_callable(
                lambda: scheme.decompress_interpreted(form), repeats=repeats)
            row["decompress_plan_s"] = plan_timing.best_seconds
            row["decompress_interpreted_s"] = interpreted_timing.best_seconds
            row["compiled_speedup"] = (interpreted_timing.best_seconds
                                       / max(plan_timing.best_seconds, 1e-12))
    return row


def compare_schemes(schemes: Sequence[CompressionScheme], column: Column,
                    repeats: int = 3) -> List[Dict[str, Any]]:
    """A compression/decompression comparison row per scheme over one column."""
    return [compression_row(scheme, column, repeats=repeats) for scheme in schemes]


def measure_scheme(scheme: CompressionScheme, column: Column,
                   chunk_rows: int, repeats: int) -> Dict[str, Any]:
    """Interpreted-vs-compiled decompression over all chunks of *column*.

    Chunk-at-a-time decoding is the representative workload of the plan
    compiler: a scan decompresses many vector-sized chunks that all share
    one compiled plan.  The two paths must agree chunk for chunk."""
    forms = []
    for start in range(0, len(column), chunk_rows):
        piece = Column(column.values[start:start + chunk_rows], name=column.name)
        forms.append(scheme.compress(piece))

    def interpreted() -> int:
        return sum(len(scheme.decompress_interpreted(form)) for form in forms)

    def compiled() -> int:
        return sum(len(scheme.decompress(form)) for form in forms)

    for form in forms:
        assert scheme.decompress(form).equals(scheme.decompress_interpreted(form)), \
            f"compiled/interpreted divergence for {scheme.describe()}"

    interpreted_timing = time_callable(interpreted, repeats=repeats, warmup=1)
    compiled_timing = time_callable(compiled, repeats=repeats, warmup=1)
    rows = len(column)
    compiled_plan = scheme.compiled_decompression_plan(forms[0])
    return {
        "scheme": scheme.describe(),
        "rows": rows,
        "chunks": len(forms),
        "plan_steps": len(compiled_plan.source.steps),
        "optimized_steps": len(compiled_plan.plan.steps),
        "interpreted_s": interpreted_timing.best_seconds,
        "compiled_s": compiled_timing.best_seconds,
        "interpreted_mvalues_per_s": rows / interpreted_timing.best_seconds / 1e6,
        "compiled_mvalues_per_s": rows / compiled_timing.best_seconds / 1e6,
        "speedup": interpreted_timing.best_seconds / max(compiled_timing.best_seconds, 1e-12),
    }


# --------------------------------------------------------------------------- #
# Table formatting
# --------------------------------------------------------------------------- #

def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Sequence[Dict[str, Any]], columns: Optional[Sequence[str]] = None,
                 title: str = "") -> str:
    """Render rows of dictionaries as a fixed-width text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


@dataclass
class ExperimentReport:
    """A named experiment's rows plus free-form notes, with uniform printing."""

    experiment: str
    description: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self, columns: Optional[Sequence[str]] = None) -> str:
        text = format_table(self.rows, columns=columns,
                            title=f"[{self.experiment}] {self.description}")
        if self.notes:
            text += "\n" + "\n".join(f"  note: {note}" for note in self.notes)
        return text

    def print(self, columns: Optional[Sequence[str]] = None) -> None:  # pragma: no cover
        print(self.render(columns=columns))
