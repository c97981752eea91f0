"""Span tracing from outside the program.

The program under ``src/`` is not edited: :func:`install` wraps the public
entry points of each layer by replacing the binding the *caller* resolves at
call time (``repro.api.dataset.run_plan``, ``repro.api.lower.scan_table``,
``repro.engine.kernels.filter_range`` …), and :func:`uninstall` puts the
originals back.  A span is ``[name, start_ns, end_ns, parent, op_id, note]``:
``parent`` is the index of the enclosing span (-1 for an op's root), ``op_id``
groups the spans of one operation, and ``note`` is one number the wrapper read
off the call (values decompressed, whether a kernel declined, …).

A span's *self* time is its duration minus its direct children's durations,
so the self times of one op add up to the root span's duration.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

NAME, START, END, PARENT, OP, NOTE = range(6)
FIELDS = ("name", "start_ns", "end_ns", "parent", "op_id", "note")

#: The root span of every operation; its self time is benchmark glue that no
#: layer span covers, which is what ``trace.coverage`` reports as missing.
ROOT = "op"


class Recorder:
    """Keeps spans in memory; single-threaded, like the closed-loop client."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op_id = -1

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1,
                self._op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def op(self, op_id: int):
        """The root span of operation *op_id*."""
        self._op_id = op_id
        return self.span(ROOT)

    def wrap(self, name: str, fn: Callable,
             note: Optional[Callable[[tuple, Any], Any]] = None) -> Callable:
        def traced(*args, **kwargs):
            if not self._stack:  # outside any op (set-up, result checks)
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


class NullRecorder:
    """The untraced run: spans cost one shared no-op context manager."""

    _NOTHING = nullcontext()

    def span(self, name: str):
        return self._NOTHING

    def op(self, op_id: int):
        return self._NOTHING


def _declined(args: tuple, result: Any) -> int:
    return 0 if result is None else 1


def _values_out(args: tuple, result: Any) -> int:
    return len(result)


def _values_in(args: tuple, result: Any) -> int:
    return len(args[0])


def _returned(args: tuple, result: Any) -> int:
    return 1


def _targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, note)`` for every wrapped entry point.

    The owner is the namespace the caller looks the function up in: modules
    that did ``from x import f`` own their own ``f``.
    """
    from importlib import import_module

    from repro.api import lower as api_lower
    from repro.engine import kernels, parallel
    from repro.io import reader, verify, writer
    from repro.planner import advisor
    from repro.storage.chunk import ColumnChunk
    from repro.storage.table import Table

    # ``repro.api.dataset`` the attribute is the function of that name.
    api_dataset = import_module("repro.api.dataset")
    return [
        (api_dataset.Dataset, "optimized_plan", "api.Dataset.optimized_plan", None),
        (api_dataset, "run_plan", "api.run_plan", None),
        (api_lower, "scan_table", "engine.scan.scan_table", None),
        (api_lower, "grouped_reduce", "engine.operators.grouped_reduce", None),
        (api_lower, "scalar_aggregate", "engine.operators.aggregate", None),
        (kernels, "filter_range", "engine.kernels.filter_range", _declined),
        (kernels, "gather", "engine.kernels.gather", _declined),
        (kernels, "aggregate_whole", "engine.kernels.aggregate_whole", _declined),
        (kernels, "group_codes", "engine.kernels.group_codes", _declined),
        (ColumnChunk, "decompress", "storage.ColumnChunk.decompress", _values_out),
        (ColumnChunk, "from_column", "storage.ColumnChunk.from_column", _values_in),
        (Table, "from_pydict", "storage.Table.from_pydict", None),
        (reader.SegmentSource, "load", "io.reader.SegmentSource.load", None),
        (reader, "open_packed_table", "io.reader.open_packed_table", None),
        (writer, "write_packed_table", "io.writer.write_packed_table", None),
        (verify, "verify_packed_file", "io.verify.verify_packed_file", None),
        (advisor, "advise", "planner.advisor.advise", None),
        # Noted only when the call returned: a raise means the op fell back.
        (parallel, "run_process_scan", "engine.parallel.run_process_scan",
         _returned),
        (parallel, "run_process_aggregate",
         "engine.parallel.run_process_aggregate", _returned),
    ]


def install(recorder: Recorder) -> List[Tuple[Any, str, Any]]:
    """Wrap every target; returns what :func:`uninstall` needs."""
    undo = []
    for owner, attribute, name, note in _targets():
        original = inspect.getattr_static(owner, attribute)
        if isinstance(original, staticmethod):
            wrapped: Any = staticmethod(
                recorder.wrap(name, original.__func__, note))
        else:
            wrapped = recorder.wrap(name, original, note)
        setattr(owner, attribute, wrapped)
        undo.append((owner, attribute, original))
    return undo


def uninstall(undo: Iterable[Tuple[Any, str, Any]]) -> None:
    for owner, attribute, original in undo:
        setattr(owner, attribute, original)


def self_times(spans: List[list]) -> List[int]:
    """Self nanoseconds of every span (duration minus direct children)."""
    children = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - inner
            for span, inner in zip(spans, children)]


def summarize(spans: List[list], op_ids: Iterable[int]
              ) -> Dict[str, Dict[str, float]]:
    """Per span name over the ops in *op_ids*: self ns, calls, summed notes
    and how many notes were non-zero."""
    wanted = set(op_ids)
    summary: Dict[str, Dict[str, float]] = {}
    for span, self_ns in zip(spans, self_times(spans)):
        if span[OP] not in wanted:
            continue
        entry = summary.setdefault(
            span[NAME], {"self_ns": 0, "calls": 0, "note": 0, "noted": 0})
        entry["self_ns"] += self_ns
        entry["calls"] += 1
        if span[NOTE]:
            entry["note"] += span[NOTE]
            entry["noted"] += 1
    return summary


def write(path, workload: str, spans: List[list]) -> None:
    with open(path, "w") as handle:
        json.dump({"workload": workload, "fields": FIELDS, "spans": spans},
                  handle)
