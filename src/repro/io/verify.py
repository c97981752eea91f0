"""Offline integrity verification of packed tables: ``python -m repro.io.verify``.

Walks a packed file's framing (header magic/version, trailer, footer JSON),
holds the footer's per-column arrays to their invariants
(:func:`~repro.io.format.check_footer`, the function the reader's ``.table``
runs), reads every chunk's descriptor document the way the reader does on
first touch (:func:`~repro.io.format.read_descriptor`), holds an RLE/RPE,
FOR/PFOR, LINEAR/POLY, DICT, DELTA or NS form's scalars — nested forms' too —
to the check its kernels and decompression make (run count, segment length
and references or coefficients, DICT's code width, count and stored codes,
DELTA's ``base`` and ``deltas``, NS's count, width and stored size), and then
re-computes every
segment's CRC32 against the digest recorded in its descriptor — **without
decompressing anything**:
segments are raw little-endian bytes, so verification is one sequential
``zlib.crc32`` pass over each recorded byte range, independent of the
compression scheme stacked on top.  The reader does the same checks lazily,
chunk by chunk and segment by segment, on first touch; this tool is the eager,
exhaustive variant for "is this artifact intact?" questions — backup
validation, CI cross-version checks, locating the damage after a
:class:`~repro.errors.CorruptionError`.

Usage::

    python -m repro.io.verify TABLE.rpk [MORE.rpk ...]
    python -m repro.io.verify CATALOG_DIR

Directories are treated as catalogs (every table named by
``catalog.json`` is verified).  Exit status is 0 when everything checks
out and 1 otherwise, with one line per problem naming the file, segment
and byte range.  A segment descriptor without a digest is a problem like a
wrong one: nothing else would notice that integrity checking was off for it.
"""

from __future__ import annotations

import argparse
import mmap
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import StorageError
from ..schemes import (Delta, DictionaryEncoding, FrameOfReference, NullSuppression,
                       PiecewisePolynomial, RunLengthEncoding)
from .format import (
    byte_range_problem,
    check_footer,
    decode_footer,
    digest_problem,
    read_descriptor,
    read_footer,
)

PathLike = Union[str, Path]

__all__ = ["VerifyReport", "verify_packed_file", "verify_path", "main"]


@dataclass
class VerifyReport:
    """The outcome of verifying one packed file."""

    path: Path
    format_version: int = 0
    segments_total: int = 0
    segments_verified: int = 0
    #: Human-readable problem lines; empty means the file is intact.
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        if not self.ok:
            return (f"CORRUPT {self.path}: {len(self.problems)} problem(s), "
                    f"{self.segments_verified}/{self.segments_total} "
                    f"segment(s) verified")
        return (f"OK {self.path}: framing intact, "
                f"{self.segments_verified} segment digest(s) verified")


def _iter_segments(form: Dict[str, Any], where: str
                   ) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Every ``(context, segment descriptor)`` of a form, nested included."""
    for name, descriptor in form["segments"].items():
        yield f"{where}, segment {name!r}", descriptor
    for name, sub in form["nested"].items():
        yield from _iter_segments(sub, f"{where}, nested form {name!r}")


def _form_problem(scheme: Dict[str, Any], form: Dict[str, Any]) -> Optional[str]:
    """What the form checks of the kernels and of decompression find in a
    chunk's RLE/RPE, FOR/PFOR, LINEAR/POLY, DICT, DELTA or NS form, nested forms included:
    parameters and constituent lengths, nothing decoded."""
    inner: Dict[str, Any] = {}
    while scheme["kind"] == "cascade":
        inner.update(scheme["inner"])
        scheme = scheme["outer"]
    for name, description in inner.items():
        problem = _form_problem(description, form["nested"][name])
        if problem is not None:
            return f"nested form {name!r}: {problem}"
    parameters, rows = form["parameters"], form["original_length"]

    def length(name: str) -> int:  # a constituent's, stored or nested
        segments = form["segments"]
        return (segments[name]["length"] if name in segments
                else form["nested"][name]["original_length"])

    if scheme["name"] in ("FOR", "PFOR"):
        return FrameOfReference.form_problem(rows, parameters["segment_length"], length("refs"),
                                             parameters.get("offsets_count", rows))
    if scheme["name"] == "DICT":
        packed = parameters.get("codes_layout", "packed") == "packed"
        return DictionaryEncoding.form_problem(rows, parameters.get("count", rows),
                                               parameters["dictionary_size"],
                                               parameters["code_width"], length("codes"), packed)
    if scheme["name"] in ("LINEAR", "POLY"):
        lengths = {name: length(name) for name in [*form["segments"], *form["nested"]]}
        return PiecewisePolynomial.form_problem(rows, parameters["segment_length"],
                                                parameters["degree"], lengths,
                                                parameters.get("offsets_count", rows))
    if scheme["name"] == "DELTA":
        return Delta.form_problem(rows, length("deltas"), parameters.get("base"))
    if scheme["name"] == "NS":
        packed = parameters.get("mode", "packed") == "packed"
        return NullSuppression.form_problem(rows, parameters.get("count"), parameters.get("width"),
                                            length("packed" if packed else "values"), packed)
    if scheme["name"] in ("RLE", "RPE"):
        runs = length("values")
        ends = length("lengths" if scheme["name"] == "RLE" else "run_positions")
        return RunLengthEncoding.form_problem(parameters.get("num_runs", runs), runs, ends)
    return None


def verify_packed_file(path: PathLike) -> VerifyReport:
    """Verify one packed file's framing, footer invariants, descriptor
    documents and every recorded segment digest."""
    path = Path(path)
    report = VerifyReport(path=path)
    try:
        report.format_version, footer_offset, footer_bytes = read_footer(path)
        layouts = check_footer(decode_footer(footer_bytes, path), path, footer_offset)
        with open(path, "rb") as handle:
            data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as error:
        report.problems.append(f"{path}: cannot read file ({error})")
        return report
    except StorageError as error:
        report.problems.append(str(error))
        return report
    with data:
        for layout in layouts:
            for index, row in enumerate(layout.rows):
                where = f"{path}: column {layout.name!r}, chunk @ row {row}"
                try:
                    document = read_descriptor(data, layout.descriptor(index), footer_offset,
                                               layout.counts[index], where)
                    segments = list(_iter_segments(document["form"], where))
                    problem = _form_problem(document["scheme"], document["form"])
                except (KeyError, TypeError, AttributeError, ValueError) as error:
                    report.problems.append(f"{where}: malformed chunk descriptor "
                                           f"({type(error).__name__}: {error})")
                    continue
                except StorageError as error:
                    report.problems.append(str(error))
                    continue
                if problem is not None:
                    report.problems.append(f"{where}: malformed {document['form']['scheme']} "
                                           f"form ({problem})")
                for context, descriptor in segments:
                    report.segments_total += 1
                    problem = byte_range_problem(descriptor, footer_offset)
                    if problem is None:
                        offset, nbytes = descriptor["offset"], descriptor["nbytes"]
                        problem = digest_problem(descriptor, data[offset:offset + nbytes])
                        if problem is not None:
                            problem = (f"failed its integrity check ({problem}, "
                                       f"byte range [{offset}, {offset + nbytes}))")
                    if problem is not None:
                        report.problems.append(f"{context} {problem}")
                    else:
                        report.segments_verified += 1
    return report


def verify_path(path: PathLike) -> List[VerifyReport]:
    """Verify a packed file, or every table of a catalog directory."""
    from .catalog import CATALOG_FILE, Catalog

    path = Path(path)
    if not path.is_dir():
        return [verify_packed_file(path)]
    if not (path / CATALOG_FILE).exists():
        report = VerifyReport(path=path)
        report.problems.append(
            f"{path}: directory is not a catalog (no {CATALOG_FILE})")
        return [report]
    catalog = Catalog(path, create=False)
    return [verify_packed_file(catalog.path_of(name))
            for name in catalog.names()]


def main(argv: Union[List[str], None] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.io.verify",
        description="Verify packed-table framing and per-segment CRC32 "
                    "digests without decompressing any data.")
    parser.add_argument("paths", nargs="+", metavar="PATH",
                        help="packed table file(s) and/or catalog "
                             "director(ies)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="print only problems (still exits nonzero on "
                             "corruption)")
    arguments = parser.parse_args(argv)
    reports: List[VerifyReport] = []
    for path in arguments.paths:
        reports.extend(verify_path(path))
    failed = False
    for report in reports:
        if not arguments.quiet or not report.ok:
            print(report.summary())
        for problem in report.problems:
            failed = True
            print(f"  {problem}")
    if not arguments.quiet:
        intact = sum(report.ok for report in reports)
        print(f"{intact}/{len(reports)} file(s) intact")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
