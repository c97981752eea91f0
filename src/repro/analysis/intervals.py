"""Abstract interpretation of plans: dtypes, value intervals, hazards.

This is the static half of the engine's correctness story: every wrong-result
bug shipped so far (float min/max truncated through an int64 accumulator,
integer sums rounded through float64 above 2**53, uint64 delta wrap,
mis-saturated segment bounds) was a dtype/value-range hazard visible in the
*plan*, before any data ran.  The interpreter walks a
:class:`~repro.columnar.plan.Plan` step by step carrying, per binding,

* the output **dtype** (shared with :meth:`Plan.output_dtype` via
  :mod:`repro.columnar.plan_types` — one source of truth), and
* a conservative **value interval** ``[lo, hi]`` (``None`` bound = unbounded),
  seeded from :class:`~repro.storage.statistics.ColumnStatistics` zone maps
  and scheme form parameters,

and emits a :class:`Finding` whenever a step may overflow or wrap its output
dtype, truncate a float through an integer accumulator, or push integer
magnitudes beyond float64's 2**53 contiguous-integer range.  Findings are
*may*-alarms: they fire only on bounds that are statically known, so an
unbounded interval never produces noise.

:func:`check_optimization` is translation validation for
:mod:`repro.columnar.compile.optimizer`: each rewrite pass must preserve the
inferred output dtype and stay consistent with the inferred interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..columnar import plan_types
from ..columnar.column import Column
from ..columnar.plan import ParamRef, Plan, PlanStep, ScalarAt
from ..storage.statistics import compute_statistics

__all__ = [
    "Interval",
    "Fact",
    "Finding",
    "PlanAnalysis",
    "TOP",
    "entry_fact",
    "entry_facts_from_columns",
    "entry_facts_for_form",
    "analyze_plan",
    "check_optimization",
]

#: Largest integer float64 represents contiguously; beyond it, rounding.
FLOAT64_EXACT_INT = 2 ** 53


# --------------------------------------------------------------------------- #
# The abstract domain
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Interval:
    """A closed value interval; a ``None`` bound means unbounded on that side."""

    lo: Optional[float] = None
    hi: Optional[float] = None

    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    def hull(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def intersects(self, other: "Interval") -> bool:
        if self.lo is not None and other.hi is not None and other.hi < self.lo:
            return False
        if self.hi is not None and other.lo is not None and other.lo > self.hi:
            return False
        return True

    def contains_value(self, value) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else self.lo
        hi = "+inf" if self.hi is None else self.hi
        return f"[{lo}, {hi}]"


TOP = Interval()


@dataclass(frozen=True)
class Fact:
    """What is statically known about one binding."""

    dtype: Optional[np.dtype] = None
    interval: Interval = TOP
    length: Optional[int] = None


@dataclass(frozen=True)
class Finding:
    """One hazard the interpreter (or another analysis) detected.

    *kind* is one of ``"overflow"``, ``"wrap"``, ``"narrowing-cast"``,
    ``"precision-loss"``, ``"translation"`` (plus the kinds other analysis
    modules define).
    """

    kind: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.where}: {self.message}"


@dataclass
class PlanAnalysis:
    """The result of abstractly interpreting one plan."""

    plan: Plan
    facts: Dict[str, Fact] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)

    @property
    def output_fact(self) -> Fact:
        return self.facts.get(self.plan.output, Fact())


# --------------------------------------------------------------------------- #
# Entry facts
# --------------------------------------------------------------------------- #

def entry_fact(dtype=None, lo=None, hi=None, length=None) -> Fact:
    """Build an entry :class:`Fact` for one plan input."""
    return Fact(dtype=np.dtype(dtype) if dtype is not None else None,
                interval=Interval(lo, hi), length=length)


def entry_facts_from_columns(columns: Mapping[str, Column]) -> Dict[str, Fact]:
    """Entry facts from real constituent columns (zone-map min/max + dtype)."""
    facts: Dict[str, Fact] = {}
    for name, column in columns.items():
        if np.issubdtype(column.dtype, np.floating):
            if len(column):
                lo, hi = float(column.values.min()), float(column.values.max())
            else:
                lo = hi = None
            facts[name] = Fact(dtype=column.dtype, interval=Interval(lo, hi),
                               length=len(column))
        else:
            stats = compute_statistics(column)
            facts[name] = Fact(dtype=column.dtype,
                               interval=Interval(stats.minimum, stats.maximum),
                               length=stats.count)
    return facts


def entry_facts_for_form(scheme, form) -> Dict[str, Fact]:
    """Entry facts for *scheme*'s decompression plan over *form*.

    Uses the form's constituent columns (flattened through cascades exactly
    like :meth:`CompressionScheme.plan_inputs`) as the zone-map source.
    """
    return entry_facts_from_columns(scheme.plan_inputs(form))


# --------------------------------------------------------------------------- #
# Interval arithmetic helpers (exact, over optionally-unbounded endpoints)
# --------------------------------------------------------------------------- #

def _add(a, b):
    return None if a is None or b is None else a + b


def _sub(a, b):
    return None if a is None or b is None else a - b


def _mul_candidates(x: Interval, y: Interval) -> Interval:
    candidates = []
    for a in (x.lo, x.hi):
        for b in (y.lo, y.hi):
            if a is None or b is None:
                return TOP
            candidates.append(a * b)
    return Interval(min(candidates), max(candidates))


def _floordiv(x: Interval, y: Interval) -> Interval:
    # Only the easy, common case: a strictly positive divisor.
    if y.lo is None or y.lo <= 0:
        return TOP
    if x.lo is None or x.hi is None or y.hi is None:
        lo = None if x.lo is None else (x.lo // y.lo if x.lo < 0 else 0)
        return Interval(lo, None if x.hi is None else x.hi // y.lo)
    candidates = [a // b for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    return Interval(min(candidates), max(candidates))


def _mod(x: Interval, y: Interval) -> Interval:
    if y.hi is None or y.lo is None or y.lo <= 0:
        return TOP
    if x.lo is not None and x.lo >= 0:
        hi = y.hi - 1 if x.hi is None else min(x.hi, y.hi - 1)
        return Interval(0, hi)
    return Interval(-(y.hi - 1), y.hi - 1)


def _interval_of_scalar(value) -> Interval:
    if isinstance(value, (bool, np.bool_)):
        return Interval(int(value), int(value))
    if isinstance(value, (int, np.integer, float, np.floating)):
        v = value.item() if isinstance(value, np.generic) else value
        return Interval(v, v)
    return TOP


def _binary_interval(op: str, x: Interval, y: Interval) -> Interval:
    if op == "+":
        return Interval(_add(x.lo, y.lo), _add(x.hi, y.hi))
    if op == "-":
        return Interval(_sub(x.lo, y.hi), _sub(x.hi, y.lo))
    if op == "*":
        return _mul_candidates(x, y)
    if op in ("//", "div"):
        return _floordiv(x, y)
    if op == "%":
        return _mod(x, y)
    if op in ("min", "max"):
        pick = min if op == "min" else max
        return Interval(None if x.lo is None or y.lo is None else pick(x.lo, y.lo),
                        None if x.hi is None or y.hi is None else pick(x.hi, y.hi))
    if op in ("==", "!=", "<", "<=", ">", ">="):
        return Interval(0, 1)
    if op == "&":
        if _nonneg(x) and _nonneg(y):
            hi = None if x.hi is None or y.hi is None else min(x.hi, y.hi)
            return Interval(0, hi)
        return TOP
    if op in ("|", "^"):
        if _nonneg(x) and _nonneg(y) and x.hi is not None and y.hi is not None:
            bits = max(int(x.hi).bit_length(), int(y.hi).bit_length())
            return Interval(0, (1 << bits) - 1)
        return TOP
    if op == "<<":
        if _nonneg(x) and _nonneg(y) and x.hi is not None and y.hi is not None:
            return Interval(0, int(x.hi) << int(y.hi))
        return TOP
    if op == ">>":
        if _nonneg(x) and _nonneg(y):
            lo = 0 if x.lo is None or y.hi is None else int(x.lo) >> int(y.hi)
            hi = None if x.hi is None else (
                int(x.hi) if y.lo is None else int(x.hi) >> int(y.lo))
            return Interval(lo, hi)
        return TOP
    return TOP


def _nonneg(x: Interval) -> bool:
    return x.lo is not None and x.lo >= 0


def _unpacked_interval(width: Any) -> Interval:
    """What ``UnpackBits`` at *width* (an int, or unknown) can produce."""
    if isinstance(width, (int, np.integer)) and int(width) < 64:
        return Interval(0, (1 << int(width)) - 1)
    return Interval(0, None)


def _zigzag_decode_interval(x: Interval) -> Interval:
    if x.hi is None:
        return TOP
    hi = int(x.hi)
    return Interval(-((hi + 1) // 2), hi // 2)


def _unary_interval(op: str, x: Interval) -> Interval:
    if op == "neg":
        return Interval(None if x.hi is None else -x.hi,
                        None if x.lo is None else -x.lo)
    if op == "abs":
        if x.lo is None or x.hi is None:
            return Interval(0, None)
        return Interval(0 if x.lo <= 0 <= x.hi else min(abs(x.lo), abs(x.hi)),
                        max(abs(x.lo), abs(x.hi)))
    if op == "not":
        return Interval(0, 1)
    if op == "sign":
        return Interval(-1, 1)
    if op == "round":
        # np.rint then cast to int64: bounds round to nearest.
        lo = None if x.lo is None else int(np.rint(x.lo))
        hi = None if x.hi is None else int(np.rint(x.hi))
        return Interval(lo, hi)
    if op == "zigzag":
        return _zigzag_decode_interval(x)
    return TOP


# --------------------------------------------------------------------------- #
# Dtype-range hazards
# --------------------------------------------------------------------------- #

def _dtype_range(dtype: np.dtype) -> Optional[Interval]:
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return Interval(int(info.min), int(info.max))
    return None


def _clamp_to_dtype(interval: Interval, dtype: Optional[np.dtype]) -> Interval:
    if dtype is None:
        return interval
    bounds = _dtype_range(dtype)
    if bounds is None:
        return interval
    lo = bounds.lo if interval.lo is None else max(interval.lo, bounds.lo)
    hi = bounds.hi if interval.hi is None else min(interval.hi, bounds.hi)
    if lo > hi:  # fully out of range after a flagged overflow: give up
        return Interval(bounds.lo, bounds.hi)
    return Interval(lo, hi)


def _exceeds(interval: Interval, bounds: Interval) -> bool:
    """Whether *interval* provably reaches outside *bounds* (known ends only)."""
    if interval.lo is not None and bounds.lo is not None and interval.lo < bounds.lo:
        return True
    if interval.hi is not None and bounds.hi is not None and interval.hi > bounds.hi:
        return True
    return False


def _magnitude_beyond(interval: Interval, limit: int) -> bool:
    return ((interval.lo is not None and abs(interval.lo) > limit)
            or (interval.hi is not None and abs(interval.hi) > limit))


# --------------------------------------------------------------------------- #
# The abstract interpreter
# --------------------------------------------------------------------------- #

def _operand(key: str, step: PlanStep, facts: Mapping[str, Fact]
             ) -> Tuple[Interval, Optional[np.dtype]]:
    """Interval + dtype of an Elementwise operand (column input or scalar)."""
    binding = step.column_inputs.get(key)
    if binding is not None:
        fact = facts.get(binding, Fact())
        return fact.interval, fact.dtype
    value = step.params.get(key)
    return (TOP, None) if isinstance(value, ParamRef) else _scalar_fact(value)


def _scalar_fact(value: Any) -> Tuple[Interval, Optional[np.dtype]]:
    dtype = None
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        dtype = np.dtype(np.int64)
    elif isinstance(value, (float, np.floating)):
        dtype = np.dtype(np.float64)
    return _interval_of_scalar(value), dtype


def _prefix_sum_interval(x: Interval, n: Optional[int], initial: Interval = Interval(0, 0)
                         ) -> Interval:
    """Bounds of running sums of *n* values from *x*, each plus a value of
    *initial*: the partial sums (the empty one included) lie in ``[min(0,
    n·lo), max(0, n·hi)]``, and an interval sum is sound for any of them."""
    lo = 0 if x.lo is not None and x.lo >= 0 else (
        None if x.lo is None or n is None else min(0, n * x.lo))
    hi = 0 if x.hi is not None and x.hi <= 0 else (
        None if x.hi is None or n is None else max(0, n * x.hi))
    return Interval(_add(initial.lo, lo), _add(initial.hi, hi))


def _steps_read_back(plan: Plan) -> Iterator[Tuple[PlanStep, PlanStep]]:
    """``(plan step, step)`` for every step *plan* computes: a fused step's
    are the steps it fused (:func:`~repro.columnar.plan_types.fused_steps`)."""
    for site in plan.steps:
        for step in plan_types.fused_steps(site) if site.op == "FusedElementwise" else (site,):
            yield site, step


def analyze_plan(plan: Plan, entry_facts: Mapping[str, Fact]) -> PlanAnalysis:
    """Abstractly interpret *plan* from *entry_facts*, collecting hazards.

    Plan inputs missing from *entry_facts* get an unknown fact (top interval,
    unknown dtype); unknown never produces a finding.
    """
    analysis = PlanAnalysis(plan=plan)
    facts = analysis.facts
    for name in plan.inputs:
        facts[name] = entry_facts.get(name, Fact())

    def warn(kind: str, message: str) -> None:
        # Named after the plan's step: one inside a fused chain, after the fused step.
        analysis.findings.append(Finding(kind, f"{site.output} <- {site.op}", message))

    def within_dtype(dtype, interval, what: str, advice: str = "") -> Interval:
        """*interval* clamped to an integer *dtype*'s range, with an overflow
        finding when it provably reaches outside it."""
        bounds = _dtype_range(dtype) if dtype is not None else None
        if bounds is None or not _exceeds(interval, bounds):
            return interval
        warn("overflow",
             f"{what} {interval} exceeds the {dtype} range {bounds}{advice}")
        return _clamp_to_dtype(interval, dtype)

    def check_binary(op, dtype, interval, left, right) -> Interval:
        """An Elementwise step's hazard checks; returns the interval clamped
        to the result dtype."""
        (xi, xd), (yi, yd) = left, right
        if dtype is not None and np.issubdtype(dtype, np.floating):
            for side in (xi, yi):
                if _magnitude_beyond(side, FLOAT64_EXACT_INT):
                    warn("precision-loss",
                         f"integer operand of {op!r} may exceed 2**53 "
                         f"({side}) but the result is {dtype} — integer "
                         "sums/products routed through float64 round")
                    break
            if (xd is not None and yd is not None
                    and np.issubdtype(xd, np.integer) and np.issubdtype(yd, np.integer)):
                warn("precision-loss",
                     f"mixing {xd} and {yd} promotes {op!r} to float64 "
                     "(NumPy result_type) — values above 2**53 lose exactness")
            return interval
        if dtype is not None and np.issubdtype(dtype, np.unsignedinteger):
            if interval.lo is not None and interval.lo < 0:
                warn("wrap",
                     f"{op!r} over {dtype} may produce negative values "
                     f"({interval}) that wrap modulo 2**{np.iinfo(dtype).bits}")
                return Interval(0, None)
        return within_dtype(dtype, interval, f"{op!r} result interval")

    for site, step in _steps_read_back(plan):
        dtype = plan_types.step_output_dtype(
            step, {b: facts.get(b, Fact()).dtype for b in step.column_inputs.values()})
        op = step.op
        params = step.params
        interval = TOP
        length = plan_types.step_output_length(
            step, {b: facts.get(b, Fact()).length for b in step.dependencies()})
        source = facts.get(step.column_inputs.get("col", ""), Fact())

        if op == "Zeros":
            interval = Interval(0, 0)
        elif op == "Ones":
            interval = Interval(1, 1)
        elif op == "Constant":
            interval = _interval_of_scalar(params.get("value"))
        elif op == "Iota":
            start = params.get("start", 0)
            stride = params.get("step", 1)
            if isinstance(start, (int, np.integer)) and isinstance(stride, (int, np.integer)):
                if length is not None and length > 0:
                    last = int(start) + int(stride) * (length - 1)
                    interval = Interval(min(int(start), last), max(int(start), last))
                elif int(stride) >= 0:
                    interval = Interval(int(start), None)
                else:
                    interval = Interval(None, int(start))
        elif op in ("PrefixSum", "ExclusivePrefixSum"):
            # a ScalarAt initial (DELTA's base) is some value of its binding
            initial = params.get("initial", 0)
            initial = (facts.get(initial.binding, Fact()).interval
                       if isinstance(initial, ScalarAt) else _interval_of_scalar(initial))
            if source.dtype is not None and dtype is not None:
                if (np.issubdtype(source.dtype, np.floating)
                        and np.issubdtype(dtype, np.integer)):
                    warn("narrowing-cast",
                         f"accumulating {source.dtype} values in a {dtype} "
                         "accumulator truncates fractional parts")
            interval = within_dtype(dtype, _prefix_sum_interval(
                source.interval, source.length, initial=initial), "running sum interval")
        elif op in ("PopBack", "Compact", "Min", "Max", "RunValues"):
            interval = source.interval
        elif op == "AdjacentDifference":
            x = source.interval
            interval = Interval(_sub(x.lo, x.hi), _sub(x.hi, x.lo))
            if dtype is not None and np.issubdtype(dtype, np.unsignedinteger):
                singleton = (x.lo is not None and x.lo == x.hi)
                if not singleton:
                    warn("wrap",
                         f"adjacent differences of {source.dtype} values in "
                         f"{x} can be negative and wrap modulo 2**64 "
                         "(unsigned subtract)")
                    interval = Interval(0, None)
        elif op == "Cast":
            interval = source.interval
            if (dtype is not None and source.dtype is not None
                    and np.issubdtype(dtype, np.integer)
                    and np.issubdtype(source.dtype, np.floating)):
                warn("narrowing-cast",
                     f"cast from {source.dtype} to {dtype} truncates "
                     "fractional values")
        elif op == "PushFront":
            interval = source.interval.hull(_interval_of_scalar(params.get("value")))
        elif op in ("Repeat", "Replicate", "Gather"):
            interval = facts.get(step.column_inputs.get("values", ""), Fact()).interval
        elif op == "Scatter":
            values = facts.get(step.column_inputs.get("values", ""), Fact())
            base = facts.get(step.column_inputs.get("base", ""), Fact())
            interval = values.interval.hull(base.interval)
        elif op == "Elementwise":
            operation = params.get("op", "+")
            left, right = _operand("left", step, facts), _operand("right", step, facts)
            interval = _binary_interval(operation, left[0], right[0])
            interval = check_binary(operation, dtype, interval, left, right)
        elif op == "ElementwiseUnary":
            source = facts.get(step.column_inputs.get("operand", ""), Fact())
            interval = _unary_interval(params.get("op", "abs"), source.interval)
        elif op == "ZigZagDecode":
            interval = _zigzag_decode_interval(source.interval)
        elif op == "ZigZagEncode":
            x = source.interval
            if x.lo is not None and x.hi is not None:
                interval = Interval(0, 2 * max(abs(int(x.lo)), abs(int(x.hi))))
            else:
                interval = Interval(0, None)
        elif op == "UnpackBits":
            width = params.get("width")
            interval = within_dtype(
                dtype, _unpacked_interval(width), f"unpacked width-{width} values",
                " — width >= 63 offsets must stay in an unsigned or widened domain")
        elif op in ("PackBits", "VarWidthUnpack", "Count", "CountTrue", "RunLengths",
                    "RunEndPositions", "SearchSorted"):
            interval = Interval(0, None)
        elif op in ("Between", "IsIn", "MaskAnd", "MaskOr",
                    "MaskNot", "RunStartsMask"):
            interval = Interval(0, 1)

        # Narrowing check for any explicitly-cast integer target whose
        # incoming interval is known not to fit (e.g. an int32 dtype param).
        if (dtype is not None and np.issubdtype(dtype, np.integer)
                and not interval.is_top()):
            bounds = _dtype_range(dtype)
            if bounds is not None and _exceeds(interval, bounds):
                if not any(f.where.startswith(f"{site.output} <- ")
                           for f in analysis.findings):
                    warn("narrowing-cast",
                         f"value interval {interval} does not fit the "
                         f"declared {dtype} output")
                interval = _clamp_to_dtype(interval, dtype)

        facts[step.output] = Fact(dtype=dtype, interval=interval, length=length)

    for register in set(facts) - set(plan.bindings_defined()):  # inside a fused chain
        del facts[register]
    return analysis


# --------------------------------------------------------------------------- #
# Translation validation for the optimizer
# --------------------------------------------------------------------------- #

def check_optimization(plan: Plan, entry_facts: Mapping[str, Fact],
                       passes: Optional[Sequence[Any]] = None) -> List[Finding]:
    """Validate that each rewrite pass preserves the inferred output fact.

    Runs the abstract interpreter before and after every optimizer pass and
    reports a ``"translation"`` finding when a pass changes the inferred
    output dtype, or yields an interval inconsistent with the previous one
    (disjoint, or a changed exact value).  An abstract-precision change
    (wider/narrower but overlapping interval) is not a finding.
    """
    from ..columnar.compile.optimizer import DEFAULT_PASSES

    findings: List[Finding] = []
    current = plan
    fact = analyze_plan(current, entry_facts).output_fact
    for rewrite in (passes if passes is not None else DEFAULT_PASSES):
        rewritten = rewrite(current)
        after = analyze_plan(rewritten, entry_facts).output_fact
        where = f"{getattr(rewrite, '__name__', str(rewrite))}"
        if fact.dtype is not None and after.dtype is not None \
                and fact.dtype != after.dtype:
            findings.append(Finding(
                "translation", where,
                f"pass changed the inferred output dtype "
                f"{fact.dtype} -> {after.dtype} ({plan.description!r})"))
        if not fact.interval.intersects(after.interval):
            findings.append(Finding(
                "translation", where,
                f"pass produced a disjoint output interval "
                f"{fact.interval} -> {after.interval} ({plan.description!r})"))
        exact_before = (fact.interval.lo is not None
                        and fact.interval.lo == fact.interval.hi)
        exact_after = (after.interval.lo is not None
                       and after.interval.lo == after.interval.hi)
        if exact_before and exact_after and fact.interval.lo != after.interval.lo:
            findings.append(Finding(
                "translation", where,
                f"pass changed the exact output value "
                f"{fact.interval} -> {after.interval} ({plan.description!r})"))
        current, fact = rewritten, after
    return findings
