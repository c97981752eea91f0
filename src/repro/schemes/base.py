"""Base classes of the compression-scheme layer.

The paper's "columnar view" of compression is that a compressed column *is
just a bundle of plainer columns plus a few scalar parameters* — no block
headers, no padding, no storage adornments (those belong to the storage
layer, :mod:`repro.storage`).  :class:`CompressedForm` is that bundle, and
:class:`CompressionScheme` is the interface every scheme implements:

* ``compress(column) -> CompressedForm``
* ``decompression_plan(form) -> Plan`` — decompression *as data*, expressed
  in the columnar operator algebra;
* ``decompress(form) -> Column`` — by definition, evaluating that plan.  The
  default implementation executes the plan's *compiled* form (optimized and
  cached by scheme signature, see :mod:`repro.columnar.compile`);
  ``decompress_interpreted`` keeps the plain interpreted evaluation as the
  baseline and the oracle the compiled path is checked against.

Lossy "model" schemes (the step-function model of §II-B, the piecewise
linear/polynomial enrichments) set ``is_lossless = False`` and additionally
report the reconstruction error of their approximation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..columnar.column import Column
from ..columnar.compile import compiled_plan_for_scheme, freeze_value
from ..columnar.compile.executor import CompiledPlan, lightest_step_weight
from ..columnar.plan import Plan
from ..columnar.profile import ColumnProfile
from ..errors import CompressionError, DecompressionError, OperatorError


#: Domains of declared scalars (:attr:`CompressionScheme.scalars`): an integer
#: kind is a ``range``, any other the tuple of the values it allows.
WIDTH = range(1, 65)
POSITIVE = range(1, 2**63)
INT64 = range(-(2**63), 2**63)
BOOL = (False, True)
LAYOUTS = ("packed", "aligned")


def stream_problem(rows: int, width: int, stored: int, packed: bool) -> Optional[str]:
    """What is wrong with a stream of *width*-bit values that stands for
    *rows* rows, one each (``None``: nothing): *stored* is the packed
    buffer's bytes, exactly as many as the rows' bits fill, or the aligned
    values' count.  NS's values, DICT's codes and residual offsets are held
    to it."""
    if packed and stored != -(-rows * width // 8):
        return f"packed buffer holds {8 * stored} bits, needs {rows * width}"
    if not packed and stored != rows:
        return f"{stored} aligned values for {rows} rows"
    return None


@dataclass
class CompressedForm:
    """A compressed column: named constituent columns plus scalar parameters.

    Attributes
    ----------
    scheme:
        The ``name`` of the scheme that produced this form.
    columns:
        The constituent columns, keyed by their role (e.g. ``"lengths"`` and
        ``"values"`` for RLE).  These are *pure* columns, in the paper's
        sense.
    parameters:
        Scalar parameters needed for decompression (segment length, bit
        width, layout, ...): exactly those the scheme declares
        (:attr:`CompressionScheme.scalars`), never a length a constituent
        or ``original_length`` already states.
    original_length:
        Length of the uncompressed column.
    original_dtype:
        Dtype of the uncompressed column (decompression restores it).
    nested:
        For composite schemes: the compressed forms of constituents that were
        themselves compressed, keyed by constituent name.  A constituent
        appears either in ``columns`` or in ``nested``, never both.
    """

    scheme: str
    columns: Dict[str, Column]
    parameters: Dict[str, Any] = field(default_factory=dict)
    original_length: int = 0
    original_dtype: Any = np.int64
    nested: Dict[str, "CompressedForm"] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Derived-artifact memoisation
    # ------------------------------------------------------------------ #

    def cached(self, key: Any, factory) -> Any:
        """Return the memoised derived artifact *key*, computing it on demand.

        Compressed-domain execution derives small artifacts from a form —
        run end positions (a prefix sum over RLE lengths), per-segment value
        bounds, the resolved outer form of a cascade — and a multi-conjunct
        scan would otherwise recompute them once per predicate.  They are
        cached on the form itself, which is treated as immutable after
        construction (like its parameters).

        The benign race between callers' threads scanning the same form is
        resolved by ``setdefault``: two threads may compute the same
        artifact, but every caller observes a single winning value.
        """
        derived = self.__dict__.get("_derived")
        if derived is None:
            derived = self.__dict__.setdefault("_derived", {})
        try:
            return derived[key]
        except KeyError:
            return derived.setdefault(key, factory())

    # ------------------------------------------------------------------ #
    # Access helpers
    # ------------------------------------------------------------------ #

    def constituent(self, name: str) -> Column:
        """Return the constituent column *name* (raises if absent)."""
        try:
            return self.columns[name]
        except KeyError:
            raise DecompressionError(
                f"compressed form of {self.scheme!r} has no constituent {name!r}; "
                f"present: {sorted(self.columns)}"
            ) from None

    def constituent_length(self, name: str) -> int:
        """Constituent *name*'s length, stored or nested (the nested form's
        decoded length), read without decoding anything."""
        nested = self.nested.get(name)
        return len(self.constituent(name)) if nested is None else nested.original_length

    def refuse(self, problem: Optional[str]) -> None:
        """Raise :class:`~repro.errors.OperatorError` for the *problem* a form
        check found, if it found one."""
        if problem is not None:
            raise OperatorError(f"malformed {self.scheme} form: {problem}")

    def constituent_names(self) -> Tuple[str, ...]:
        """Names of all constituents (plain and nested), sorted."""
        return tuple(sorted(set(self.columns) | set(self.nested)))

    def frozen_parameters(self) -> Any:
        """The scalar parameters as a hashable structure (memoised).

        Used as half of the compiled-plan cache key; parameters are treated
        as immutable once the form is built.
        """
        frozen = self.__dict__.get("_frozen_parameters")
        if frozen is None:
            frozen = freeze_value(self.parameters)
            self.__dict__["_frozen_parameters"] = frozen
        return frozen

    def with_constituent(self, name: str, column: Column) -> "CompressedForm":
        """Return a copy of the form with constituent *name* replaced."""
        columns = dict(self.columns)
        columns[name] = column
        return CompressedForm(
            scheme=self.scheme,
            columns=columns,
            parameters=dict(self.parameters),
            original_length=self.original_length,
            original_dtype=self.original_dtype,
            nested=dict(self.nested),
        )

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #

    def compressed_size_bytes(self) -> int:
        """Total physical size of all constituent columns, in bytes.

        Nested (re-compressed) constituents contribute the size of *their*
        compressed form.  Scalar parameters are not counted: the paper's
        "pure columns" view places them with the schema, and they are O(1)
        per column anyway.
        """
        size = sum(col.nbytes for col in self.columns.values())
        size += sum(sub.compressed_size_bytes() for sub in self.nested.values())
        return int(size)

    def uncompressed_size_bytes(self) -> int:
        """Size the column occupies uncompressed (original dtype × length)."""
        return int(self.original_length * np.dtype(self.original_dtype).itemsize)

    def compression_ratio(self) -> float:
        """Uncompressed size divided by compressed size (higher is better)."""
        compressed = self.compressed_size_bytes()
        if compressed == 0:
            return float("inf") if self.original_length else 1.0
        return self.uncompressed_size_bytes() / compressed

    def bits_per_value(self) -> float:
        """Average compressed bits spent per uncompressed value."""
        if self.original_length == 0:
            return 0.0
        return 8.0 * self.compressed_size_bytes() / self.original_length

    def summary(self) -> str:
        """One-line human-readable summary (scheme, sizes, ratio)."""
        return (
            f"{self.scheme}: {self.uncompressed_size_bytes()} B -> "
            f"{self.compressed_size_bytes()} B "
            f"(ratio {self.compression_ratio():.2f}x, "
            f"{self.bits_per_value():.2f} bits/value)"
        )


class CompressionScheme(abc.ABC):
    """Interface implemented by every compression scheme.

    Subclasses set :attr:`name` and implement :meth:`compress` and
    :meth:`decompression_plan`; everything else has sensible defaults.
    """

    #: Registry name of the scheme (e.g. ``"RLE"``); subclasses override.
    name: str = "ABSTRACT"

    #: Whether decompression reproduces the input exactly.  Model schemes
    #: (step function, piecewise linear, ...) are lossy by themselves; they
    #: only become lossless when composed with a residual scheme.
    is_lossless: bool = True

    #: Whether :meth:`decompression_plan` varies with the compressed form's
    #: parameters or rows.  Schemes whose plan is one fixed operator sequence
    #: (RLE, RPE, DELTA, ID) set this False, so every form — e.g. every chunk
    #: of a stored column — shares a single compiled plan.
    plan_depends_on_form: bool = True

    #: The scalar parameters every form of this scheme carries, each declared
    #: once with its domain (:data:`WIDTH`, :data:`POSITIVE`, :data:`INT64`,
    #: :data:`BOOL` or a tuple of strings); a subclass inherits its parent's.
    scalars: Dict[str, Any] = {}

    #: Whether every decompression plan computes its output in a step (is
    #: never a stored constituent passed through): its cost floor is then
    #: one write per value.
    computes_output: bool = False

    #: Constituents the decompression plan reads through a scan, which no
    #: rewrite fuses into: an inner scheme's steps restoring one stay its own,
    #: so a cascade adds that inner's cost floor to its outer's.
    scanned_constituents: Tuple[str, ...] = ()

    # ------------------------------------------------------------------ #
    # Mandatory interface
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def compress(self, column: Column) -> CompressedForm:
        """Compress *column* into a :class:`CompressedForm`."""

    @abc.abstractmethod
    def decompression_plan(self, form: CompressedForm) -> Plan:
        """Return the columnar-operator plan that decompresses *form*.

        The plan's inputs are (a subset of) the form's constituent names;
        evaluating it with those columns yields the decompressed data.
        """

    # ------------------------------------------------------------------ #
    # Defaults
    # ------------------------------------------------------------------ #

    def decompress(self, form: CompressedForm) -> Column:
        """Decompress by executing the *compiled* decompression plan.

        :meth:`decompression_plan` remains the uncompiled specification;
        this default routes it through :mod:`repro.columnar.compile`, so the
        plan is optimized once and the compiled artifact is shared by every
        form with the same scheme signature (e.g. all chunks of a stored
        column).  The output is cast back to the original dtype.  An empty
        column decompresses to an empty column without running the plan
        (plans read e.g. ``run_positions[-1]``, which an empty form lacks).
        """
        self._check_form(form)
        if form.original_length == 0:
            return Column.empty(form.original_dtype)
        inputs = self.plan_inputs(form)  # checks the form, as a cascade's nested ones
        result = self.compiled_decompression_plan(form).run(inputs)
        return self._restore(result, form)

    def decompress_interpreted(self, form: CompressedForm) -> Column:
        """Decompress by rebuilding and interpreting the plan (no compilation).

        This is the pre-compiler execution path, kept as the baseline the
        benchmarks compare the compiled path against and as a correctness
        cross-check: it must always agree with :meth:`decompress`.
        """
        self._check_form(form)
        inputs = self.plan_inputs(form)
        result = self.decompression_plan(form).evaluate_detailed(inputs).output
        return self._restore(result, form)

    def compiled_decompression_plan(self, form: CompressedForm) -> CompiledPlan:
        """The cached compiled plan that :meth:`decompress` executes."""
        return compiled_plan_for_scheme(self, form)

    def plan_key_parameters(self) -> Dict[str, Any]:
        """The scheme configuration its decompression plan depends on.

        Defaults to :meth:`parameters`; schemes with plan-shaping knobs not
        reported there (e.g. FOR's ``faithful_plan``) override this so the
        compiled-plan cache keys on them too.
        """
        return self.parameters()

    def plan_cache_key(self, form: CompressedForm) -> Optional[Tuple[Any, ...]]:
        """Structural cache key for the compiled decompression plan, or ``None``.

        The default captures everything the plans in this library depend on:
        the scheme class, its plan-relevant configuration, and the form's
        scalar parameters and rows.  A scheme whose plan depends on anything else
        (e.g. the constituent data itself) must override this — returning
        ``None`` disables scheme-level caching and falls back to caching by
        plan structural signature.

        Both frozen halves are memoised (scheme configuration on the scheme
        instance, form parameters on the form) so the per-decompression key
        cost is one tuple construction; schemes and form parameters are
        treated as immutable after construction, as everywhere else in the
        library.
        """
        try:
            prefix = self.__dict__.get("_plan_key_prefix")
            if prefix is None:
                prefix = (type(self).__qualname__,
                          freeze_value(self.plan_key_parameters()))
                self.__dict__["_plan_key_prefix"] = prefix
            frozen = ((form.frozen_parameters(), form.original_length)
                      if self.plan_depends_on_form else ())
            return prefix + (form.scheme, frozen)
        except TypeError:  # unhashable configuration -> fall back to
            return None    # plan-signature caching; real bugs propagate

    def plan_inputs(self, form: CompressedForm) -> Dict[str, Column]:
        """The columns to bind when evaluating the decompression plan, once
        the form passes :meth:`check`.

        By default every plain constituent is bound under its own name.
        Composite schemes override this to splice nested forms.
        """
        self.check(form)
        return dict(form.columns)

    @classmethod
    def form_problem(cls, parameters: Dict[str, Any], lengths: Dict[str, int],
                     rows: int) -> Optional[str]:
        """What is wrong with a form of this scheme (``None``: nothing), from
        its scalar *parameters*, the *lengths* of its constituents by name
        (stored or nested, :meth:`CompressedForm.constituent_length`; an
        absent one has none) and its *rows*: nothing is decoded.  The
        declared scalars first (:meth:`scalar_problem`), then, once each is
        known to be in its domain, the scheme's :meth:`shape_problem`.  Both
        decompress paths, the kernels and ``repro.io.verify`` ask here."""
        return cls.scalar_problem(parameters) or cls.shape_problem(parameters, lengths, rows)

    @classmethod
    def scalar_problem(cls, parameters: Dict[str, Any]) -> Optional[str]:
        """What is wrong with *parameters* against :attr:`scalars`: each
        declared one present, an ``int`` (not a bool) in an integer
        ``range`` or of its tuple's type, inside its domain — and no other."""
        for name, domain in cls.scalars.items():
            if name not in parameters:
                return f"{name} is missing"
            value = parameters[name]
            kind = int if type(domain) is range else type(domain[0])
            if type(value) is not kind or value not in domain:
                return f"{name} {value!r} is not in {domain}"
        if len(parameters) > len(cls.scalars):
            return f"undeclared parameter {next(n for n in parameters if n not in cls.scalars)!r}"
        return None

    @staticmethod
    def shape_problem(parameters: Dict[str, Any], lengths: Dict[str, int],
                      rows: int) -> Optional[str]:
        """What is wrong with the constituent *lengths* against the *rows* and
        the declared *parameters*, which :meth:`scalar_problem` passed."""
        return None

    def value_problem(self, form: CompressedForm) -> Optional[str]:
        """What is wrong with a value that a fast path trusts without decoding,
        in *form*'s plainly stored constituents (``None``: nothing)."""
        return None

    def check(self, form: CompressedForm) -> None:
        """Raise :class:`~repro.errors.OperatorError` for what
        :meth:`form_problem`, then :meth:`value_problem`, finds wrong with
        *form*.  The verdict is memoised on the form: a later call is one
        lookup."""
        def problem() -> Optional[str]:
            lengths = {name: form.constituent_length(name) for name in form.constituent_names()}
            return (self.form_problem(form.parameters, lengths, form.original_length)
                    or self.value_problem(form))

        form.refuse(form.cached("form_problem", problem))

    def plan_lengths(self, form: CompressedForm) -> Dict[str, int]:
        """The lengths the form fixes for bindings of the decompression plan:
        its inputs' (a composite adds every nested form's decoded output's)."""
        return {name: len(column) for name, column in self.plan_inputs(form).items()}

    def validate(self, column: Column) -> None:
        """Raise :class:`CompressionError` when *column* cannot be compressed.

        The default accepts any integer column; schemes with further
        requirements (non-negative data, sortedness, ...) override.
        """
        if not np.issubdtype(column.dtype, np.integer):
            raise CompressionError(
                f"{self.name} compresses integer columns; got dtype {column.dtype}"
            )

    def expected_constituents(self) -> Tuple[str, ...]:
        """Names of the constituent columns :meth:`compress` produces."""
        return ()

    def constituent_profiles(self, profile: ColumnProfile) -> Optional[Dict[str, ColumnProfile]]:
        """The profile of every constituent :meth:`compress` would store,
        derived from the input's *profile*; ``None`` when the scheme cannot
        say.  A cascade bounds its inner schemes through these."""
        return None

    def stored_bytes_bound(self, profile: ColumnProfile) -> int:
        """A sound lower bound on ``compress(column).compressed_size_bytes()``
        computed from the column's *profile*, without compressing.

        ``0`` means "cannot say": the advisor then always trials the scheme.
        A scheme that describes its constituents is exactly as large as they
        are; the others state their bound beside their ``compress``.
        """
        parts = self.constituent_profiles(profile)
        return sum(part.values.nbytes for part in parts.values()) if parts else 0

    def decompression_cost_floor(self, profile: ColumnProfile) -> float:
        """A sound lower bound on the advisor's decompression cost per value
        (:func:`repro.planner.decompression_cost`) of a column with this
        *profile*, without compressing: every value a step must touch, at
        the lightest weight a step carries.  ``0.0`` means "cannot say"."""
        return lightest_step_weight() if self.computes_output else 0.0

    def parameters(self) -> Dict[str, Any]:
        """The scheme's own configuration parameters (for reporting/registry)."""
        return {}

    def describe(self) -> str:
        """Human-readable one-liner, including configuration."""
        params = ", ".join(f"{k}={v}" for k, v in self.parameters().items())
        return f"{self.name}({params})" if params else self.name

    # ------------------------------------------------------------------ #
    # Shared helpers for subclasses
    # ------------------------------------------------------------------ #

    def _check_form(self, form: CompressedForm) -> None:
        if form.scheme != self.name:
            raise DecompressionError(
                f"form was produced by scheme {form.scheme!r}, "
                f"but {self.name!r} was asked to decompress it"
            )

    def _restore(self, column: Column, form: CompressedForm) -> Column:
        """Cast the decompressed values back to the original dtype and length-check."""
        if len(column) != form.original_length:
            raise DecompressionError(
                f"{self.name}: decompression produced {len(column)} values, "
                f"expected {form.original_length}"
            )
        if column.dtype != np.dtype(form.original_dtype):
            column = column.astype(form.original_dtype)
        return column

    def _empty_form(self, column: Column, **parameters: Any) -> CompressedForm:
        """A form for an empty input column (all schemes share this shape)."""
        return CompressedForm(
            scheme=self.name,
            columns={name: Column.empty(np.int64, name=name)
                     for name in self.expected_constituents()},
            parameters=dict(parameters),
            original_length=0,
            original_dtype=column.dtype,
        )

    # ------------------------------------------------------------------ #
    # Round-trip convenience
    # ------------------------------------------------------------------ #

    def roundtrip(self, column: Column) -> Column:
        """Compress then decompress (used heavily by tests)."""
        return self.decompress(self.compress(column))

    def compression_ratio(self, column: Column) -> float:
        """Compression ratio achieved on *column*."""
        return self.compress(column).compression_ratio()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()}>"


def ensure_lossless_roundtrip(scheme: CompressionScheme, column: Column) -> CompressedForm:
    """Compress *column* and verify the round trip, returning the form.

    A convenience for callers (storage layer, advisor) that must never
    silently corrupt data: the cost of the extra decompression is accepted
    in exchange for the guarantee.
    """
    form = scheme.compress(column)
    if scheme.is_lossless:
        restored = scheme.decompress(form)
        if not restored.equals(column):
            raise CompressionError(
                f"{scheme.describe()} failed to round-trip a column of length {len(column)}"
            )
    return form
