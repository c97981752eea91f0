"""Scheme composition: the ∘ operator of the paper.

Two flavours of composition appear in the paper:

* the **motivating example** of §I — apply RLE to a date column, then apply
  DELTA *to the run values* — i.e. re-compress one or more constituent
  columns of a compressed form with further schemes;
* the **decomposition identities** of §II — e.g.
  ``RLE ≡ (ID for values, DELTA for run_positions) ∘ RPE`` — which read an
  existing scheme as exactly such a composition.

:class:`Cascade` implements the general form: an *outer* scheme plus a
mapping from constituent names to *inner* schemes.  Compression applies the
outer scheme and then compresses the selected constituents; decompression
splices the inner decompression plans in front of the outer plan, so the
whole composite still decompresses as one flat sequence of columnar
operators — which is the paper's point.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

import numpy as np

from ..columnar.column import Column
from ..columnar.plan import Plan, PlanStep
from ..errors import DecompressionError, SchemeParameterError
from .base import CompressedForm, CompressionScheme
from .identity import Identity


def _is_identity(scheme: CompressionScheme) -> bool:
    return isinstance(scheme, Identity) or scheme.name == Identity.name


class Cascade(CompressionScheme):
    """Compose an outer scheme with inner schemes applied to its constituents.

    Parameters
    ----------
    outer:
        The scheme applied to the original column.
    inner:
        Mapping from constituent name (of the outer scheme's compressed form)
        to the scheme used to re-compress that constituent.  Constituents not
        mentioned — or mapped to :class:`Identity` — are stored as-is.

    Example
    -------
    The paper's shipping-dates example ("applying an RLE scheme to the dates,
    then applying DELTA to the run values")::

        Cascade(RunLengthEncoding(), {"values": Delta()})
    """

    def __init__(self, outer: CompressionScheme, inner: Mapping[str, CompressionScheme]):
        if not isinstance(outer, CompressionScheme):
            raise SchemeParameterError("Cascade outer must be a CompressionScheme")
        expected = set(outer.expected_constituents())
        for constituent in inner:
            if expected and constituent not in expected:
                raise SchemeParameterError(
                    f"Cascade inner scheme given for unknown constituent {constituent!r} "
                    f"of {outer.name}; expected one of {sorted(expected)}"
                )
        self.outer = outer
        self.inner: Dict[str, CompressionScheme] = {
            name: scheme for name, scheme in inner.items() if not _is_identity(scheme)
        }
        self.is_lossless = outer.is_lossless and all(
            scheme.is_lossless for scheme in self.inner.values()
        )

    # ------------------------------------------------------------------ #
    # Naming / description
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:  # type: ignore[override]
        inner = ",".join(f"{cons}={scheme.name}" for cons, scheme in sorted(self.inner.items()))
        return f"{self.outer.name}∘[{inner}]" if inner else self.outer.name

    def describe(self) -> str:
        inner = ", ".join(
            f"{cons}: {scheme.describe()}" for cons, scheme in sorted(self.inner.items())
        )
        return f"{self.outer.describe()} ∘ [{inner}]" if inner else self.outer.describe()

    def parameters(self) -> Dict[str, Any]:
        return {
            "outer": self.outer.describe(),
            "inner": {name: scheme.describe() for name, scheme in self.inner.items()},
        }

    def expected_constituents(self) -> Tuple[str, ...]:
        return self.outer.expected_constituents()

    def validate(self, column: Column) -> None:
        self.outer.validate(column)

    # ------------------------------------------------------------------ #
    # Compression
    # ------------------------------------------------------------------ #

    def compress(self, column: Column) -> CompressedForm:
        """Apply the outer scheme, then re-compress the selected constituents."""
        outer_form = self.outer.compress(column)
        columns = dict(outer_form.columns)
        nested: Dict[str, CompressedForm] = dict(outer_form.nested)
        for constituent, scheme in self.inner.items():
            if constituent not in columns:
                raise DecompressionError(
                    f"outer scheme {self.outer.name} produced no constituent "
                    f"{constituent!r} to re-compress"
                )
            nested[constituent] = scheme.compress(columns.pop(constituent))
        return CompressedForm(
            scheme=self.name,
            columns=columns,
            parameters=dict(outer_form.parameters),
            original_length=outer_form.original_length,
            original_dtype=outer_form.original_dtype,
            nested=nested,
        )

    def stored_bytes_bound(self, profile) -> int:
        """The outer scheme's constituents, each at its inner scheme's bound
        (or its plain size): the bound follows the constituent structure."""
        parts = self.outer.constituent_profiles(profile) or {}
        return sum(self.inner[name].stored_bytes_bound(part) if name in self.inner
                   else part.values.nbytes for name, part in parts.items())

    def decompression_cost_floor(self, profile) -> float:
        """The outer scheme's floor, plus each inner scheme's on a constituent
        the outer scans (per value of the column).  An inner elsewhere may
        fuse into the outer's steps, so it adds nothing."""
        floor = self.outer.decompression_cost_floor(profile)
        parts = self.outer.constituent_profiles(profile) or {}
        for name in set(self.outer.scanned_constituents) & set(self.inner) & set(parts):
            part = parts[name]
            share = part.count / max(profile.count, 1)
            floor += self.inner[name].decompression_cost_floor(part) * share
        return floor

    # ------------------------------------------------------------------ #
    # Decompression
    # ------------------------------------------------------------------ #

    def _outer_form(self, form: CompressedForm) -> CompressedForm:
        """Reconstruct the outer scheme's compressed form (decompressing nested parts)."""
        columns = dict(form.columns)
        for constituent, scheme in self.inner.items():
            nested_form = self._nested(form, constituent)
            columns[constituent] = scheme.decompress(nested_form).rename(constituent)
        return CompressedForm(
            scheme=self.outer.name,
            columns=columns,
            parameters=dict(form.parameters),
            original_length=form.original_length,
            original_dtype=form.original_dtype,
        )

    @staticmethod
    def _nested(form: CompressedForm, constituent: str) -> CompressedForm:
        """*form*'s nested form of *constituent*, which it must have."""
        nested = form.nested.get(constituent)
        if nested is None:
            raise DecompressionError(f"composite form is missing nested constituent {constituent!r}")
        return nested

    def plan_key_parameters(self) -> Dict[str, Any]:
        return {
            "outer": (type(self.outer).__qualname__, self.outer.plan_key_parameters()),
            "inner": {name: (type(scheme).__qualname__, scheme.plan_key_parameters())
                      for name, scheme in self.inner.items()},
        }

    def plan_cache_key(self, form: CompressedForm):
        """Key the flat plan on the outer scheme *and* every nested form.

        The spliced plan embeds each inner scheme's decompression plan, so
        the key must recurse into the nested forms' own cache keys; if any
        constituent declines caching, the cascade declines too.
        """
        from ..columnar.compile import freeze_value
        inner_keys = []
        for name, scheme in sorted(self.inner.items()):
            nested_form = form.nested.get(name)
            if nested_form is None:
                return None
            nested_key = scheme.plan_cache_key(nested_form)
            if nested_key is None:
                return None
            # The spliced restore-cast makes the flat plan depend on the
            # constituent's stored dtype (chunks of one column can narrow
            # positions to different widths), so the dtype joins the key.
            inner_keys.append((name, str(nested_form.original_dtype), nested_key))
        try:
            prefix = self.__dict__.get("_plan_key_prefix")
            if prefix is None:
                prefix = ("Cascade", type(self.outer).__qualname__,
                          freeze_value(self.outer.plan_key_parameters()))
                self.__dict__["_plan_key_prefix"] = prefix
            frozen = ((form.frozen_parameters(), form.original_length)
                      if self.outer.plan_depends_on_form else ())
            return prefix + (frozen, tuple(inner_keys))
        except TypeError:  # unhashable configuration -> plan-signature caching
            return None

    def resolved_outer_form(self, form: CompressedForm) -> CompressedForm:
        """The outer scheme's form with nested constituents materialised.

        This is :meth:`_outer_form` memoised on *form* (the nested
        constituents — run values, lengths, references — are short by
        construction, which is why peeling a cascade layer is cheap relative
        to decompressing the column).  Used by the compressed-domain
        kernels (:func:`repro.engine.kernels.resolve_form`) so multi-conjunct
        scans reconstruct each chunk's outer form at most once.
        """
        return form.cached(("resolved_outer_form",),
                           lambda: self._outer_form(form))

    def _outer_form_stub(self, form: CompressedForm) -> CompressedForm:
        """The outer form's *shape* — parameters and constituent names — only.

        Decompression plans depend on a form's scalar parameters, never on
        its constituent data, so plan construction does not need the nested
        constituents decompressed; they are stood in by empty placeholder
        columns.  (:meth:`_outer_form`, which does decompress, serves the
        compressed-domain kernels through :meth:`resolved_outer_form`.)
        """
        columns = dict(form.columns)
        for constituent in self.inner:
            self._nested(form, constituent)
            columns[constituent] = Column.empty(name=constituent)
        return CompressedForm(
            scheme=self.outer.name,
            columns=columns,
            parameters=dict(form.parameters),
            original_length=form.original_length,
            original_dtype=form.original_dtype,
        )

    def decompression_plan(self, form: CompressedForm) -> Plan:
        """One flat plan: inner decompressions spliced in front of the outer plan.

        The inner plans' inputs are namespaced ``"<constituent>.<input>"`` so
        two inner schemes with identically-named constituents cannot collide.
        """
        plan = self.outer.decompression_plan(self._outer_form_stub(form))
        for constituent, scheme in self.inner.items():
            nested_form = form.nested[constituent]
            inner_plan = scheme.decompression_plan(nested_form)
            inner_plan = self._with_restore_cast(scheme, nested_form, inner_plan)
            inner_plan = inner_plan.rename_bindings(
                {name: f"{constituent}.{name}" for name in inner_plan.bindings_defined()}
            )
            plan = plan.compose_after(inner_plan, constituent,
                                      description=f"{self.describe()} decompression")
        return plan

    @staticmethod
    def _with_restore_cast(scheme: CompressionScheme, nested_form: CompressedForm,
                           inner_plan: Plan) -> Plan:
        """Append the restore-cast ``decompress()`` applies outside the plan.

        A standalone ``decompress`` casts its plan's output back to the
        form's original dtype as a final Python-side step; a spliced inner
        plan feeds the outer plan directly, so the cast must become a plan
        step — e.g. packed DICT codes are stored uint8 and the outer
        ``UnpackBits`` rejects the int64 the inner scheme's plan produces.
        The step is added only when the statically-inferred output dtype
        provably differs (unknown dtypes splice unchanged, as before).
        """
        stored = nested_form.original_dtype
        if stored is None:
            return inner_plan
        input_dtypes = {name: column.dtype
                        for name, column in scheme.plan_inputs(nested_form).items()}
        inferred = inner_plan.output_dtype(input_dtypes)
        if inferred is None or inferred == np.dtype(stored):
            return inner_plan
        restored = f"{inner_plan.output}__restored"
        return Plan(
            list(inner_plan.inputs),
            list(inner_plan.steps) + [
                PlanStep(output=restored, op="Cast",
                         column_inputs={"col": inner_plan.output},
                         params={"dtype": np.dtype(stored)}),
            ],
            restored,
            description=inner_plan.description,
        )

    def check(self, form: CompressedForm) -> None:
        """Nothing of its own, and no verdict memoised on *form*: the outer
        scheme checks the form, and each inner scheme its nested form, when
        :meth:`plan_inputs` binds them."""

    def plan_inputs(self, form: CompressedForm) -> Dict[str, Column]:
        """The outer scheme's inputs (DELTA's ``base`` among them; a nested
        constituent is not one, its inner plan computes it), then every
        nested form's under ``"<constituent>.<input>"``."""
        nested = {constituent: self._nested(form, constituent) for constituent in self.inner}
        inputs = self.outer.plan_inputs(form)
        for constituent, scheme in self.inner.items():
            for input_name, column in scheme.plan_inputs(nested[constituent]).items():
                inputs[f"{constituent}.{input_name}"] = column
        return inputs

    def plan_lengths(self, form: CompressedForm) -> Dict[str, int]:
        """The inputs', and every nested form's decoded output's (as long as
        the constituent it restores), under the flat plan's name for it."""
        lengths = super().plan_lengths(form)
        for constituent, scheme in self.inner.items():
            nested_form = form.nested[constituent]
            lengths[constituent] = nested_form.original_length
            inner_inputs = scheme.plan_inputs(nested_form)
            for name, length in scheme.plan_lengths(nested_form).items():
                if name not in inner_inputs:  # an intermediate of the spliced inner plan
                    lengths[Plan.spliced_name(constituent, f"{constituent}.{name}")] = length
        return lengths

    # ------------------------------------------------------------------ #
    # Convenience constructors for the paper's named compositions
    # ------------------------------------------------------------------ #

    @staticmethod
    def rle_then_delta_on_values() -> "Cascade":
        """The §I example: RLE on the column, DELTA on the run values."""
        from .delta import Delta
        from .rle import RunLengthEncoding

        return Cascade(RunLengthEncoding(), {"values": Delta()})

    @staticmethod
    def rpe_with_delta_positions() -> "Cascade":
        """The §II-A identity's right-hand side: (ID values, DELTA positions) ∘ RPE."""
        from .delta import Delta
        from .rpe import RunPositionEncoding

        return Cascade(RunPositionEncoding(narrow_positions=False),
                       {"values": Identity(), "run_positions": Delta()})
