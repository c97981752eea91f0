"""DICT: dictionary encoding over a small value domain.

The paper lists DICT ("using small dictionaries") among the lightweight
schemes in frequent use.  The compressed form, viewed as pure columns, is a
``dictionary`` column of the distinct values (sorted, so order-preserving
predicates can be rewritten onto codes) and a ``codes`` column of per-element
indices into it.  Decompression is a single ``Gather`` — the clearest
possible instance of the paper's point that decompression is made of
query-plan operators (a dictionary decode *is* a join-ish gather).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..columnar import dtypes as _dt
from ..columnar.column import Column
from ..columnar.ops import bitpack as _bitpack
from ..columnar.plan import Plan, PlanBuilder
from ..columnar.profile import ColumnProfile
from ..errors import SchemeParameterError
from .base import CompressedForm, CompressionScheme, stream_problem


class DictionaryEncoding(CompressionScheme):
    """Order-preserving dictionary encoding.

    Parameters
    ----------
    codes_layout:
        ``"packed"`` — bit-pack the codes at ``ceil(log2(|dictionary|))``
        bits (the honest-size layout); ``"aligned"`` — narrowest
        power-of-two dtype.
    max_dictionary_fraction:
        Refuse to "compress" (raise) when the dictionary would exceed this
        fraction of the column length; a dictionary nearly as big as the
        data compresses nothing and the advisor should fall back to another
        scheme.  Set to ``1.0`` to disable the check.
    """

    name = "DICT"
    computes_output = True

    def __init__(self, codes_layout: str = "packed",
                 max_dictionary_fraction: float = 1.0):
        if codes_layout not in ("packed", "aligned"):
            raise SchemeParameterError(
                f"DICT codes_layout must be 'packed' or 'aligned', got {codes_layout!r}"
            )
        if not 0.0 < max_dictionary_fraction <= 1.0:
            raise SchemeParameterError(
                "max_dictionary_fraction must be in (0, 1], got "
                f"{max_dictionary_fraction}"
            )
        self.codes_layout = codes_layout
        self.max_dictionary_fraction = max_dictionary_fraction

    def parameters(self) -> Dict[str, Any]:
        return {
            "codes_layout": self.codes_layout,
            "max_dictionary_fraction": self.max_dictionary_fraction,
        }

    def expected_constituents(self) -> Tuple[str, ...]:
        return ("dictionary", "codes")

    # ------------------------------------------------------------------ #

    def compress(self, column: Column) -> CompressedForm:
        """Build the sorted dictionary and per-element codes."""
        self.validate(column)
        if len(column) == 0:
            return self._empty_form(column)
        dictionary, codes = ColumnProfile(column.values).dictionary_codes()
        if len(dictionary) > self.max_dictionary_fraction * len(column):
            from ..errors import CompressionError

            raise CompressionError(
                f"DICT dictionary has {len(dictionary)} entries for a column of "
                f"{len(column)} values (limit fraction "
                f"{self.max_dictionary_fraction}); dictionary encoding is not worthwhile"
            )
        width = _dt.bits_for_unsigned(max(len(dictionary) - 1, 0))
        parameters: Dict[str, Any] = {
            "dictionary_size": int(len(dictionary)),
            "code_width": width,
            "codes_layout": self.codes_layout,
            "count": len(column),
        }
        if self.codes_layout == "packed":
            codes_column = _bitpack.pack_bits(Column.adopt(codes), width=width, name="codes")
        else:
            codes_column = Column(codes.astype(_dt.narrowest_unsigned_dtype(width)),
                                  name="codes")
        return CompressedForm(
            scheme=self.name,
            columns={
                "dictionary": Column(dictionary, name="dictionary"),
                "codes": codes_column,
            },
            parameters=parameters,
            original_length=len(column),
            original_dtype=column.dtype,
        )

    def stored_bytes_bound(self, profile) -> int:
        """Exact: the dictionary, plus codes as wide as its size requires."""
        distinct = profile.distinct_count
        width = _dt.bits_for_unsigned(distinct - 1)
        return (distinct * profile.values.itemsize
                + _dt.stored_size_bytes(profile.count, width, self.codes_layout))

    def decompression_plan(self, form: CompressedForm) -> Plan:
        """Unpack the codes (if packed) and gather through the dictionary."""
        builder = PlanBuilder(["dictionary", "codes"], description="DICT decompression")
        codes_binding = "codes"
        if form.parameter("codes_layout", self.codes_layout) == "packed":
            builder.step("codes_unpacked", "UnpackBits", packed="codes",
                         width=form.parameter("code_width"),
                         count=form.parameter("count"),
                         dtype=np.int64)
            codes_binding = "codes_unpacked"
        builder.step("decompressed", "Gather", values="dictionary", indices=codes_binding)
        return builder.build("decompressed")

    def plan_inputs(self, form: CompressedForm) -> Dict[str, Column]:
        """The constituents, once the form passes :meth:`check` (a cascade
        over DICT binds the same)."""
        self.check(form)
        return dict(form.columns)

    @staticmethod
    def check(form: CompressedForm) -> None:
        """Raise :class:`~repro.errors.OperatorError` for what
        :meth:`form_problem` finds wrong with *form*, stored or nested codes."""
        rows = form.original_length
        form.refuse(DictionaryEncoding.form_problem(
            rows, form.parameter("count", rows), int(form.parameter("dictionary_size", 0)),
            int(form.parameter("code_width", 0)), form.constituent_length("codes"),
            form.parameter("codes_layout", "packed") == "packed"))

    @staticmethod
    def form_problem(rows: int, count: Any, dictionary_size: int, code_width: int,
                     stored: int, packed: bool) -> Optional[str]:
        """What is wrong with a DICT form (``None``: nothing), from scalars
        alone: the code width against the dictionary, the codes against the
        rows (:func:`~repro.schemes.base.stream_problem`).  Both decompress
        paths, the DICT kernels and ``repro.io.verify`` ask here."""
        if dictionary_size > 1 << code_width:
            return f"{code_width}-bit codes cannot address {dictionary_size} entries"
        return stream_problem(rows, count, code_width, stored, packed)

    # ------------------------------------------------------------------ #
    # Predicate rewriting onto codes (used by repro.engine.kernels)
    # ------------------------------------------------------------------ #

    @staticmethod
    def rewrite_range_to_codes(form: CompressedForm, lo, hi) -> Tuple[int, int]:
        """Translate a value-range predicate into a code-range predicate.

        Because the dictionary is sorted, ``lo <= value <= hi`` holds exactly
        when the code lies in ``[searchsorted(lo, 'left'),
        searchsorted(hi, 'right'))`` — so selections can run on the narrow
        codes without decoding (cf. §II-B's "speed up selections").  The
        returned pair is an inclusive-exclusive code range.

        The bounds are clamped into the dictionary's dtype and searched as
        scalars of that dtype: a Python int that does not fit it would
        otherwise promote the comparison through float64, which cannot tell
        ``2**63 - 1`` from ``2**63``.
        """
        dictionary = form.constituent("dictionary").values
        limits = np.iinfo(dictionary.dtype)
        if hi < limits.min or lo > limits.max:
            return 0, 0
        lo = dictionary.dtype.type(max(lo, limits.min))
        hi = dictionary.dtype.type(min(hi, limits.max))
        lo_code = int(np.searchsorted(dictionary, lo, side="left"))
        hi_code = int(np.searchsorted(dictionary, hi, side="right"))
        return lo_code, hi_code
