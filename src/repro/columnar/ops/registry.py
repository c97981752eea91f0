"""Operator registry for the columnar algebra.

The paper's central observation is that decompression can be written with
*the same columnar operators that appear in analytic query plans*.  To make
that observation executable, every operator in :mod:`repro.columnar.ops` is
registered here under a stable name ("PrefixSum", "Gather", "Scatter", ...)
together with a small amount of metadata.  Plans (:mod:`repro.columnar.plan`)
refer to operators purely by name, so a decompression plan is a data
structure, not code — which is what lets us truncate, rewrite and re-compose
plans, mirroring the paper's decomposition arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ...errors import OperatorError, UnknownOperatorError


@dataclass(frozen=True)
class OperatorSpec:
    """Metadata describing a registered columnar operator.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"PrefixSum"``.  Plans refer to this name.
    func:
        The Python callable implementing the operator.  It takes Columns as
        positional arguments, scalar keyword parameters, and returns a Column.
    arity:
        Number of column (positional) operands the operator expects, or
        ``None`` when variadic.
    description:
        One-line human description.
    cost_weight:
        Relative per-element cost weight used by the cost model.  Data
        movement by random access (gather/scatter) is costed higher than
        streaming arithmetic, matching their behaviour on real hardware.
    category:
        Loose grouping: ``"generate"``, ``"scan"``, ``"movement"``,
        ``"elementwise"``, ``"selection"``, ``"runs"``, ``"reduction"``.
    """

    name: str
    func: Callable
    arity: Optional[int]
    description: str
    cost_weight: float = 1.0
    category: str = "misc"


class OperatorRegistry:
    """A name → :class:`OperatorSpec` mapping with registration helpers."""

    def __init__(self) -> None:
        self._specs: Dict[str, OperatorSpec] = {}

    def register(
        self,
        name: str,
        func: Callable,
        arity: Optional[int],
        description: str,
        cost_weight: float = 1.0,
        category: str = "misc",
        overwrite: bool = False,
    ) -> OperatorSpec:
        """Register *func* under *name* and return its spec."""
        if name in self._specs and not overwrite:
            raise OperatorError(f"operator {name!r} is already registered")
        spec = OperatorSpec(
            name=name,
            func=func,
            arity=arity,
            description=description,
            cost_weight=cost_weight,
            category=category,
        )
        self._specs[name] = spec
        return spec

    def get(self, name: str) -> OperatorSpec:
        """Look up an operator spec; raise :class:`UnknownOperatorError` if absent."""
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(sorted(self._specs))
            raise UnknownOperatorError(
                f"unknown columnar operator {name!r}; known operators: {known}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def names(self) -> List[str]:
        """All registered operator names, sorted."""
        return sorted(self._specs)

    def items(self) -> Iterable[Tuple[str, OperatorSpec]]:
        return self._specs.items()


#: The process-wide default registry used by plans and schemes.
DEFAULT_REGISTRY = OperatorRegistry()


def register_operator(
    name: str,
    arity: Optional[int],
    description: str,
    cost_weight: float = 1.0,
    category: str = "misc",
):
    """Decorator registering a function in :data:`DEFAULT_REGISTRY`.

    Example
    -------
    >>> @register_operator("Twice", 1, "doubles every element")
    ... def twice(col):
    ...     ...
    """

    def decorator(func: Callable) -> Callable:
        DEFAULT_REGISTRY.register(
            name,
            func,
            arity=arity,
            description=description,
            cost_weight=cost_weight,
            category=category,
        )
        return func

    return decorator
