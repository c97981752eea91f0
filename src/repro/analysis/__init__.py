"""Static verification of the engine: ``repro.analysis``.

Two analyses, neither of which executes data:

* :mod:`~repro.analysis.intervals` — abstract interpretation of plans
  (dtype + value-interval inference, overflow/wrap/precision hazards,
  translation validation for the plan optimizer);
* :mod:`~repro.analysis.lint` — AST-level engine-invariant lints over
  ``src/repro``, with a seeded corpus of historically-bad plans
  (:mod:`~repro.analysis.corpus`).

Run everything with ``python -m repro.analysis``.

Submodules are imported lazily, on first access.
"""

from __future__ import annotations

import importlib

_SUBMODULES = ("intervals", "lint", "corpus")

__all__ = list(_SUBMODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
