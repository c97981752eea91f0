"""Static verification of the engine: ``repro.analysis``.

Three analyses, none of which executes data:

* :mod:`~repro.analysis.intervals` — abstract interpretation of plans
  (dtype + value-interval inference, overflow/wrap/precision hazards,
  translation validation for the plan optimizer);
* :mod:`~repro.analysis.forksafe` — structural fork-safety check for
  objects about to cross the multiprocess scan pipe;
* :mod:`~repro.analysis.lint` — AST-level engine-invariant lints over
  ``src/repro``, with a seeded corpus of historically-bad plans
  (:mod:`~repro.analysis.corpus`).

Run everything with ``python -m repro.analysis``.

Submodules are imported lazily: :mod:`~repro.analysis.forksafe` is imported
by :mod:`repro.engine.parallel`, which should not load the plan analyser
along with it.
"""

from __future__ import annotations

import importlib

_SUBMODULES = ("intervals", "forksafe", "lint", "corpus")

__all__ = list(_SUBMODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
