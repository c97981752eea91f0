#!/usr/bin/env python
"""Quickstart: compress a column, look inside, decompress it three ways.

This walks through the library's core objects on a small, printable column:

1.  a :class:`repro.Column` of values with visible runs;
2.  its RLE compressed form — just two plain columns, the paper's
    "pure columns" view;
3.  decompression as a *plan of columnar operators* (the paper's
    Algorithm 1), evaluated step by step;
4.  the same result via the fused kernel and via a composite scheme.

Run it with::

    python examples/quickstart.py
"""

from repro import Column
from repro.schemes import Cascade, Delta, NullSuppression, RunLengthEncoding


def main() -> None:
    # A column with obvious runs (think: a status or date column).
    column = Column([7, 7, 7, 7, 9, 9, 5, 5, 5, 5, 5, 12], name="status")
    print("original column:   ", column.to_pylist())

    # --- compress ---------------------------------------------------------
    rle = RunLengthEncoding()
    form = rle.compress(column)
    print("\ncompressed form (pure columns, no headers):")
    for name, constituent in form.columns.items():
        print(f"  {name:10s}", constituent.to_pylist())
    print("  summary:   ", form.summary())

    # --- decompression is a plan of columnar operators ---------------------
    plan = rle.decompression_plan(form)
    print("\ndecompression plan (the paper's Algorithm 1):")
    print(plan.describe())

    result = plan.evaluate_detailed(rle.plan_inputs(form))
    print("\nintermediate bindings produced while evaluating the plan:")
    for name in ("run_positions", "positions"):
        print(f"  {name:15s}", result.bindings[name].to_pylist())
    print("  output         ", result.output.to_pylist())
    print(f"  cost: {result.cost.operator_invocations} operator invocations, "
          f"{result.cost.elements_out} elements materialised")

    # --- the compiled plan gives the same answer as the interpreted one -----
    assert rle.decompress_interpreted(form).equals(column)
    assert rle.decompress(form).equals(column)
    print("\ninterpreted and compiled decompression agree with the original: OK")

    # --- composition: re-compress the constituents -------------------------
    composite = Cascade(RunLengthEncoding(),
                        {"values": Delta(), "lengths": NullSuppression()})
    composite_form = composite.compress(column)
    print(f"\ncomposite scheme {composite.describe()}:")
    print(f"  RLE alone:  {form.compressed_size_bytes()} bytes "
          f"({form.compression_ratio():.2f}x)")
    print(f"  composite:  {composite_form.compressed_size_bytes()} bytes "
          f"({composite_form.compression_ratio():.2f}x)")
    assert composite.decompress(composite_form).equals(column)
    print("  composite round-trips losslessly: OK")


if __name__ == "__main__":
    main()
