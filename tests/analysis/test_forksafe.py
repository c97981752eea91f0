"""Unit tests for the static fork-safety walk."""

import threading

import numpy as np

from repro.analysis.forksafe import check_fork_safety
from repro.engine.context import ExecutionContext
from repro.engine.scan import ScanSpec
from repro.engine.predicates import Between
from repro.engine.resilience import FaultPlan, FaultPolicy


class TestSafeValues:
    def test_scalars_and_arrays(self):
        for value in (None, 3, 2.5, "s", b"b", np.int64(7),
                      np.arange(4), np.dtype(np.int64)):
            assert check_fork_safety(value) is None

    def test_real_scan_spec(self):
        context = ExecutionContext(
            workers=2, cache_bytes=1 << 20,
            fault_plan=FaultPlan(seed=1, kill_ranges=(0,)),
            fault_policy=FaultPolicy(on_corruption="quarantine"))
        spec = ScanSpec(predicates=(Between("price", 0, 10),),
                        materialize=("price",), context=context)
        assert check_fork_safety(spec, root="ScanSpec") is None

    def test_importable_function_and_class(self):
        assert check_fork_safety(check_fork_safety) is None
        assert check_fork_safety(Between) is None


class TestUnsafeValues:
    def test_lambda_named_with_path(self):
        problem = check_fork_safety({"derive": lambda x: x}, root="ScanSpec")
        assert problem is not None
        assert "ScanSpec['derive']" in problem
        assert "lambda" in problem

    def test_locally_defined_class_instance(self):
        class LocalPredicate(Between):
            pass

        spec = ScanSpec(predicates=(LocalPredicate("price", 0, 1),))
        problem = check_fork_safety(spec, root="ScanSpec")
        assert problem is not None
        assert "ScanSpec.predicates[0].__class__" in problem
        assert "<locals>" in problem

    def test_lock_is_rejected(self):
        problem = check_fork_safety([threading.Lock()], root="ScanSpec")
        assert problem is not None
        assert "process boundary" in problem

    def test_open_file_is_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("x")
        with path.open() as handle:
            problem = check_fork_safety({"src": handle})
            assert problem is not None
            assert "file" in problem

    def test_module_is_rejected(self):
        assert check_fork_safety(np) is not None

    def test_generator_is_rejected(self):
        assert check_fork_safety((i for i in range(3))) is not None

    def test_cycles_terminate(self):
        loop = []
        loop.append(loop)
        assert check_fork_safety(loop) is None
