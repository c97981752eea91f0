"""Tests for the operator registry."""

import pytest

from repro.columnar import Column
from repro.columnar.ops import DEFAULT_REGISTRY
from repro.columnar.ops.registry import OperatorRegistry
from repro.errors import OperatorError, UnknownOperatorError


class TestDefaultRegistry:
    EXPECTED_OPERATORS = [
        "Constant", "Zeros", "Ones", "Iota", "Sequence",
        "PrefixSum", "ExclusivePrefixSum",
        "Gather", "Scatter", "PopBack", "PushFront", "Repeat", "Replicate",
        "Elementwise", "ElementwiseUnary", "AdjacentDifference", "Cast", "FusedElementwise",
        "Compact", "Between", "IsIn", "MaskAnd", "MaskOr",
        "MaskNot", "CountTrue",
        "RunStartsMask", "RunEndPositions", "RunLengths", "RunValues",
        "PackBits", "UnpackBits", "ZigZagEncode", "ZigZagDecode",
        "Sum", "Min", "Max", "Count",
    ]

    def test_paper_algorithm_operators_registered(self):
        """Every operator named in the paper's Algorithms 1 and 2 is available."""
        for name in ("PrefixSum", "PopBack", "Constant", "Scatter", "Gather", "Elementwise"):
            assert name in DEFAULT_REGISTRY

    def test_full_inventory_registered(self):
        for name in self.EXPECTED_OPERATORS:
            assert name in DEFAULT_REGISTRY, name

    def test_get_returns_spec_with_callable(self):
        spec = DEFAULT_REGISTRY.get("PrefixSum")
        assert callable(spec.func)
        assert spec.category == "scan"

    def test_unknown_operator_raises(self):
        with pytest.raises(UnknownOperatorError):
            DEFAULT_REGISTRY.get("NotAnOperator")

    def test_movement_costed_above_arithmetic(self):
        gather_weight = DEFAULT_REGISTRY.get("Gather").cost_weight
        elementwise_weight = DEFAULT_REGISTRY.get("Elementwise").cost_weight
        assert gather_weight > elementwise_weight

    def test_names_sorted(self):
        names = DEFAULT_REGISTRY.names()
        assert names == sorted(names)


class TestCustomRegistry:
    def test_register_and_invoke(self):
        registry = OperatorRegistry()

        def double(col, name=None):
            return Column(col.values * 2, name=name)

        registry.register("Double", double, arity=1, description="doubles")
        assert "Double" in registry
        assert registry.get("Double").func(Column([2])).to_pylist() == [4]

    def test_duplicate_registration_rejected(self):
        registry = OperatorRegistry()
        registry.register("X", lambda: None, arity=0, description="")
        with pytest.raises(OperatorError):
            registry.register("X", lambda: None, arity=0, description="")

    def test_duplicate_with_overwrite(self):
        registry = OperatorRegistry()
        registry.register("X", lambda: 1, arity=0, description="one")
        registry.register("X", lambda: 2, arity=0, description="two", overwrite=True)
        assert registry.get("X").description == "two"

    def test_items_iterates_specs(self):
        registry = OperatorRegistry()
        registry.register("A", lambda: None, arity=0, description="")
        assert [name for name, _ in registry.items()] == ["A"]
