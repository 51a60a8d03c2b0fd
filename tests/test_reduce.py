"""Tests for AGU template reduction."""

import pytest

from repro.compiler import DeepBurningCompiler
from repro.compiler.patterns import AccessPattern
from repro.compiler.reduce import (
    fields_for_patterns,
    pattern_rom,
    reduce_agus,
)
from repro.components.agu import AGURole
from repro.devices import Z7020, Z7045, budget_fraction
from repro.errors import CompileError
from repro.frontend import load
from repro.nngen import NNGen
from repro.zoo import BENCHMARKS

MLP_TEXT = """
name: "mlp"
layers { name: "data" type: DATA top: "data" param { dim: 16 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 32 } }
layers { name: "sig1" type: SIGMOID bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 8 } }
"""

CNN_TEXT = """
name: "cnn"
layers { name: "data" type: DATA top: "data" param { dim: 1 dim: 12 dim: 12 } }
layers { name: "conv1" type: CONVOLUTION bottom: "data" top: "conv1" param { num_output: 4 kernel_size: 3 stride: 1 } }
layers { name: "relu1" type: RELU bottom: "conv1" top: "conv1" }
layers { name: "ip1" type: INNER_PRODUCT bottom: "conv1" top: "ip1" param { num_output: 10 } }
"""


class TestFieldsForPatterns:
    def test_simple_sweep_minimal_fields(self):
        pattern = AccessPattern(start_address=0, x_length=64)
        fields = fields_for_patterns([pattern])
        assert "stride" not in fields
        assert "y_length" not in fields
        assert "start_address" in fields

    def test_grid_needs_outer_fields(self):
        pattern = AccessPattern(start_address=0, x_length=8, y_length=4,
                                offset=100)
        fields = fields_for_patterns([pattern])
        assert "y_length" in fields
        assert "offset" in fields

    def test_union_over_patterns(self):
        simple = AccessPattern(start_address=0, x_length=8)
        strided = AccessPattern(start_address=0, x_length=8, stride=2)
        fields = fields_for_patterns([simple, strided])
        assert "stride" in fields

    def test_empty_pattern_list_gets_start(self):
        assert fields_for_patterns([]) == ("start_address",)

    def test_field_order_stable(self):
        from repro.components.agu import TEMPLATE_FIELDS
        pattern = AccessPattern(start_address=0, x_length=8, stride=2,
                                y_length=4, offset=64)
        fields = fields_for_patterns([pattern])
        assert list(fields) == sorted(fields, key=TEMPLATE_FIELDS.index)


class TestReduceInCompile:
    def test_compile_reduces_agus(self):
        graph = load(MLP_TEXT, format="prototxt")
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        template_patterns = design.component("agu_main").n_patterns
        program = DeepBurningCompiler().compile(design)
        reduced = design.component("agu_main")
        # The dense MLP's main flows are a handful of distinct shapes.
        assert reduced.n_patterns <= len(program.coordinator.main_table)
        assert set(reduced.fields) <= {
            "start_address", "footprint", "x_length", "stride",
            "y_length", "offset"}

    def test_reduction_never_grows_cost(self):
        graph = load(CNN_TEXT, format="prototxt")
        design = NNGen().generate(graph, budget_fraction(Z7045, 0.3))
        before = design.component("agu_data").resource_cost()
        DeepBurningCompiler().compile(design)
        after = design.component("agu_data").resource_cost()
        assert after.lut <= before.lut
        assert after.ff <= before.ff

    def test_reduced_design_still_fits_budget(self):
        graph = load(CNN_TEXT, format="prototxt")
        budget = budget_fraction(Z7045, 0.3)
        design = NNGen().generate(graph, budget)
        DeepBurningCompiler().compile(design)
        assert design.resource_report().fits_in(budget.limit)

    def test_data_agu_keeps_needed_fields(self):
        graph = load(MLP_TEXT, format="prototxt")
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        program = DeepBurningCompiler().compile(design)
        data_agu = design.component("agu_data")
        # The dense data flow replays the input per wave: needs y/offset.
        needed = fields_for_patterns(program.coordinator.data_table)
        assert set(data_agu.fields) == set(needed)

    def test_reduce_missing_agu_rejected(self):
        graph = load(MLP_TEXT, format="prototxt")
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        program = DeepBurningCompiler().compile(design)
        del design.components["agu_main"]
        with pytest.raises(CompileError):
            reduce_agus(design, program.table_summaries)

    def test_pattern_table_deduplicates_shapes(self):
        graph = load(MLP_TEXT, format="prototxt")
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        program = DeepBurningCompiler().compile(design)
        weight_agu = design.component("agu_weight")
        # Folds of one layer share a pattern shape, so the hardware table
        # is no deeper than the number of distinct shapes.
        shapes = []
        for pattern in program.coordinator.weight_table:
            if not any(pattern.same_shape(s) for s in shapes):
                shapes.append(pattern)
        assert weight_agu.n_patterns == len(shapes)


class TestShapeKey:
    def test_shape_is_the_sweep_without_its_start(self):
        pattern = AccessPattern(start_address=40, x_length=3, stride=2,
                                y_length=5, offset=-7, event="e")
        assert pattern.shape == (3, 2, 5, -7)
        assert pattern.rebased(999, event="f").shape == pattern.shape

    def test_same_shape_compares_shapes(self):
        a = AccessPattern(start_address=0, x_length=4, y_length=2, offset=9)
        assert a.same_shape(a.rebased(100))
        assert not a.same_shape(AccessPattern(start_address=0, x_length=4,
                                              y_length=2, offset=8))


def _quadratic_shape_count(table) -> int:
    """Distinct shapes by pairwise ``same_shape`` (the reference)."""
    distinct: list[AccessPattern] = []
    for pattern in table:
        if not any(pattern.same_shape(seen) for seen in distinct):
            distinct.append(pattern)
    return len(distinct)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_reduced_agus_match_the_full_tables(zoo_programs, name):
    """The hashed shape key reduces every AGU exactly as a pairwise scan
    over its whole table would."""
    for fraction in (0.05, 0.3, 1.0):
        program = zoo_programs[name, fraction]
        coordinator = program.coordinator
        tables = {AGURole.MAIN: coordinator.main_table,
                  AGURole.DATA: coordinator.data_table,
                  AGURole.WEIGHT: coordinator.weight_table}
        for role, table in tables.items():
            agu = program.design.component(f"agu_{role.value}")
            rom = pattern_rom(table)
            where = (name, fraction, role.value)
            assert agu.n_patterns == _quadratic_shape_count(rom), where
            assert agu.fields == fields_for_patterns(rom), where
            assert agu.rows == len(rom), where
