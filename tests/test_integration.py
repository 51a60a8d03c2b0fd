"""End-to-end integration: every paper benchmark through the full flow.

Each of the 12 networks in ``zoo.BENCHMARKS`` goes through generate →
compile → emit → lint; the smaller ones additionally run a functional
simulation checked against the float reference.
"""

import numpy as np
import pytest

from repro.compiler import DeepBurningCompiler
from repro.devices import Z7045, budget_fraction
from repro.experiments.config import scheme_budget
from repro.frontend.shapes import infer_shapes
from repro.nn.reference import ReferenceNetwork, init_weights
from repro.nngen import NNGen
from repro.rtl.emit import emit_project
from repro.rtl.lint import lint_source
from repro.sim import AcceleratorSimulator
from repro.zoo import BENCHMARKS, benchmark_graph

ALL_BENCHMARKS = sorted(BENCHMARKS)
#: Benchmarks small enough for a bit-level functional run in CI time.
FUNCTIONAL_BENCHMARKS = ("ann0", "ann1", "ann2", "mnist", "cifar")


@pytest.fixture(scope="module")
def designs():
    cache = {}
    for name in ALL_BENCHMARKS:
        graph = benchmark_graph(name)
        cache[name] = NNGen().generate(graph, scheme_budget("DB"))
    return cache


@pytest.fixture(scope="module")
def programs(designs):
    return {name: DeepBurningCompiler().compile(design)
            for name, design in designs.items()}


class TestGenerateAll:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_design_fits_budget(self, designs, name):
        design = designs[name]
        assert design.resource_report().fits_in(design.budget.limit)

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_folding_covers_every_layer(self, designs, name):
        design = designs[name]
        folded_layers = {phase.layer for phase in design.folding}
        expected = {spec.name for spec in design.graph.layers
                    if spec.kind.value != "DATA"}
        assert folded_layers == expected

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_every_weighted_layer_gets_weight_region(self, programs, name):
        program = programs[name]
        for spec in program.design.graph.weighted_layers():
            region = program.memory_map.weights(spec.name)
            assert region.total_elements > 0


class TestCompileAll:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_one_state_per_fold(self, programs, name):
        program = programs[name]
        assert program.coordinator.n_states == len(program.design.folding)

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_patterns_stay_inside_dram(self, programs, name):
        program = programs[name]
        top = program.memory_map.total_elements
        main_table = program.coordinator.main_table
        for state in program.coordinator.states:
            for pattern in main_table[state.main.start:state.main.stop]:
                assert 0 <= pattern.start_address < top, state.phase
                assert pattern.max_address() < top, state.phase

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_traffic_at_least_weights(self, programs, name):
        """Every weight element must cross the AXI port at least once."""
        program = programs[name]
        weight_words = sum(
            region.weight_elements
            for region in program.memory_map.weight_regions.values()
        )
        main_table = program.coordinator.main_table
        read_words = sum(
            p.footprint for state in program.coordinator.states
            for p in main_table[state.weight_reads_at:state.writes_at]
        )
        assert read_words >= weight_words


class TestEmitAll:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_rtl_lints_clean(self, designs, name):
        sources = emit_project(designs[name])
        report = lint_source(sources)
        assert report.ok, (name, report.errors[:3])

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_top_instantiates_all_components(self, designs, name):
        design = designs[name]
        sources = emit_project(design)
        report = lint_source(sources)
        top = report.modules["accelerator_top"]
        instance_names = {inst_name for _, inst_name, _ in top.instances}
        assert instance_names == set(design.components)


class TestSimulateAll:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_timing_simulation_completes(self, programs, name):
        result = AcceleratorSimulator(programs[name]).run(functional=False)
        assert result.cycles > 0
        assert result.macs == programs[name].design.folding.total_macs

    @pytest.mark.parametrize("name", FUNCTIONAL_BENCHMARKS)
    def test_functional_tracks_float_reference(self, name):
        graph = benchmark_graph(name)
        weights = init_weights(graph, np.random.default_rng(7), scale=0.05)
        design = NNGen().generate(graph, scheme_budget("DB"))
        rng = np.random.default_rng(8)
        shapes = infer_shapes(graph)
        input_shape = shapes[graph.inputs()[0].tops[0]].dims
        calibration = [rng.uniform(-1, 1, input_shape) for _ in range(2)]
        program = DeepBurningCompiler().compile(
            design, weights=weights, calibration_inputs=calibration)
        simulator = AcceleratorSimulator(program, weights=weights)
        x = rng.uniform(-1, 1, input_shape)
        result = simulator.run(x)
        reference = ReferenceNetwork(graph, weights)
        expected = reference.output(x)
        got = np.ravel(result.output)[:expected.size]
        # Softmax outputs live in [0,1]; fixed point tracks to ~1e-2.
        assert np.allclose(got, np.ravel(expected), atol=0.05), name


class TestCrossBudgetConsistency:
    @pytest.mark.parametrize("name", ("mnist", "cifar"))
    def test_budgets_change_speed_not_result(self, name):
        graph = benchmark_graph(name)
        weights = init_weights(graph, np.random.default_rng(3), scale=0.05)
        shapes = infer_shapes(graph)
        input_shape = shapes[graph.inputs()[0].tops[0]].dims
        x = np.random.default_rng(4).uniform(-1, 1, input_shape)
        outputs = []
        cycles = []
        for fraction in (0.1, 0.6):
            design = NNGen().generate(graph, budget_fraction(Z7045, fraction))
            program = DeepBurningCompiler().compile(design, weights=weights)
            result = AcceleratorSimulator(program, weights=weights).run(x)
            outputs.append(np.ravel(result.output))
            cycles.append(result.cycles)
        # The datapath width changes the schedule, not the arithmetic.
        assert np.allclose(outputs[0], outputs[1])
        assert cycles[1] < cycles[0]
