"""Failure injection: corrupted designs/programs must fail loudly.

The generator, compiler and simulator validate their inputs; these tests
break internal invariants on purpose and assert the breakage is caught
rather than silently mis-simulated.
"""

import numpy as np
import pytest

from repro.analysis import analyze
from repro.compiler import DeepBurningCompiler
from repro.devices import Z7020, budget_fraction
from repro.errors import (
    CompileError,
    GraphError,
    ResourceError,
    SimulationError,
    UnsupportedLayerError,
)
from repro.frontend import load
from repro.frontend.layers import LayerKind
from repro.nn.reference import init_weights
from repro.nngen import NNGen
from repro.nngen.design import FoldPhase
from repro.sim import AcceleratorSimulator
from repro.sim.program_check import verify_program

MLP_TEXT = """
name: "mlp"
layers { name: "data" type: DATA top: "data" param { dim: 8 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 16 } }
layers { name: "sig1" type: SIGMOID bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 4 } }
"""


@pytest.fixture
def design():
    return NNGen().generate(load(MLP_TEXT, format="prototxt"),
                            budget_fraction(Z7020, 0.3))


class TestGeneratorRejections:
    def test_unregistered_library_block(self):
        from repro.components.library import ComponentLibrary
        empty = ComponentLibrary()
        with pytest.raises(UnsupportedLayerError):
            NNGen(library=empty).generate(
                load(MLP_TEXT, format="prototxt"), budget_fraction(Z7020, 0.3))

    def test_invalid_graph_rejected(self):
        graph = load(MLP_TEXT, format="prototxt")
        # Corrupt: duplicate a layer name after validation.
        graph.layers.append(graph.layers[-1])
        with pytest.raises(GraphError):
            NNGen().generate(graph, budget_fraction(Z7020, 0.3))

    def test_impossible_budget(self):
        with pytest.raises(ResourceError):
            NNGen().generate(load(MLP_TEXT, format="prototxt"),
                             budget_fraction(Z7020, 0.002))


class TestCompilerRejections:
    def test_fold_for_unknown_layer(self, design):
        design.folding.phases.append(FoldPhase(
            layer="ghost", kind=LayerKind.INNER_PRODUCT, phase_index=0,
            out_start=0, out_count=4, macs=16, macs_per_output=4,
        ))
        with pytest.raises(GraphError):
            DeepBurningCompiler().compile(design)

    def test_route_with_no_blocks(self, design):
        del design.components["neurons"]
        del design.components["accumulators"]
        del design.components["activation"]
        del design.components["connection_box"]
        from repro.compiler.address import AddressFlowGenerator
        from repro.compiler.memmap import build_memory_map
        memory_map = build_memory_map(design.resolved, design.datapath.simd)
        with pytest.raises(CompileError):
            AddressFlowGenerator(design, memory_map).coordinator()

    def test_weights_for_wrong_shape(self, design):
        weights = init_weights(design.graph)
        weights["ip1"]["weight"] = np.zeros((3, 3))
        with pytest.raises(Exception):
            DeepBurningCompiler().compile(design, weights=weights)

    def test_partial_weights_rejected(self, design):
        weights = init_weights(design.graph)
        del weights["ip2"]
        with pytest.raises(CompileError):
            DeepBurningCompiler().compile(design, weights=weights)


class TestSimulatorRejections:
    def test_empty_program_rejected(self, design):
        program = DeepBurningCompiler().compile(design)
        program.coordinator.states = []
        with pytest.raises(SimulationError):
            AcceleratorSimulator(program).run(functional=False)

    def test_tampered_pattern_out_of_dram(self, design):
        program = DeepBurningCompiler().compile(design)
        state = next(s for s in program.coordinator.states
                     if s.weight_reads_at > s.main.start)
        top = program.memory_map.total_elements
        # States hold index ranges, so tamper through the table they
        # index: the state's first feature read now starts past the top.
        row = state.main.start
        original = program.coordinator.main_table[row]
        program.coordinator.main_table[row] = original.rebased(top + 10_000)
        feature_reads = program.coordinator.main_table[
            state.main.start:state.weight_reads_at]
        assert feature_reads[0].start_address == top + 10_000
        # The simulator's timing layer reads the recorded traffic and
        # still runs; both checkers catch the pattern.
        AcceleratorSimulator(program).run(functional=False)
        report = verify_program(program)
        assert any(f"main pattern {row}: address" in error
                   and "DRAM map" in error for error in report.errors)
        # The memory pass reports the row once, by table index and fold.
        findings = analyze(program, passes=("memory",)).by_rule(
            "mem.dram-oob")
        assert [finding.where for finding in findings] == [
            f"main table[{row}] ({state.event})"]

    def test_functional_with_wrong_input_shape(self, design):
        weights = init_weights(design.graph)
        program = DeepBurningCompiler().compile(design, weights=weights)
        simulator = AcceleratorSimulator(program, weights=weights)
        with pytest.raises(SimulationError):
            simulator.run(np.zeros(9))

    def test_negative_phase_outputs_rejected(self):
        with pytest.raises(ResourceError):
            FoldPhase(layer="x", kind=LayerKind.RELU, phase_index=0,
                      out_start=0, out_count=0)


class TestLintCatchesBrokenEmission:
    def test_tampered_instance_detected(self, design):
        from repro.rtl.emit import emit_project
        from repro.rtl.lint import lint_source
        sources = emit_project(design)
        top = sources["accelerator_top.v"]
        # Corrupt one named port connection in an instantiation.
        sources["accelerator_top.v"] = top.replace(
            ".event_trigger(", ".event_triggerX(", 1)
        report = lint_source(sources)
        assert not report.ok
        assert any("event_triggerX" in error for error in report.errors)

    def test_dropped_module_detected(self, design):
        from repro.rtl.emit import emit_project
        from repro.rtl.lint import lint_source
        sources = emit_project(design)
        victim = next(name for name in sources
                      if name.startswith("synergy_neuron_array"))
        del sources[victim]
        report = lint_source(sources)
        assert any("unknown module" in error for error in report.errors)
