"""Integration tests for the DeepBurning compiler pipeline."""

import numpy as np
import pytest

from repro.compiler import DeepBurningCompiler
from repro.compiler.address import (
    AddressFlowGenerator,
    compress_stream,
    dense_reference_stream,
)
from repro.compiler.memmap import build_memory_map
from repro.compiler.patterns import expand_patterns
from repro.devices import Z7020, Z7045, budget_fraction
from repro.errors import CompileError
from repro.frontend import load
from repro.nn.reference import init_weights
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
layers { name: "pool1" type: POOLING bottom: "conv1" top: "pool1" param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "pool1" top: "ip1" param { num_output: 10 } }
layers { name: "prob" type: SOFTMAX bottom: "ip1" top: "prob" }
"""


@pytest.fixture(scope="module")
def mlp_design():
    return NNGen().generate(load(MLP_TEXT, format="prototxt"),
                            budget_fraction(Z7020, 0.3))


@pytest.fixture(scope="module")
def cnn_design():
    return NNGen().generate(load(CNN_TEXT, format="prototxt"),
                            budget_fraction(Z7045, 0.4))


class TestMemoryMap:
    def test_regions_disjoint(self, cnn_design):
        memory_map = build_memory_map(cnn_design.resolved,
                                      cnn_design.datapath.simd)
        intervals = []
        for base, layout in memory_map.feature_regions.values():
            intervals.append((base, base + layout.total_elements))
        for region in memory_map.weight_regions.values():
            intervals.append((region.base_address,
                              region.base_address + region.total_elements))
        intervals.sort()
        for (a_start, a_end), (b_start, b_end) in zip(intervals, intervals[1:]):
            assert a_end <= b_start

    def test_total_covers_everything(self, cnn_design):
        memory_map = build_memory_map(cnn_design.resolved,
                                      cnn_design.datapath.simd)
        last = max(
            [base + layout.total_elements
             for base, layout in memory_map.feature_regions.values()]
            + [r.base_address + r.total_elements
               for r in memory_map.weight_regions.values()]
        )
        assert memory_map.total_elements == last

    def test_pixel_addressing(self, cnn_design):
        memory_map = build_memory_map(cnn_design.resolved,
                                      cnn_design.datapath.simd)
        addr = memory_map.address_of_pixel("data", 0, 0, 0)
        assert addr == memory_map.feature_base("data")

    def test_unknown_blob_rejected(self, cnn_design):
        memory_map = build_memory_map(cnn_design.resolved,
                                      cnn_design.datapath.simd)
        from repro.errors import LayoutError
        with pytest.raises(LayoutError):
            memory_map.feature_base("ghost")


def feature_reads(coordinator, state):
    return coordinator.main_table[state.main.start:state.weight_reads_at]


def weight_reads(coordinator, state):
    return coordinator.main_table[state.weight_reads_at:state.writes_at]


def writes(coordinator, state):
    return coordinator.main_table[state.writes_at:state.main.stop]


def coordinator_for(design):
    memory_map = build_memory_map(design.resolved, design.datapath.simd)
    return memory_map, AddressFlowGenerator(design, memory_map).coordinator()


class TestAddressPlans:
    def test_every_phase_has_plan(self, cnn_design):
        _, coordinator = coordinator_for(cnn_design)
        assert len(coordinator.states) == len(cnn_design.folding)

    def test_dense_weight_pattern_matches_reference(self, mlp_design):
        memory_map, coordinator = coordinator_for(mlp_design)
        weights = memory_map.weights("ip1")
        for state in coordinator.states:
            if state.phase.layer != "ip1":
                continue
            phase = state.phase
            expected = dense_reference_stream(
                weights.base_address, weights.depth,
                phase.out_start, phase.out_count,
                phase.in_start, phase.in_count,
            )
            got = expand_patterns(weight_reads(coordinator, state))
            assert got == expected

    def test_dense_fetch_words_match_fold(self, mlp_design):
        _, coordinator = coordinator_for(mlp_design)
        for state in coordinator.states:
            if state.phase.kind.has_weights:
                assert (sum(p.footprint
                            for p in weight_reads(coordinator, state))
                        == state.phase.weight_words)

    def test_conv_feature_reads_in_region(self, cnn_design):
        memory_map, coordinator = coordinator_for(cnn_design)
        for state in coordinator.states:
            if state.phase.layer != "conv1":
                continue
            base = memory_map.feature_base("data")
            layout = memory_map.feature_layout("data")
            for pattern in feature_reads(coordinator, state):
                assert pattern.start_address >= base
                assert pattern.max_address() < base + layout.total_elements

    def test_writes_target_output_region(self, cnn_design):
        memory_map, coordinator = coordinator_for(cnn_design)
        for state in coordinator.states:
            if state.phase.layer != "conv1" or state.phase.partial:
                continue
            base = memory_map.feature_base("conv1")
            layout = memory_map.feature_layout("conv1")
            for pattern in writes(coordinator, state):
                assert pattern.start_address >= base
                assert pattern.max_address() < base + layout.total_elements

    def test_partial_folds_do_not_write(self, mlp_design):
        _, coordinator = coordinator_for(mlp_design)
        for state in coordinator.states:
            if state.phase.partial:
                assert not writes(coordinator, state)

    def test_events_unique(self, cnn_design):
        _, coordinator = coordinator_for(cnn_design)
        events = [state.event for state in coordinator.states]
        assert len(events) == len(set(events))

    def test_compress_stream_roundtrip(self):
        stream = dense_reference_stream(1000, 50, 4, 8, 10, 20)
        patterns = compress_stream(stream)
        assert expand_patterns(patterns) == stream
        assert len(patterns) == 1  # a dense block is one affine pattern

    def test_compress_empty_rejected(self):
        with pytest.raises(CompileError):
            compress_stream([])


class TestCoordinatorProgram:
    def test_one_state_per_phase(self, cnn_design):
        _, program = coordinator_for(cnn_design)
        assert program.n_states == len(cnn_design.folding)

    def test_routes_use_existing_blocks(self, cnn_design):
        _, program = coordinator_for(cnn_design)
        for state in program.states:
            for block in state.route:
                assert block in cnn_design.components

    def test_pattern_indices_valid(self, cnn_design):
        _, program = coordinator_for(cnn_design)
        for state in program.states:
            for idx in state.main:
                assert 0 <= idx < len(program.main_table)
            for idx in state.data:
                assert 0 <= idx < len(program.data_table)
            for idx in state.weight:
                assert 0 <= idx < len(program.weight_table)


class TestFullCompile:
    def test_compile_without_weights(self, mlp_design):
        program = DeepBurningCompiler().compile(mlp_design)
        assert program.dram_image is None
        assert program.coordinator.n_states == len(mlp_design.folding)
        assert "sigmoid" in program.luts

    def test_compile_with_weights_builds_image(self, mlp_design):
        weights = init_weights(mlp_design.graph, np.random.default_rng(0))
        program = DeepBurningCompiler().compile(mlp_design, weights=weights)
        assert program.dram_image is not None
        assert program.dram_image.size == program.memory_map.total_elements
        region = program.memory_map.weights("ip1")
        block = program.dram_image[region.base_address:
                                   region.base_address + region.weight_elements]
        assert np.any(block != 0)

    def test_missing_weights_rejected(self, mlp_design):
        with pytest.raises(CompileError):
            DeepBurningCompiler().compile(mlp_design, weights={})

    def test_calibration_changes_formats(self, mlp_design):
        weights = init_weights(mlp_design.graph, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        inputs = [rng.uniform(-0.1, 0.1, 16) for _ in range(4)]
        program = DeepBurningCompiler().compile(
            mlp_design, weights=weights, calibration_inputs=inputs)
        # Small activations earn more fraction bits than the default Q7.8.
        assert program.blob_formats["data"].fraction_bits >= 8

    def test_relu_only_network_has_no_sigmoid_lut(self, cnn_design):
        program = DeepBurningCompiler().compile(cnn_design)
        # CNN uses ReLU + softmax; softmax maps through sigmoid LUT.
        assert set(program.luts) <= {"sigmoid", "tanh", "reciprocal_power"}

    def test_traffic_accounting(self, mlp_design):
        program = DeepBurningCompiler().compile(mlp_design)
        assert program.total_dram_traffic_words() > 0

    def test_summary_runs(self, mlp_design):
        program = DeepBurningCompiler().compile(mlp_design)
        assert "control program" in program.summary()


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_plans_and_states_index_one_pattern_store(zoo_programs, name):
    """The states' rows, in fold order, are the three coordinator
    tables, and every state's word counts are what its rows move."""
    for fraction in (0.05, 0.3, 1.0):
        program = zoo_programs[name, fraction]
        coordinator = program.coordinator
        main, data, weight = [], [], []
        for state in coordinator.states:
            main += feature_reads(coordinator, state)
            main += weight_reads(coordinator, state)
            main += writes(coordinator, state)
            data += coordinator.data_table[state.data.start:state.data.stop]
            weight += coordinator.weight_table[
                state.weight.start:state.weight.stop]
        where = (name, fraction)
        assert main == coordinator.main_table, where
        assert data == coordinator.data_table, where
        assert weight == coordinator.weight_table, where
        assert [state.phase for state in coordinator.states] == list(
            program.design.folding), where
        for state in coordinator.states:
            assert state.read_words == sum(
                p.footprint for p in coordinator.main_table[
                    state.main.start:state.writes_at]), where
            assert state.write_words == sum(
                p.footprint for p in writes(coordinator, state)), where
            assert state.replay_words == sum(
                p.footprint
                for p in coordinator.data_table[
                    state.data.start:state.data.stop]
                + coordinator.weight_table[
                    state.weight.start:state.weight.stop]
            ), where
