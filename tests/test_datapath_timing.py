"""Unit tests for per-fold datapath timing and the allocation helpers."""

import pytest

from repro.devices import Z7020, Z7045, budget_fraction
from repro.errors import SimulationError
from repro.fixedpoint.format import DEFAULT_DATA_FORMAT, DEFAULT_WEIGHT_FORMAT
from repro.frontend import load, resolve
from repro.frontend.layers import LayerKind
from repro.nngen import NNGen
from repro.nngen.allocate import NetworkNeeds, parallelism_caps
from repro.nngen.design import DatapathConfig, FoldPhase
from repro.sim.accel import FoldColumns
from repro.sim.datapath import buffer_stream_beats, compute_beats

MLP_TEXT = """
name: "mlp"
layers { name: "data" type: DATA top: "data" param { dim: 16 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 32 } }
layers { name: "sig1" type: SIGMOID bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 8 } }
"""


def phase(kind, out_count=64, macs_per_output=16, **kwargs):
    return FoldPhase(layer="x", kind=kind, phase_index=0, out_start=0,
                     out_count=out_count, macs=out_count * macs_per_output,
                     macs_per_output=macs_per_output, **kwargs)


def beats(rule, design, fold):
    """``rule`` (a per-fold rule over columns) of the single ``fold``."""
    [value] = rule(design, FoldColumns.of([fold], [(0, 0, 0, 0)]))
    return int(value)


def compute(design, fold):
    return beats(compute_beats, design, fold)


@pytest.fixture(scope="module")
def design():
    return NNGen().generate(load(MLP_TEXT, format="prototxt"),
                            budget_fraction(Z7020, 0.3))


class TestComputeBeats:
    def test_mac_fold_scales_with_depth(self, design):
        shallow = compute(design, phase(LayerKind.INNER_PRODUCT,
                                        macs_per_output=8))
        deep = compute(design, phase(LayerKind.INNER_PRODUCT,
                                     macs_per_output=64))
        assert deep > shallow

    def test_mac_fold_scales_with_outputs(self, design):
        few = compute(design, phase(LayerKind.INNER_PRODUCT, out_count=8))
        many = compute(design, phase(LayerKind.INNER_PRODUCT,
                                     out_count=256))
        assert many > few

    def test_partial_fold_skips_lut_activation(self, design):
        complete = compute(design, phase(LayerKind.INNER_PRODUCT))
        partial = compute(design, phase(LayerKind.INNER_PRODUCT,
                                        partial=True))
        # The sigmoid LUT drain only applies when outputs complete.
        assert partial <= complete

    def test_activation_kinds(self, design):
        relu = compute(design, phase(LayerKind.RELU, macs_per_output=1))
        sigmoid = compute(design, phase(LayerKind.SIGMOID,
                                        macs_per_output=1))
        # LUT-backed sigmoid serialises; ReLU is lane-parallel.
        assert sigmoid >= relu

    def test_classifier_beats(self, design):
        # MLP design carries no classifier; softmax routes through the
        # activation path if the block is absent.
        value = compute(design, phase(LayerKind.SOFTMAX, macs_per_output=1,
                                      in_count=32))
        assert value > 0

    def test_unsupported_kind_raises(self, design):
        with pytest.raises(SimulationError):
            compute(design, phase(LayerKind.POOLING, macs_per_output=4))

    def test_dropout_without_unit_falls_back(self, design):
        value = compute(design, phase(LayerKind.DROPOUT, macs_per_output=1))
        assert value >= 1


class TestBufferStreamBeats:
    def test_feature_beats_ceil(self, design):
        simd = design.datapath.simd
        p = phase(LayerKind.INNER_PRODUCT, input_words=simd * 3 + 1)
        assert beats(buffer_stream_beats, design, p) >= 4

    def test_weight_port_wider(self, design):
        lanes = design.datapath.lanes
        simd = design.datapath.simd
        p = phase(LayerKind.INNER_PRODUCT,
                  input_words=0, weight_words=lanes * simd * 5)
        assert beats(buffer_stream_beats, design, p) == 5


class TestNetworkNeeds:
    def test_mlp_needs(self):
        needs = NetworkNeeds.of(load(MLP_TEXT, format="prototxt"))
        assert not needs.has_conv
        assert not needs.has_pool
        assert "sigmoid" in needs.activations

    def test_cnn_needs(self):
        from repro.zoo import mnist
        needs = NetworkNeeds.of(mnist())
        assert needs.has_conv
        assert needs.has_pool
        assert needs.has_lrn
        assert needs.has_classifier  # softmax

    def test_recurrent_flag(self):
        from repro.zoo import hopfield_net
        assert NetworkNeeds.of(hopfield_net()).has_recurrent


class TestParallelismCaps:
    def test_tiny_mlp_capped(self):
        lanes, simd = parallelism_caps(resolve(load(MLP_TEXT, format="prototxt")))
        assert lanes == 32  # widest layer has 32 outputs
        assert simd == 32   # deepest dot product is 32 inputs

    def test_conv_caps_large(self):
        from repro.zoo import mnist
        lanes, simd = parallelism_caps(resolve(mnist()))
        assert lanes >= 512   # conv output values abound
        assert simd >= 512    # 500-wide FC dot products

    def test_caps_bound_chosen_datapath(self):
        graph = load(MLP_TEXT, format="prototxt")
        design = NNGen().generate(graph, budget_fraction(Z7045, 0.9))
        lanes_cap, simd_cap = parallelism_caps(resolve(graph))
        assert design.datapath.lanes <= lanes_cap
        assert design.datapath.simd <= simd_cap


class TestDatapathConfig:
    def test_widths(self):
        config = DatapathConfig(lanes=4, simd=8,
                                data_format=DEFAULT_DATA_FORMAT,
                                weight_format=DEFAULT_WEIGHT_FORMAT)
        assert config.multipliers == 32
        assert config.data_width == 16
        assert config.weight_width == 16

    def test_rejects_empty(self):
        from repro.errors import ResourceError
        with pytest.raises(ResourceError):
            DatapathConfig(lanes=0, simd=4,
                           data_format=DEFAULT_DATA_FORMAT,
                           weight_format=DEFAULT_WEIGHT_FORMAT)
