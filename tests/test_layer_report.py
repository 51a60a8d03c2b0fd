"""Tests for the per-layer performance report."""

import hashlib

import pytest

from repro import api
from repro.compiler import DeepBurningCompiler
from repro.devices import Z7045, budget_fraction
from repro.nngen import NNGen
from repro.sim import AcceleratorSimulator
from repro.zoo import mnist
from repro.zoo.models import benchmark_graph

#: sha256 of ``layer_report(multipliers)`` at Z-7045 fraction 0.3, as
#: the per-fold trace records printed it before the traces became
#: columns: the group-by must reproduce the text byte for byte.
PINNED_REPORTS = {
    "nin": "68eb9f9b8aec3f4338f069499f00d3b7c2c4e3edcc6ef5653cca7dc874fbbefd",
    "alexnet":
        "ef64d6e9944fd68a5f331728883940bb818e495c57159b3512c751f88ea3b891",
}


@pytest.fixture(scope="module")
def result_and_design():
    design = NNGen().generate(mnist(), budget_fraction(Z7045, 0.3))
    program = DeepBurningCompiler().compile(design)
    result = AcceleratorSimulator(program).run(functional=False)
    return result, design


class TestLayerReport:
    def test_every_layer_present(self, result_and_design):
        result, design = result_and_design
        report = result.layer_report()
        for spec in design.graph.layers:
            if spec.kind.value != "DATA":
                assert spec.name in report

    def test_bound_column(self, result_and_design):
        result, _ = result_and_design
        report = result.layer_report()
        assert "compute" in report or "memory" in report

    def test_utilization_column(self, result_and_design):
        result, design = result_and_design
        report = result.layer_report(
            peak_macs_per_cycle=design.datapath.multipliers)
        assert "util" in report.splitlines()[0]
        assert "%" in report

    def test_utilization_bounded(self, result_and_design):
        result, design = result_and_design
        peak = design.datapath.multipliers
        macs_per_layer = {}
        compute_per_layer = {}
        traces = result.phase_traces
        for layer, macs, compute in zip(traces.layer.tolist(),
                                        traces.macs.tolist(),
                                        traces.compute.tolist()):
            macs_per_layer[layer] = macs_per_layer.get(layer, 0) + macs
            compute_per_layer[layer] = \
                compute_per_layer.get(layer, 0) + compute
        for layer, macs in macs_per_layer.items():
            utilization = macs / max(1, compute_per_layer[layer]) / peak
            assert utilization <= 1.0 + 1e-9, layer

    def test_conv_layers_better_utilized_than_activations(self,
                                                          result_and_design):
        result, design = result_and_design
        peak = design.datapath.multipliers
        per = {}
        traces = result.phase_traces
        for layer, macs, compute in zip(traces.layer.tolist(),
                                        traces.macs.tolist(),
                                        traces.compute.tolist()):
            entry = per.setdefault(layer, [0, 0])
            entry[0] += macs
            entry[1] += compute

        def util(layer):
            macs, cycles = per[layer]
            return macs / max(1, cycles) / peak

        assert util("conv2") > util("relu1")

    def test_trace_macs_sum_to_total(self, result_and_design):
        result, _ = result_and_design
        assert int(result.phase_traces.macs.sum()) == result.macs


@pytest.mark.parametrize("net", sorted(PINNED_REPORTS))
def test_report_text_pinned(net):
    artifacts = api.build(benchmark_graph(net), device="Z-7045",
                          fraction=0.3, weights=None)
    result = api.simulate(artifacts, functional=False)
    report = result.layer_report(artifacts.design.datapath.multipliers)
    assert hashlib.sha256(report.encode()).hexdigest() == \
        PINNED_REPORTS[net]
