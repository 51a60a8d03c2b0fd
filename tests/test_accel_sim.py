"""Tests for the accelerator timing simulator and energy model."""

import numpy as np
import pytest

from repro import api
from repro.compiler import DeepBurningCompiler
from repro.devices import Z7020, Z7045, budget_fraction
from repro.errors import SimulationError
from repro.frontend import load
from repro.nn.reference import ReferenceNetwork, init_weights
from repro.nngen import NNGen
from repro.sim import AcceleratorSimulator, EnergyModel
from repro.sim.power import EnergyReport
from repro.zoo.models import benchmark_graph

MLP_TEXT = """
name: "mlp"
layers { name: "data" type: DATA top: "data" param { dim: 16 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 32 } }
layers { name: "sig1" type: SIGMOID bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 8 } }
"""

CNN_TEXT = """
name: "cnn"
layers { name: "data" type: DATA top: "data" param { dim: 1 dim: 16 dim: 16 } }
layers { name: "conv1" type: CONVOLUTION bottom: "data" top: "conv1" param { num_output: 8 kernel_size: 3 stride: 1 } }
layers { name: "relu1" type: RELU bottom: "conv1" top: "conv1" }
layers { name: "pool1" type: POOLING bottom: "conv1" top: "pool1" param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "pool1" top: "ip1" param { num_output: 10 } }
"""


def simulate(text, fraction=0.3, device=Z7020, seed=0, functional=True,
             shape=None):
    graph = load(text, format="prototxt")
    weights = init_weights(graph, np.random.default_rng(seed))
    design = NNGen().generate(graph, budget_fraction(device, fraction))
    program = DeepBurningCompiler().compile(design, weights=weights)
    simulator = AcceleratorSimulator(program, weights=weights)
    rng = np.random.default_rng(seed + 1)
    inputs = rng.uniform(-1, 1, shape) if shape else None
    result = simulator.run(inputs, functional=functional)
    return graph, weights, result


class TestTiming:
    def test_positive_cycles(self):
        _, _, result = simulate(MLP_TEXT, functional=False)
        assert result.cycles > 0
        assert result.time_s == pytest.approx(result.cycles / 100e6)

    def test_all_phases_traced(self):
        graph, _, result = simulate(MLP_TEXT, functional=False)
        layers = set(result.phase_traces.layer.tolist())
        assert layers == {"ip1", "sig1", "ip2"}

    def test_traces_ordered_and_non_overlapping(self):
        _, _, result = simulate(CNN_TEXT, device=Z7045, functional=False)
        traces = result.phase_traces
        order = np.argsort(traces.start, kind="stable")
        starts = traces.start[order].tolist()
        ends = traces.end[order].tolist()
        for before_end, after_start in zip(ends, starts[1:]):
            assert after_start >= before_end

    def test_bigger_network_more_cycles(self):
        _, _, small = simulate(MLP_TEXT, functional=False)
        _, _, big = simulate(CNN_TEXT, functional=False)
        assert big.cycles > small.cycles

    def test_bigger_budget_fewer_cycles(self):
        _, _, slow = simulate(CNN_TEXT, fraction=0.1, device=Z7020,
                              functional=False)
        _, _, fast = simulate(CNN_TEXT, fraction=0.8, device=Z7045,
                              functional=False)
        assert fast.cycles < slow.cycles

    def test_cycles_at_least_compute_sum_bound(self):
        # Total time is at least the biggest single stage (load or
        # compute) and at most their serial sum, plus the fixed host
        # invocation overhead.
        _, _, result = simulate(MLP_TEXT, functional=False)
        overhead = Z7020.invocation_overhead_cycles
        compute_total = int(result.phase_traces.compute.sum())
        load_total = int(result.phase_traces.load.sum())
        assert result.cycles >= max(compute_total, load_total) * 0.99
        assert result.cycles <= compute_total + load_total + overhead + 1

    def test_traces_follow_pipeline_recurrence(self):
        """One main AGU loads folds back to back after the host's launch
        overhead; the shared datapath starts a fold once it is on chip
        and the previous fold retired.  mnist has folds waiting on
        either side; nin is compute-bound after its first fold."""
        load_bound = compute_bound = 0
        for net in ("mnist", "nin"):
            artifacts = api.build(benchmark_graph(net), device="Z-7045",
                                  fraction=0.3, weights=None)
            result = api.simulate(artifacts, functional=False)
            traces = result.phase_traces
            loads = traces.load.tolist()
            starts, ends = traces.start.tolist(), traces.end.tolist()
            computes = traces.compute.tolist()
            overhead = artifacts.budget.device.invocation_overhead_cycles
            assert starts[0] == overhead + loads[0]
            for i in range(len(traces)):
                if i:
                    loaded = overhead + sum(loads[:i + 1])
                    retired = ends[i - 1]
                    assert starts[i] == max(loaded, retired)
                    load_bound += loaded > retired
                    compute_bound += retired > loaded
                assert ends[i] == starts[i] + computes[i]
            assert result.cycles == round(ends[-1])
        assert load_bound and compute_bound

    def test_layer_cycles_accounting(self):
        _, _, result = simulate(CNN_TEXT, functional=False)
        per_layer = result.layer_cycles()
        assert per_layer["conv1"] > 0
        assert sum(per_layer.values()) == pytest.approx(
            int(result.phase_traces.compute.sum()))

    def test_summary_text(self):
        _, _, result = simulate(MLP_TEXT, functional=False)
        assert "cycles" in result.summary()


class TestFunctionalIntegration:
    def test_output_close_to_float_reference(self):
        graph, weights, result = simulate(MLP_TEXT, shape=(16,))
        reference = ReferenceNetwork(graph, weights)
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 16)
        # Re-run with the same input to compare directly.
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        program = DeepBurningCompiler().compile(design, weights=weights)
        sim = AcceleratorSimulator(program, weights=weights)
        out = sim.run(x).output
        assert np.allclose(out, reference.output(x), atol=0.05)

    def test_timing_only_has_no_output(self):
        _, _, result = simulate(MLP_TEXT, functional=False)
        with pytest.raises(SimulationError):
            _ = result.output

    def test_functional_needs_input(self):
        graph = load(MLP_TEXT, format="prototxt")
        weights = init_weights(graph)
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        program = DeepBurningCompiler().compile(design, weights=weights)
        sim = AcceleratorSimulator(program, weights=weights)
        with pytest.raises(SimulationError):
            sim.run(None, functional=True)

    def test_functional_needs_weights(self):
        graph = load(MLP_TEXT, format="prototxt")
        weights = init_weights(graph)
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        program = DeepBurningCompiler().compile(design, weights=weights)
        sim = AcceleratorSimulator(program)
        with pytest.raises(SimulationError):
            sim.run(np.zeros(16), functional=True)


class TestEnergy:
    def test_energy_positive_and_consistent(self):
        _, _, result = simulate(CNN_TEXT, functional=False)
        energy = result.energy
        assert energy.total_j > 0
        assert energy.total_j == pytest.approx(
            energy.static_j + energy.mac_j + energy.sram_j + energy.dram_j)

    def test_macs_counted(self):
        graph, _, result = simulate(MLP_TEXT, functional=False)
        # ip1: 16x32, ip2: 32x8, sigmoid: 32 "ops".
        assert result.macs >= 16 * 32 + 32 * 8

    def test_average_power_reasonable(self):
        _, _, result = simulate(CNN_TEXT, functional=False)
        watts = result.energy.average_power_w
        assert 0.05 < watts < 20.0

    def test_bigger_budget_higher_power_rate(self):
        _, _, small = simulate(CNN_TEXT, fraction=0.1, device=Z7020,
                               functional=False)
        _, _, large = simulate(CNN_TEXT, fraction=0.8, device=Z7045,
                               functional=False)
        assert (large.energy.average_power_w > small.energy.average_power_w)

    def test_energy_model_rejects_negative(self):
        model = EnergyModel(Z7020)
        with pytest.raises(SimulationError):
            model.count(np.array([-1]), np.array([0]), np.array([0]))
        with pytest.raises(SimulationError):
            model.report(-5)

    def test_energy_report_str(self):
        report = EnergyReport(time_s=0.001, static_j=1e-4, mac_j=2e-4,
                              sram_j=1e-5, dram_j=3e-5)
        assert "mJ" in str(report)
        assert report.average_power_w == pytest.approx(report.total_j / 0.001)

    def test_zero_time_power(self):
        report = EnergyReport(time_s=0.0, static_j=0, mac_j=0,
                              sram_j=0, dram_j=0)
        assert report.average_power_w == 0.0
