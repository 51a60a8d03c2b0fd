"""Tests for the analytic latency/energy estimator (repro.estimate)."""

from dataclasses import fields

import numpy as np
import pytest

from repro import api
from repro.estimate import AnalyticEstimator, cross_validate
from repro.estimate.validate import zoo_networks
from repro.pipeline import BuildPipeline
from repro.sim.accel import FoldColumns, program_columns
from repro.zoo.models import benchmark_graph

#: Zoo nets covering every datapath shape the estimator models: plain
#: dense, conv+pool+LRN, depthwise/eltwise (modern), recurrent.
SPOT_CHECK_NETS = ("mnist", "cifar", "mobilenet_tiny", "resnet_tiny",
                   "hopfield")


@pytest.fixture(scope="module")
def mnist_artifacts():
    return api.build(benchmark_graph("mnist"), device="Z-7045",
                     fraction=0.3, weights=None)


class TestEstimate:
    def test_matches_simulator_exactly_on_mnist(self, mnist_artifacts):
        sim = api.simulate(mnist_artifacts, functional=False)
        est = api.estimate(mnist_artifacts)
        assert est.cycles == sim.cycles
        assert est.time_s == sim.time_s
        assert est.macs == sim.macs
        assert est.dram_words == sim.dram_words
        assert est.energy.total_j == sim.energy.total_j
        assert est.energy.average_power_w == sim.energy.average_power_w

    def test_phase_trace_mirrors_simulator(self, mnist_artifacts):
        sim = api.simulate(mnist_artifacts, functional=False)
        est = api.estimate(mnist_artifacts)
        assert est.phase_traces == sim.phase_traces
        assert est.outputs is None

    def test_deterministic(self, mnist_artifacts):
        first = api.estimate(mnist_artifacts)
        second = api.estimate(mnist_artifacts)
        assert first.cycles == second.cycles
        assert first.phase_traces == second.phase_traces
        assert first.energy.total_j == second.energy.total_j

    def test_layer_helpers_match_simulator(self, mnist_artifacts):
        sim = api.simulate(mnist_artifacts, functional=False)
        est = api.estimate(mnist_artifacts)
        peak = mnist_artifacts.design.datapath.multipliers
        assert est.layer_cycles() == sim.layer_cycles()
        assert est.layer_report(peak) == sim.layer_report(peak)
        assert "bound" in est.layer_report()

    def test_estimator_object_reusable(self, mnist_artifacts):
        estimator = AnalyticEstimator(mnist_artifacts.design)
        assert estimator.report().cycles == estimator.report().cycles


class TestCrossValidation:
    def test_zoo_networks_cover_the_registry(self):
        names = zoo_networks()
        assert len(names) >= 12
        for net in SPOT_CHECK_NETS:
            assert net in names

    def test_all_zoo_nets_within_tolerance(self):
        """The CI gate: ≤5% relative cycle error and matching MAC/DRAM
        counters on every zoo net, modern depthwise/eltwise included."""
        report = cross_validate(tolerance=0.05)
        assert len(report.rows) == len(zoo_networks())
        assert report.ok, report.render()
        assert report.max_rel_error <= 0.05
        for row in report.rows:
            assert row.counters_match, row.network

    def test_zoo_nets_match_phase_by_phase(self):
        """The one contract left between the two paths: the estimator's
        per-fold traffic equals what the compiled address plans move;
        given that, the shared recurrence makes everything else equal."""
        pipe = BuildPipeline()
        for net in zoo_networks():
            artifacts = api.build(benchmark_graph(net), device="Z-7045",
                                  fraction=0.3, weights=None,
                                  pipeline=pipe)
            estimator = AnalyticEstimator(artifacts.design)
            states = artifacts.program.coordinator.states
            recorded = np.array([(state.read_words, state.write_words,
                                  len(state.main), state.replay_words)
                                 for state in states])
            derived = np.array([estimator.phase_traffic(state.phase)
                                for state in states])
            wrong = np.flatnonzero((recorded != derived).any(axis=1))
            assert not len(wrong), [
                (net, states[i].phase.layer, states[i].phase.phase_index)
                for i in wrong[:5]]
            compiled = program_columns(artifacts.program)
            columns = estimator.fold_columns()
            for column in fields(FoldColumns):
                assert np.array_equal(getattr(columns, column.name),
                                      getattr(compiled, column.name)), \
                    (net, column.name)
            sim = api.simulate(artifacts, functional=False)
            est = api.estimate(artifacts)
            assert est.phase_traces == sim.phase_traces, net
            assert est.energy.total_j == sim.energy.total_j, net

    def test_report_json_shape(self):
        report = cross_validate(networks=["mnist"], tolerance=0.05)
        data = report.to_json()
        assert data["ok"] is True
        assert data["tolerance"] == 0.05
        assert set(data["per_net"]) == {"mnist"}
        assert data["max_rel_cycle_error"] == data["mean_rel_cycle_error"]

    def test_render_mentions_pass(self):
        report = cross_validate(networks=["mnist"])
        assert "PASS" in report.render()


class TestFoldScaleProperties:
    """Monotonicity in the fold-capacity scale.

    Shrinking the scale tightens per-fold capacity, so the schedule
    can only get deeper (more folds) — and the estimate must keep
    tracking the simulator exactly at every depth.  Total *cycles* are
    not strictly monotone in the scale (the fold quantization can
    trade a shorter pipeline for worse load/compute overlap), which is
    a property of the schedule itself, not of the estimator.
    """

    SCALES = (0.5, 0.75, 1.0)

    def test_folds_monotone_and_cycles_exact(self):
        graph = benchmark_graph("mnist")
        folds = []
        for scale in self.SCALES:
            artifacts = api.build(graph, device="Z-7045", fraction=0.3,
                                  weights=None, fold_capacity_scale=scale)
            folds.append(len(artifacts.design.folding))
            sim = api.simulate(artifacts, functional=False)
            est = api.estimate(artifacts)
            assert est.cycles == sim.cycles, f"scale {scale}"
        assert folds == sorted(folds, reverse=True)
        assert folds[0] > folds[-1]
