"""Tests for the design-space exploration engine (repro.dse)."""

import json
import os

import pytest

from repro import api
from repro.dse import (
    ESTIMATORS,
    DesignCache,
    PointResult,
    SweepPoint,
    SweepSpec,
    frontier_knee,
    knee_neighborhood,
    pareto_frontier,
    parse_qformat,
    run_sweep,
)
from repro.dse.engine import evaluate_point
from repro.errors import DeepBurningError
from repro.frontend import load
from repro.pipeline import BuildPipeline

SCRIPT = """
name: "dse_net"
layers { name: "data" type: DATA top: "data" param { dim: 8 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 16 } }
layers { name: "relu1" type: RELU bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 4 } }
"""


@pytest.fixture(scope="module")
def graph():
    return load(SCRIPT, format="prototxt")


def _ok(time_s: float, lut: int, **extra) -> PointResult:
    return PointResult(point=SweepPoint(fraction=0.3), status="ok",
                       time_s=time_s, lut=lut, **extra)


class TestSweepSpec:
    def test_points_are_cartesian_product(self):
        spec = SweepSpec(fractions=(0.1, 0.2),
                         fold_capacity_scales=(1.0, 0.5))
        points = spec.points()
        assert len(points) == 4
        assert [(p.fraction, p.fold_capacity_scale) for p in points] == [
            (0.1, 1.0), (0.1, 0.5), (0.2, 1.0), (0.2, 0.5)]

    def test_points_deterministic(self):
        spec = SweepSpec(fractions=(0.1, 0.2, 0.4))
        assert spec.points() == spec.points()

    def test_explicit_points(self):
        picked = [SweepPoint(fraction=0.1), SweepPoint(fraction=0.7)]
        assert SweepSpec.explicit(picked).points() == picked

    def test_bad_fraction_rejected(self):
        with pytest.raises(DeepBurningError):
            SweepPoint(fraction=1.5)

    def test_bad_device_rejected(self):
        with pytest.raises(DeepBurningError):
            SweepPoint(device="UltraScale")

    def test_parse_qformat(self):
        assert parse_qformat("3.12") == (3, 12)
        assert parse_qformat("Q7.8") == (7, 8)
        with pytest.raises(DeepBurningError):
            parse_qformat("16")


class TestEvaluatePoint:
    def test_feasible_point_records_metrics(self, graph):
        result = evaluate_point(graph, SweepPoint(device="Z-7020",
                                                  fraction=0.3))
        assert result.feasible
        assert result.lanes >= 1 and result.simd >= 1
        assert result.cycles > 0 and result.time_s > 0
        assert result.dsp > 0 and result.lut > 0
        assert result.energy_j > 0 and result.power_w > 0
        assert result.accuracy is None

    def test_infeasible_budget_is_structured_not_raised(self, graph):
        result = evaluate_point(graph, SweepPoint(device="Z-7020",
                                                  fraction=0.001))
        assert not result.feasible
        assert result.status == "infeasible"
        assert result.reason

    def test_functional_records_fidelity(self, graph):
        result = evaluate_point(graph, SweepPoint(device="Z-7020",
                                                  fraction=0.3),
                                functional=True, seed=0)
        assert result.feasible
        assert result.accuracy is not None
        assert 0.5 < result.accuracy <= 1.0

    def test_datapath_caps_respected(self, graph):
        capped = evaluate_point(
            graph, SweepPoint(fraction=0.4, max_lanes=1, max_simd=2))
        assert capped.feasible
        assert capped.lanes == 1 and capped.simd <= 2

    def test_fold_scale_deepens_folding(self):
        # Needs a network whose working set is tiled by the buffers; the
        # tiny test MLP fits its buffers exactly, so scaling below 1
        # would (correctly) come back infeasible there.
        from repro.zoo import mnist
        graph = mnist()
        wide = evaluate_point(graph, SweepPoint(fraction=0.2))
        deep = evaluate_point(
            graph, SweepPoint(fraction=0.2, fold_capacity_scale=0.5))
        assert deep.feasible
        assert deep.folds > wide.folds


class TestRunSweep:
    def test_infeasible_points_do_not_abort(self, graph):
        spec = SweepSpec(device="Z-7020", fractions=(0.001, 0.3))
        sweep = run_sweep(graph, spec, jobs=1)
        assert len(sweep.results) == 2
        assert not sweep.results[0].feasible
        assert sweep.results[1].feasible

    def test_results_keep_spec_order(self, graph):
        spec = SweepSpec(fractions=(0.4, 0.1, 0.2))
        sweep = run_sweep(graph, spec, jobs=1)
        assert [r.point.fraction for r in sweep.results] == [0.4, 0.1, 0.2]

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_parallel_equals_serial(self, graph, estimator):
        spec = SweepSpec(fractions=(0.001, 0.1, 0.2, 0.4))
        serial = run_sweep(graph, spec, jobs=1, estimator=estimator)
        parallel = run_sweep(graph, spec, jobs=4, use_pool=True,
                             estimator=estimator)
        assert [r.to_json() for r in serial.results] == \
            [r.to_json() for r in parallel.results]
        assert [r.point.label for r in serial.frontier()] == \
            [r.point.label for r in parallel.frontier()]

    def test_bad_jobs_rejected(self, graph):
        with pytest.raises(DeepBurningError):
            run_sweep(graph, SweepSpec(fractions=(0.2,)), jobs=0)


class TestDesignCache:
    def test_second_run_hits_everything(self, graph, tmp_path):
        spec = SweepSpec(fractions=(0.1, 0.2, 0.4))
        cold = run_sweep(graph, spec, jobs=1,
                         cache=DesignCache(str(tmp_path)))
        assert cold.cache_hits == 0 and cold.cache_misses == 3
        warm = run_sweep(graph, spec, jobs=1,
                         cache=DesignCache(str(tmp_path)))
        assert warm.cache_hits == 3 and warm.cache_misses == 0
        assert all(r.cached for r in warm.results)
        assert [r.to_json() for r in cold.results] == \
            [r.to_json() for r in warm.results]

    def test_overlapping_sweep_partially_hits(self, graph, tmp_path):
        cache = DesignCache(str(tmp_path))
        run_sweep(graph, SweepSpec(fractions=(0.1, 0.2)), jobs=1,
                  cache=cache)
        sweep = run_sweep(graph, SweepSpec(fractions=(0.2, 0.4)), jobs=1,
                          cache=cache)
        assert sweep.cache_hits == 1 and sweep.cache_misses == 1

    def test_infeasible_points_cache_too(self, graph, tmp_path):
        spec = SweepSpec(device="Z-7020", fractions=(0.001,))
        run_sweep(graph, spec, jobs=1, cache=DesignCache(str(tmp_path)))
        warm = run_sweep(graph, spec, jobs=1,
                         cache=DesignCache(str(tmp_path)))
        assert warm.cache_hits == 1
        assert not warm.results[0].feasible

    def test_different_network_misses(self, graph, tmp_path):
        cache = DesignCache(str(tmp_path))
        spec = SweepSpec(fractions=(0.2,))
        run_sweep(graph, spec, jobs=1, cache=cache)
        other = load(SCRIPT.replace("num_output: 16",
                                               "num_output: 32"), format="prototxt")
        sweep = run_sweep(other, spec, jobs=1, cache=cache)
        assert sweep.cache_misses == 1

    def test_corrupt_entry_is_a_miss(self, graph, tmp_path):
        cache = DesignCache(str(tmp_path))
        spec = SweepSpec(fractions=(0.2,))
        run_sweep(graph, spec, jobs=1, cache=cache)
        for name in os.listdir(tmp_path):
            (tmp_path / name).write_text("{broken json")
        sweep = run_sweep(graph, spec, jobs=1,
                          cache=DesignCache(str(tmp_path)))
        assert sweep.cache_misses == 1
        assert sweep.results[0].feasible

    def test_declaration_order_misses(self, graph, tmp_path):
        """Declaring relu1 after ip2 leaves the fingerprint alone but
        changes the schedule, so the reordered net's row must be its
        own, not the one the first declaration order cached."""
        reordered = load(SCRIPT.replace(
            'layers { name: "relu1" type: RELU bottom: "ip1" top: "ip1" }\n',
            "") + 'layers { name: "relu1" type: RELU bottom: "ip1" '
            'top: "ip1" }\n', format="prototxt")
        assert reordered.fingerprint() == graph.fingerprint()
        spec = SweepSpec(device="Z-7045", fractions=(0.3,), functional=True)
        cache = DesignCache(str(tmp_path))
        first = run_sweep(graph, spec, jobs=1, cache=cache)
        shared = run_sweep(reordered, spec, jobs=1, cache=cache)
        alone = run_sweep(reordered, spec, jobs=1)
        assert first.results[0].cycles != alone.results[0].cycles
        assert shared.cache_misses == 1
        assert [r.to_json() for r in shared.results] == \
            [r.to_json() for r in alone.results]

    def test_entries_are_json_files(self, graph, tmp_path):
        cache = DesignCache(str(tmp_path))
        run_sweep(graph, SweepSpec(fractions=(0.2,)), jobs=1, cache=cache)
        assert len(cache) == 1
        name = os.listdir(tmp_path)[0]
        data = json.loads((tmp_path / name).read_text())
        assert data["status"] == "ok"
        assert data["point"]["fraction"] == 0.2


class TestParetoFrontier:
    def test_hand_built_frontier(self):
        fast_big = _ok(1.0, 1000)
        slow_small = _ok(4.0, 100)
        balanced = _ok(2.0, 400)
        dominated = _ok(3.0, 500)   # worse than balanced on both axes
        frontier = pareto_frontier([fast_big, slow_small, balanced,
                                    dominated])
        assert frontier == [slow_small, balanced, fast_big]

    def test_infeasible_points_excluded(self):
        bad = PointResult(point=SweepPoint(fraction=0.01),
                          status="infeasible", reason="too small")
        frontier = pareto_frontier([bad, _ok(1.0, 100)])
        assert len(frontier) == 1 and frontier[0].feasible

    def test_duplicate_coordinates_collapse(self):
        a, b = _ok(1.0, 100), _ok(1.0, 100)
        assert len(pareto_frontier([a, b])) == 1

    def test_knee_balances_axes(self):
        frontier = [_ok(10.0, 100), _ok(2.0, 400), _ok(1.9, 5000)]
        knee = frontier_knee(pareto_frontier(frontier))
        assert knee is not None
        assert knee.time_s == 2.0 and knee.lut == 400

    def test_knee_of_empty_frontier_is_none(self):
        assert frontier_knee([]) is None


class TestSweepResultRender:
    def test_render_marks_frontier_and_cache(self, graph, tmp_path):
        spec = SweepSpec(device="Z-7020", fractions=(0.001, 0.2, 0.4))
        sweep = run_sweep(graph, spec, jobs=1,
                          cache=DesignCache(str(tmp_path)))
        text = sweep.render(title="test sweep")
        assert "test sweep" in text
        assert "infeasible" in text
        assert "cache:" in text
        assert "knee" in text

    def test_result_json_roundtrip(self, graph):
        result = evaluate_point(graph, SweepPoint(fraction=0.2))
        restored = PointResult.from_json(result.to_json(), cached=True)
        assert restored.as_cached() == restored
        assert restored.to_json() == result.to_json()
        assert restored.cached


class TestStaticFilter:
    """The static verifier as a pre-simulation filter: same frontier,
    fewer points simulated."""

    SPEC_AXES = dict(fractions=(0.1, 0.3),
                     # Q0.20 cannot hold even one Q3.12 product in the
                     # 32-bit accumulator, so the verifier rejects it.
                     data_formats=((7, 8), (0, 20)))

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_filtered_sweep_preserves_the_frontier(self, estimator):
        from repro.zoo.models import benchmark_graph
        graph = benchmark_graph("ann0")
        plain = run_sweep(graph, SweepSpec(**self.SPEC_AXES), jobs=1)
        filtered = run_sweep(
            graph, SweepSpec(static_filter=True, **self.SPEC_AXES), jobs=1,
            estimator=estimator)

        def coords(sweep):
            return [(r.point.label, r.time_s, r.lut)
                    for r in sweep.frontier()]

        assert coords(filtered) == coords(plain)
        assert len(filtered.rejected) == 2
        assert not plain.rejected
        # A rejected row carries the label of the evaluator that built it.
        label = "exact" if estimator == "exact" else "analytic"
        assert {r.estimator for r in filtered.rejected} == {label}

    def test_rejection_carries_the_verifier_locus(self, graph):
        spec = SweepSpec.explicit(
            [SweepPoint(fraction=0.3, data_bits=(0, 20))],
            static_filter=True)
        sweep = run_sweep(graph, spec, jobs=1)
        (result,) = sweep.results
        assert result.status == "rejected"
        assert not result.feasible
        assert "range.accumulator-overflow" in (result.reason or "")
        assert "static filter: 1 points rejected" in sweep.render()

    def test_cache_key_distinguishes_filtered_sweeps(self):
        point = SweepPoint(fraction=0.3)
        assert DesignCache.key("fp", point) != \
            DesignCache.key("fp", point, static_filter=True)


def _pt(fraction: float, time_s: float, lut: int) -> PointResult:
    return PointResult(point=SweepPoint(fraction=fraction), status="ok",
                       time_s=time_s, lut=lut)


class TestEstimatorModes:
    """Analytic and hybrid evaluation through the sweep engine."""

    AXES = dict(device="Z-7020", fractions=(0.1, 0.2, 0.3, 0.4),
                max_lanes=(0, 8))

    def test_estimators_export(self):
        assert ESTIMATORS == ("exact", "analytic", "hybrid")

    def test_analytic_matches_exact_on_every_field(self, graph):
        """Same canonical record per point; only the provenance differs."""
        exact = run_sweep(graph, SweepSpec(**self.AXES), jobs=1)
        analytic = run_sweep(graph, SweepSpec(**self.AXES), jobs=1,
                             estimator="analytic")
        assert analytic.estimator == "analytic"
        for e, a in zip(exact.results, analytic.results):
            assert a.estimator == "analytic"
            assert a.to_json() == dict(e.to_json(), estimator="analytic")

    def test_hybrid_frontier_bit_identical_to_exact(self, graph):
        spec = SweepSpec(**self.AXES)
        exact = run_sweep(graph, spec, jobs=1)
        hybrid = run_sweep(graph, spec, jobs=1, estimator="hybrid")
        assert hybrid.estimator == "hybrid"
        assert 0 < hybrid.replayed <= len(spec.points())
        assert ([r.to_json() for r in hybrid.frontier()]
                == [r.to_json() for r in exact.frontier()])
        for result in hybrid.frontier():
            assert result.estimator == "exact"

    def test_stage_split_names_the_evaluator(self, graph):
        exact = evaluate_point(graph, SweepPoint(fraction=0.3))
        analytic = evaluate_point(graph, SweepPoint(fraction=0.3),
                                  estimator="analytic")
        assert "simulate_s" in exact.stage_s
        assert "estimate_s" in analytic.stage_s
        assert "simulate_s" not in analytic.stage_s

    def test_unknown_estimator_rejected(self, graph):
        with pytest.raises(DeepBurningError, match="unknown estimator"):
            evaluate_point(graph, SweepPoint(fraction=0.3),
                           estimator="magic")

    def test_analytic_with_functional_rejected(self, graph):
        with pytest.raises(DeepBurningError, match="never executes"):
            run_sweep(graph, SweepSpec(fractions=(0.3,), functional=True),
                      jobs=1, estimator="analytic")

    def test_analytic_and_hybrid_share_the_compile_stage(self, graph):
        """Every mode builds through the memoized compile stage: one
        compile per distinct compile key among the design groups, and a
        hybrid replay compiles nothing its analytic pass did not
        already compile."""
        spec = SweepSpec(**self.AXES)
        pipe = BuildPipeline()
        analytic = run_sweep(graph, spec, jobs=1, pipeline=pipe,
                             estimator="analytic")
        groups = (len(spec.points()) - analytic.design_shared
                  - analytic.deduped)
        probe = BuildPipeline()
        programs = {
            api.build(graph, device=point.device, fraction=point.fraction,
                      max_lanes=point.max_lanes, weights=None,
                      pipeline=probe).stage_keys["compile"]
            for point in spec.points()}
        assert "reduce" not in pipe.cache.stats
        assert pipe.cache.stats["compile"].misses == len(programs) <= groups
        fresh = BuildPipeline()
        hybrid = run_sweep(graph, spec, jobs=1, pipeline=fresh,
                           estimator="hybrid")
        assert hybrid.replayed > 0
        assert fresh.cache.stats["compile"].misses == len(programs)

    def test_hybrid_counts_each_point_once_in_the_cache(self, tmp_path):
        from repro.zoo.models import benchmark_graph
        graph = benchmark_graph("cifar")
        spec = SweepSpec(fractions=(0.1, 0.3, 0.6, 1.0), max_lanes=(0, 8),
                         max_simd=(0, 16))
        cold = run_sweep(graph, spec, jobs=1,
                         cache=DesignCache(str(tmp_path)),
                         estimator="hybrid")
        assert (cold.cache_hits, cold.cache_misses) == (0, 16)
        warm = run_sweep(graph, spec, jobs=1,
                         cache=DesignCache(str(tmp_path)),
                         estimator="hybrid")
        assert (warm.cache_hits, warm.cache_misses) == (16, 0)
        assert [r.to_json() for r in warm.results] == \
            [r.to_json() for r in cold.results]
        replayed = [r for r in warm.results if r.estimator == "exact"]
        assert len(replayed) == cold.replayed > 0
        assert {r.point.label for r in warm.frontier()} <= \
            {r.point.label for r in replayed}

    def test_cache_key_distinguishes_estimators(self):
        point = SweepPoint(fraction=0.3)
        assert DesignCache.key("fp", point) != \
            DesignCache.key("fp", point, estimator="analytic")

    def test_analytic_cache_entries_do_not_serve_exact_sweeps(
            self, graph, tmp_path):
        cache = DesignCache(str(tmp_path))
        spec = SweepSpec(fractions=(0.3,))
        run_sweep(graph, spec, jobs=1, cache=cache, estimator="analytic")
        sweep = run_sweep(graph, spec, jobs=1, cache=cache)
        (result,) = sweep.results
        assert not result.cached and result.estimator == "exact"


class TestOneTiming:
    """Every mode reports the memoized timing of the compiled program;
    the simulator runs only for a functional point's output."""

    AXES = dict(device="Z-7020", fractions=(0.1, 0.3), max_lanes=(0, 8))

    def test_timing_only_exact_sweep_builds_no_simulator(self, graph,
                                                         monkeypatch):
        from repro.sim.accel import AcceleratorSimulator

        built = []
        init = AcceleratorSimulator.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AcceleratorSimulator, "__init__", counted)
        sweep = run_sweep(graph, SweepSpec(**self.AXES), jobs=1,
                          pipeline=BuildPipeline())
        assert all(row.status == "ok" for row in sweep.results)
        assert built == []

    def test_functional_sweep_reports_the_timing_only_figures(self, graph):
        timing = run_sweep(graph, SweepSpec(**self.AXES), jobs=1,
                           pipeline=BuildPipeline())
        functional = run_sweep(graph, SweepSpec(functional=True,
                                                **self.AXES),
                               jobs=1, pipeline=BuildPipeline())
        assert all(row.accuracy is not None for row in functional.results)
        assert [(row.cycles, row.energy_j) for row in functional.results] \
            == [(row.cycles, row.energy_j) for row in timing.results]


class TestKneeDeterminism:
    def test_knee_tie_resolves_by_label(self):
        """Two points equidistant from the normalized origin: the
        lexicographically smaller label wins, whatever the order."""
        a = _pt(0.2, time_s=1.0, lut=400)   # normalized (0, 1)
        b = _pt(0.4, time_s=4.0, lut=100)   # normalized (1, 0)
        assert frontier_knee([a, b]) is a
        assert frontier_knee([b, a]) is a

    def test_neighborhood_excludes_knee_and_sorts_by_distance(self):
        near = _pt(0.1, time_s=2.0, lut=300)
        knee = _pt(0.2, time_s=2.0, lut=400)
        far = _pt(0.4, time_s=8.0, lut=900)
        hood = knee_neighborhood([near, knee, far], knee, count=2)
        assert hood == [near, far]
        assert knee not in hood

    def test_neighborhood_tie_resolves_by_label(self):
        knee = _pt(0.3, time_s=2.0, lut=400)
        left = _pt(0.2, time_s=1.0, lut=500)
        right = _pt(0.4, time_s=3.0, lut=300)
        assert knee_neighborhood([right, knee, left], knee, count=1) == \
            knee_neighborhood([left, knee, right], knee, count=1) == [left]

    def test_frontier_independent_of_input_order(self):
        import random
        points = [_pt(round(0.05 * i, 2), time_s=float((i * 7) % 11 + 1),
                      lut=100 * ((i * 3) % 13 + 1)) for i in range(1, 13)]
        baseline = pareto_frontier(points)
        shuffled = points[:]
        random.Random(7).shuffle(shuffled)
        assert pareto_frontier(shuffled) == baseline
