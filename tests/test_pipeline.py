"""Tests for the stage-memoized build pipeline (repro.pipeline).

Two properties anchor everything here:

* **Transparency** — memoization never changes an answer.  Cold, warm,
  serial and pooled sweeps must be byte-identical, and the staged
  facade must equal a hand-wired monolithic chain.
* **Exactness** — a changed input invalidates exactly the stages that
  depend on it, no more and no fewer.
"""

import gc
import sys
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro import api
from repro.analysis import verify_artifacts
from repro.dse import SweepPoint, SweepSpec, run_sweep
from repro.errors import ShapeError
from repro.fixedpoint.format import QFormat
from repro.frontend import load, resolver
from repro.pipeline import (
    BuildPipeline,
    StageCache,
    reset_default_pipeline,
    stage_key,
)
from repro.runtime.model import CompiledModel
from repro.sim.plan import ExecutionPlan
from repro.zoo.models import benchmark_graph


@pytest.fixture(scope="module")
def mnist():
    return benchmark_graph("mnist")


@pytest.fixture(autouse=True)
def fresh_default_pipeline():
    """Isolate each test from the process-wide stage cache."""
    reset_default_pipeline()
    yield
    reset_default_pipeline()


def _count_plan_builds(monkeypatch, delay_s: float = 0.0) -> list:
    """Patch :meth:`ExecutionPlan.build` to log (and optionally slow
    down) every plan packing; returns the log."""
    packs: list = []
    build = ExecutionPlan.build

    def logged(*args, **kwargs):
        packs.append(threading.get_ident())
        time.sleep(delay_s)
        return build(*args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "build", staticmethod(logged))
    return packs


def _misses(pipe: BuildPipeline) -> dict[str, int]:
    return {stage: stats.misses for stage, stats in pipe.cache.stats.items()}


def _delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {stage: after.get(stage, 0) - before.get(stage, 0)
            for stage in after
            if after.get(stage, 0) != before.get(stage, 0)}


class TestStageKeys:
    def test_key_is_deterministic_and_field_sensitive(self):
        assert stage_key("weights", fp="abc", seed=0) == \
            stage_key("weights", fp="abc", seed=0)
        assert stage_key("weights", fp="abc", seed=0) != \
            stage_key("weights", fp="abc", seed=1)
        assert stage_key("weights", fp="abc", seed=0) != \
            stage_key("shapes", fp="abc", seed=0)

    def test_cache_is_bounded_lru(self):
        cache = StageCache(max_entries=2)
        for n in range(4):
            cache.get_or_build("s", str(n), lambda n=n: n)
        assert len(cache) == 2
        value, seconds = cache.get_or_build("s", "3", lambda: -1)
        assert value == 3 and seconds == 0.0  # newest survived


class TestStageInvalidation:
    """A changed input busts exactly the dependent stages."""

    def test_identical_build_hits_every_stage(self, mnist):
        pipe = BuildPipeline()
        api.build(mnist, fraction=0.2, pipeline=pipe)
        before = _misses(pipe)
        second = api.build(mnist, fraction=0.2, pipeline=pipe)
        assert _delta(before, _misses(pipe)) == {}
        assert all(second.stage_seconds[stage] == 0.0
                   for stage in ("nngen_s", "quantize_s", "compile_s"))

    def test_fraction_change_keeps_weight_stages(self, mnist):
        pipe = BuildPipeline()
        api.build(mnist, fraction=0.2, pipeline=pipe)
        before = _misses(pipe)
        api.build(mnist, fraction=0.4, pipeline=pipe)
        delta = _delta(before, _misses(pipe))
        # New budget: new datapath, design, compiled core.  Same seed
        # and weight format: the float weights survive, and the DRAM
        # image is rebuilt only if the realized SIMD width moved.
        assert {"datapath", "design", "compile"} <= set(delta)
        assert set(delta) <= {"datapath", "design", "compile", "dram"}
        assert "weights" not in delta

    def test_lane_caps_collapse_onto_one_design(self, mnist):
        pipe = BuildPipeline()
        api.build(mnist, fraction=0.2, pipeline=pipe)
        before = _misses(pipe)
        # mnist at 20% realizes 8 lanes; a cap of 1024 clamps to the
        # same effective datapath, so nothing new is built.
        api.build(mnist, fraction=0.2, max_lanes=1024, pipeline=pipe)
        assert _delta(before, _misses(pipe)) == {}

    def test_seed_change_busts_only_weight_values(self, mnist):
        pipe = BuildPipeline()
        api.build(mnist, fraction=0.2, seed=0, pipeline=pipe)
        before = _misses(pipe)
        api.build(mnist, fraction=0.2, seed=1, pipeline=pipe)
        delta = _delta(before, _misses(pipe))
        # Weight init and the quantized DRAM image depend on the seed;
        # the design and compiled core do not.
        assert set(delta) == {"weights", "dram"}

    def test_weight_format_change_busts_quantization_chain(self, mnist):
        pipe = BuildPipeline()
        api.build(mnist, fraction=0.2, pipeline=pipe)
        before = _misses(pipe)
        api.build(mnist, fraction=0.2, weight_format=QFormat(4, 11),
                  pipeline=pipe)
        delta = _delta(before, _misses(pipe))
        # The format reaches the datapath choice, the realized design,
        # its compiled core and the DRAM image — but seeded float
        # weights are format-independent.
        assert set(delta) == {"datapath", "design", "compile", "dram"}
        assert "weights" not in delta

    def test_timing_only_build_skips_weight_materialization(self, mnist):
        pipe = BuildPipeline()
        artifacts = api.build(mnist, fraction=0.2, weights=None,
                              pipeline=pipe)
        assert artifacts.weights is None
        assert artifacts.program.dram_image is None
        assert "weights" not in pipe.cache.stats
        assert "dram" not in pipe.cache.stats


class TestResolveOnce:
    """The graph is lowered once per build; every later stage reads
    the resolved graph the design carries."""

    def test_build_resolves_once_and_readers_never(self, monkeypatch):
        """One ``lower`` per cold build: the resolve stage validates the
        lowering the fingerprint hashed."""
        graph = benchmark_graph("nin")
        pipe = BuildPipeline()
        lowered = []
        lower = resolver.lower

        def counting(target):
            lowered.append(target.name)
            return lower(target)

        monkeypatch.setattr(resolver, "lower", counting)
        artifacts = api.build(graph, pipeline=pipe)
        assert lowered == ["nin"]
        lowered.clear()
        verify_artifacts(artifacts)
        api.simulate(artifacts)
        assert lowered == []

    def test_fingerprint_memo_keeps_no_graph_alive(self, mnist):
        pipe = BuildPipeline()
        graph = replace(mnist, name="transient")
        pipe.fingerprint(graph)
        alive = weakref.ref(graph)
        del graph
        gc.collect()
        assert alive() is None

    def test_fingerprint_memo_keeps_no_failing_graph_alive(self):
        """A graph that loads but breaks a shape rule raises a fresh
        error on every resolve, so no held traceback pins the graph."""
        graph = load("\n".join([
            'name: "too_many_classes"',
            'layers { name: "data" type: DATA top: "data" '
            'param { dim: 8 } }',
            'layers { name: "ip1" type: INNER_PRODUCT bottom: "data" '
            'top: "ip1" param { num_output: 4 } }',
            'layers { name: "cls" type: CLASSIFIER bottom: "ip1" '
            'top: "cls" param { top_k: 9 } }']), format="prototxt")
        pipe = BuildPipeline()
        fp = pipe.fingerprint(graph)
        errors = []
        for _ in range(2):
            with pytest.raises(ShapeError, match="top_k 9") as caught:
                pipe.resolve(graph, fp)
            errors.append(caught.value)
        assert errors[0] is not errors[1]
        alive = weakref.ref(graph)
        del graph, caught, errors
        gc.collect()
        assert alive() is None


class TestTransparency:
    """Memoization is invisible in the results."""

    def test_warm_build_equals_cold_build(self, mnist):
        pipe = BuildPipeline()
        cold = api.build(mnist, fraction=0.2, pipeline=pipe)
        warm = api.build(mnist, fraction=0.2, pipeline=pipe)
        assert cold == warm
        cold_out = api.simulate(cold).output
        warm_out = api.simulate(warm).output
        np.testing.assert_array_equal(cold_out, warm_out)

    def test_staged_build_equals_private_pipeline_build(self, mnist):
        shared = api.build(mnist, fraction=0.3)
        private = api.build(mnist, fraction=0.3,
                            pipeline=BuildPipeline(StageCache(max_entries=0)))
        # Component instances compare by identity; the content-addressed
        # design key is the value-level comparison.
        assert shared.stage_keys == private.stage_keys
        assert shared.design.datapath == private.design.datapath
        assert set(shared.weights) == set(private.weights)
        for name, tensors in shared.weights.items():
            for key, value in tensors.items():
                np.testing.assert_array_equal(value,
                                              private.weights[name][key])
        np.testing.assert_array_equal(
            api.simulate(shared).output, api.simulate(private).output)

    def test_same_topology_under_another_name_reports_its_own(self, mnist):
        """The fingerprint excludes the network name, so the second
        build reuses the first one's design; it must still name its own
        graph."""
        pipe = BuildPipeline()
        api.build(mnist, fraction=0.2, pipeline=pipe)
        before = _misses(pipe)
        renamed = api.build(replace(mnist, name="renamed_net"),
                            fraction=0.2, pipeline=pipe)
        assert _delta(before, _misses(pipe)) == {}
        assert "'renamed_net'" in renamed.design.summary()
        assert "'renamed_net'" in renamed.program.summary()
        assert renamed.program.design is renamed.design

    @pytest.mark.parametrize("first, second", [
        (("relu1", "RELU"), ("sig1", "SIGMOID")),
        (("relu1", "RELU"), ("ip2", "INNER_PRODUCT")),
    ], ids=["writer-order", "reader-order"])
    def test_declaration_order_of_in_place_writes_is_kept(self, first,
                                                         second):
        """Two graphs that differ only in the declaration order of an
        in-place write to ``ip1`` and its neighbour share a fingerprint
        and a design, but each build runs its own graph."""
        def script(order):
            lines = {
                "relu1": 'layers { name: "relu1" type: RELU '
                         'bottom: "ip1" top: "ip1" }',
                "sig1": 'layers { name: "sig1" type: SIGMOID '
                        'bottom: "ip1" top: "ip1" }',
                "ip2": 'layers { name: "ip2" type: INNER_PRODUCT '
                       'bottom: "ip1" top: "ip2" param { num_output: 4 } }',
            }
            tail = [name for name in ("relu1", "sig1", "ip2")
                    if name not in order]
            return "\n".join([
                'name: "order_net"',
                'layers { name: "data" type: DATA top: "data" '
                'param { dim: 8 } }',
                'layers { name: "ip1" type: INNER_PRODUCT bottom: "data" '
                'top: "ip1" param { num_output: 16 } }',
                *(lines[name] for name in (*order, *tail))])

        names = (first[0], second[0])
        graphs = [load(script(names), format="prototxt"),
                  load(script(names[::-1]), format="prototxt")]
        assert graphs[0].fingerprint() == graphs[1].fingerprint()
        shared = BuildPipeline()
        outputs = []
        for graph in graphs:
            artifacts = api.build(graph, pipeline=shared)
            private = api.build(graph, pipeline=BuildPipeline())
            got = api.simulate(artifacts, all_blobs=True).outputs
            want = api.simulate(private, all_blobs=True).outputs
            assert got.keys() == want.keys()
            for blob in want:
                np.testing.assert_array_equal(got[blob], want[blob])
            (batched,) = api.simulate_batch(artifacts,
                                            [artifacts.random_input()])
            np.testing.assert_array_equal(batched.output, got["ip2"])
            outputs.append(got["ip2"])
        assert not np.array_equal(outputs[0], outputs[1])

    @pytest.mark.parametrize("first, second", [
        ("ipa", "ipb"),
        ("relu1", "ip2"),
    ], ids=["concat-branches", "reader-order"])
    def test_declaration_order_reaches_the_seeded_stages(self, first,
                                                         second):
        """Two graphs that differ only in the declaration order of two
        layers share a fingerprint.  ``concat-branches`` swaps the two
        branches into one concat, which swaps the order the seeded
        weights are drawn in and the blobs and weights are laid out in;
        ``reader-order`` swaps an in-place writer and a reader of its
        blob, which changes what the float reference computes.  Built
        on one shared pipeline, each graph must get what a private
        pipeline gives it."""
        lines = {
            "ipa": 'layers { name: "ipa" type: INNER_PRODUCT '
                   'bottom: "data" top: "ipa" param { num_output: 6 } }',
            "ipb": 'layers { name: "ipb" type: INNER_PRODUCT '
                   'bottom: "data" top: "ipb" param { num_output: 5 } }',
            "cat": 'layers { name: "cat" type: CONCAT bottom: "ipa" '
                   'bottom: "ipb" top: "cat" }',
            "relu1": 'layers { name: "relu1" type: RELU '
                     'bottom: "cat" top: "cat" }',
            "ip2": 'layers { name: "ip2" type: INNER_PRODUCT '
                   'bottom: "cat" top: "ip2" param { num_output: 4 } }',
        }

        def script(swap):
            names = ["ipa", "ipb", "cat", "relu1", "ip2"]
            if swap:
                i, j = names.index(first), names.index(second)
                names[i], names[j] = names[j], names[i]
            return "\n".join([
                'name: "order_net"',
                'layers { name: "data" type: DATA top: "data" '
                'param { dim: 8 } }',
                *(lines[name] for name in names)])

        graphs = [load(script(swap), format="prototxt")
                  for swap in (False, True)]
        assert graphs[0].fingerprint() == graphs[1].fingerprint()
        shared = BuildPipeline()
        references = []
        for graph in graphs:
            got = api.build(graph, pipeline=shared)
            private_pipe = BuildPipeline()
            want = api.build(graph, pipeline=private_pipe)
            assert got.weights.keys() == want.weights.keys()
            for layer, tensors in want.weights.items():
                assert got.weights[layer].keys() == tensors.keys()
                for key, value in tensors.items():
                    np.testing.assert_array_equal(
                        got.weights[layer][key], value,
                        err_msg=f"{layer}/{key}")
            np.testing.assert_array_equal(got.program.dram_image,
                                          want.program.dram_image)
            np.testing.assert_array_equal(api.simulate(got).output,
                                          api.simulate(want).output)
            reference = shared.reference_output(got)
            np.testing.assert_array_equal(
                reference, private_pipe.reference_output(want))
            references.append(reference)
        if first == "relu1":
            assert not np.array_equal(references[0], references[1])

    def test_shared_plan_outputs_match_private_plan(self, mnist,
                                                    monkeypatch):
        model = CompiledModel.build(mnist, fraction=0.2,
                                    pipeline=BuildPipeline())
        flushed: list = []
        forward = ExecutionPlan.forward_batch_raw

        def logged(plan, *args, **kwargs):
            flushed.append(plan)
            return forward(plan, *args, **kwargs)

        monkeypatch.setattr(ExecutionPlan, "forward_batch_raw", logged)
        inputs = model.artifacts.random_input()
        (shared,) = model.new_session().run_batch([inputs])
        # The session's one flush ran on the model's shared plan.
        assert len(flushed) == 1 and flushed[0] is model.execution_plan
        (private,) = api.simulator(model.artifacts).run_batch([inputs])
        per_sample = api.simulator(model.artifacts).run(inputs)
        np.testing.assert_array_equal(shared.output, private.output)
        np.testing.assert_array_equal(shared.output, per_sample.output)

    def test_functional_sweep_builds_no_plan(self, mnist, monkeypatch):
        """A functional DSE point runs the per-sample executor, so the
        sweep must not pack a plan it never reads."""
        packs = _count_plan_builds(monkeypatch)
        sweep = run_sweep(mnist, SweepSpec(functional=True,
                                           fractions=(0.1, 0.3)),
                          jobs=1, pipeline=BuildPipeline())
        assert [r.status for r in sweep.results] == ["ok", "ok"]
        assert all(r.accuracy is not None for r in sweep.results)
        assert packs == []


NETS = ("mnist", "ann0")
SWEEP_AXES = dict(fractions=(0.1, 0.3), max_lanes=(0, 8))


def _canonical(sweep):
    return [result.to_json() for result in sweep.results]


class TestSweepByteIdentity:
    """serial-cold == serial-warm == parallel(--jobs 2), per zoo net."""

    @pytest.mark.parametrize("net", NETS)
    def test_cold_warm_parallel_identical(self, net):
        graph = benchmark_graph(net)
        spec = SweepSpec(functional=True, **SWEEP_AXES)
        pipe = BuildPipeline()
        serial_cold = run_sweep(graph, spec, jobs=1, pipeline=pipe)
        before = _misses(pipe)
        assert any(before.values())
        serial_warm = run_sweep(graph, spec, jobs=1, pipeline=pipe)
        # The warm re-sweep is served entirely from the stage cache.
        assert _delta(before, _misses(pipe)) == {}
        parallel = run_sweep(graph, spec, jobs=2,
                             pipeline=BuildPipeline(), use_pool=True)
        assert _canonical(serial_cold) == _canonical(serial_warm)
        assert _canonical(serial_cold) == _canonical(parallel)

    def test_seed_change_changes_functional_results_only(self):
        graph = benchmark_graph("mnist")
        base = run_sweep(graph, SweepSpec(functional=True,
                                          fractions=(0.2,), seed=0), jobs=1)
        other = run_sweep(graph, SweepSpec(functional=True,
                                           fractions=(0.2,), seed=1), jobs=1)
        (a,), (b,) = base.results, other.results
        assert a.cycles == b.cycles and a.lut == b.lut
        assert a.accuracy != b.accuracy


class TestSweepSharing:
    def test_exact_duplicates_are_deduped(self, mnist):
        point = SweepPoint(fraction=0.2)
        spec = SweepSpec.explicit([point, point, point])
        sweep = run_sweep(mnist, spec, jobs=1)
        assert sweep.deduped == 2
        first, *rest = [r.to_json() for r in sweep.results]
        assert all(entry == first for entry in rest)

    def test_clamped_caps_share_one_design(self, mnist):
        # mnist at 20% realizes 8 lanes: caps of 8 and above (and 0 =
        # uncapped) all clamp to the same effective datapath.
        spec = SweepSpec(fractions=(0.2,), max_lanes=(0, 8, 1024),
                         functional=True)
        sweep = run_sweep(mnist, spec, jobs=1)
        assert sweep.design_shared == 2
        jsons = [dict(r.to_json(), point=None) for r in sweep.results]
        assert jsons[0] == jsons[1] == jsons[2]

    def test_shared_results_match_independent_evaluation(self, mnist):
        from repro.dse.engine import evaluate_point
        spec = SweepSpec(fractions=(0.2,), max_lanes=(0, 1024),
                         functional=True)
        sweep = run_sweep(mnist, spec, jobs=1)
        for result in sweep.results:
            alone = evaluate_point(mnist, result.point, functional=True,
                                   pipeline=BuildPipeline())
            assert alone.to_json() == result.to_json()

    def test_stage_timings_surface_in_results(self, mnist):
        sweep = run_sweep(mnist, SweepSpec(fractions=(0.2, 0.4),
                                           functional=True), jobs=1)
        fresh = [r for r in sweep.results if r.stage_s]
        assert fresh, "fresh evaluations should carry stage timings"
        split = sweep.stage_split()
        assert split["build_s"] > 0.0
        for stage in ("nngen_s", "quantize_s", "compile_s", "plan_s"):
            assert stage in split
        assert "build" in sweep.render()


class TestRuntimePlanSharing:
    def test_sessions_share_the_model_plan(self, mnist):
        model = CompiledModel.build(mnist, fraction=0.2)
        first = model.new_session()
        second = model.new_session()
        first.warm()
        second.warm()
        assert first._executor.plan() is second._executor.plan()

    def test_concurrent_warmups_pack_one_plan(self, mnist, monkeypatch):
        """Sessions warming at the same moment share one plan, packed
        once: packing is slowed down so an unguarded second packer
        would overlap the first."""
        packs = _count_plan_builds(monkeypatch, delay_s=0.05)
        model = CompiledModel.build(mnist, fraction=0.2)
        workers = 8
        barrier = threading.Barrier(workers, timeout=30)
        plans = []

        def warm() -> None:
            barrier.wait()
            plans.append(model.warm_session()._executor.plan())

        threads = [threading.Thread(target=warm) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(plans) == workers
        assert all(plan is model.execution_plan for plan in plans)
        assert len(packs) == 1
