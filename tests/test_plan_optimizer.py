"""The execution plan: fusion, serial node order, buffer arena.

The plan's contract is bit-exactness: its batched kernels — fused,
arena-allocated and run node after node on the serving path — must
produce integer-identical blobs to the independent per-sample
``forward_raw`` path across every zoo benchmark, including the
recurrent (hopfield) and branchy (concat/eltwise) topologies.  These
tests pin that contract, the ownership of the blobs an inspection flush
returns, the buffer-arena recycling behaviour and the serving gauges.
"""

import numpy as np
import pytest

from repro import api
from repro.sim.plan import BufferArena, ExecutionPlan
from repro.sim.quantized import QuantizedExecutor
from repro.zoo import BENCHMARKS, benchmark_graph

BATCHES = (1, 3, 16)

_EXECUTORS: dict = {}
_REFERENCES: dict = {}


def _executor(name: str) -> QuantizedExecutor:
    """One executor per zoo net, shared across tests in this module."""
    if name not in _EXECUTORS:
        artifacts = api.build(benchmark_graph(name), fraction=0.2)
        _EXECUTORS[name] = QuantizedExecutor(
            graph=artifacts.graph,
            weights=artifacts.weights,
            blob_formats=artifacts.program.blob_formats,
            weight_format=(artifacts.program.weight_format
                           or artifacts.design.datapath.weight_format),
            luts=artifacts.program.luts,
        )
    return _EXECUTORS[name]


def _plan(executor: QuantizedExecutor) -> ExecutionPlan:
    """A fresh plan (own arena and counters) over the executor's net."""
    return ExecutionPlan.build(
        executor.resolved,
        executor.quantized_weights,
        executor.blob_formats,
        executor.weight_format,
        executor._lut,
    )


def _random_batch(executor: QuantizedExecutor, count: int,
                  seed: int) -> list:
    input_blob = executor.graph.inputs()[0].tops[0]
    dims = executor.resolved.shapes[input_blob].dims
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1.0, 1.0, dims) for _ in range(count)]


def _references(name: str):
    """The stacked inputs plus per-sample ``forward_raw`` blobs and
    recurrent state for the largest batch, computed once per net; a
    batch of ``b`` uses the first ``b`` of them."""
    if name not in _REFERENCES:
        executor = _executor(name)
        batch = _random_batch(executor, max(BATCHES), seed=101)
        singles = []
        for sample in batch:
            executor.reset_state()
            blobs = executor.forward_raw(sample)
            state = {key: values.copy()
                     for key, values in executor.state.items()}
            singles.append((blobs, state))
        executor.reset_state()
        _REFERENCES[name] = (executor.stack_batch(batch), singles)
    return _REFERENCES[name]


class TestBatchedBitExact:
    """Batched plan == per-sample forward_raw, integer for integer."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_plan_matches_per_sample(self, name, batch):
        stacked, singles = _references(name)
        singles = singles[:batch]
        plan = _executor(name).plan()
        all_state: dict = {}
        all_blobs = plan.forward_batch_raw(stacked[:batch], all_state,
                                           keep="all")
        out_state: dict = {}
        output_only = plan.forward_batch_raw(stacked[:batch], out_state,
                                             keep="output")
        assert set(all_blobs) == set(singles[0][0])
        for index, (blobs, _) in enumerate(singles):
            for blob, values in blobs.items():
                np.testing.assert_array_equal(
                    values, all_blobs[blob][index],
                    err_msg=f"{name}:{blob} sample {index}")
        (output_blob,) = output_only
        np.testing.assert_array_equal(
            np.stack([blobs[output_blob] for blobs, _ in singles]),
            output_only[output_blob])
        # Every arena buffer went back after its last reader node.
        assert plan.arena.snapshot()["in_use_bytes"] == 0
        # Recurrent state (hopfield) evolves per sample, row by row.
        for index, (_, state) in enumerate(singles):
            assert set(state) == set(all_state) == set(out_state)
            for key, values in state.items():
                np.testing.assert_array_equal(values, all_state[key][index])
                np.testing.assert_array_equal(values, out_state[key][index])


class TestInspectionOwnsMemory:
    """A keep="all" flush hands back blobs the caller owns outright."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_keep_all_blobs_are_private(self, name):
        plan = _plan(_executor(name))
        stacked, _ = _references(name)
        takes = plan.arena.takes
        blobs = plan.forward_batch_raw(stacked[:3], {}, keep="all")
        assert plan.arena.takes == takes
        items = sorted(blobs.items())
        for index, (first, a) in enumerate(items):
            for second, b in items[index + 1:]:
                assert not np.shares_memory(a, b), \
                    f"{name}: {first} and {second} share memory"
        kept = {blob: values.copy() for blob, values in blobs.items()}
        plan.forward_batch_raw(stacked[3:6], {}, keep="output")
        assert plan.arena.takes > takes
        for blob, values in kept.items():
            np.testing.assert_array_equal(values, blobs[blob],
                                          err_msg=f"{name}:{blob}")


class TestPlanStats:
    def test_fusion_counts(self):
        stats = _plan(_executor("mnist")).stats()
        assert 0 < stats["fused_steps"] < stats["total_steps"]

    def test_arena_peak_populates_after_flush(self):
        executor = _executor("mnist")
        plan = _plan(executor)
        stacked = executor.stack_batch(_random_batch(executor, 4, seed=3))
        plan.forward_batch_raw(stacked, {}, keep="output")
        stats = plan.stats()
        assert stats["peak_arena_bytes"] > 0
        assert stats["arena_pool_bytes"] >= stats["peak_arena_bytes"]


class TestBufferArena:
    def test_release_then_take_reuses_block(self):
        arena = BufferArena()
        first = arena.take((64, 64), np.int64)
        base = first.base
        while base.base is not None:
            base = base.base
        arena.release(first)
        second = arena.take((64, 64), np.int64)
        again = second.base
        while again.base is not None:
            again = again.base
        assert again is base
        assert arena.snapshot()["misses"] == 1
        assert arena.snapshot()["takes"] == 2

    def test_size_classes_are_powers_of_two(self):
        arena = BufferArena()
        arena.take((3,), np.int64)  # 24 B -> 512 B minimum class
        assert arena.pool_bytes == 512
        arena.take((100,), np.int64)  # 800 B -> 1024 B class
        assert arena.pool_bytes == 512 + 1024

    def test_peak_tracks_concurrent_use(self):
        arena = BufferArena()
        a = arena.take((512,), np.int64)
        b = arena.take((512,), np.int64)
        peak = arena.peak_bytes
        arena.release(a)
        arena.release(b)
        arena.take((512,), np.int64)
        assert arena.peak_bytes == peak

    def test_release_of_foreign_array_is_noop(self):
        arena = BufferArena()
        arena.release(np.zeros(16, dtype=np.int64))
        assert arena.snapshot()["in_use_bytes"] == 0


class TestExecutorForwardBatch:
    def test_forward_batch_default_uses_output_only(self):
        executor = _executor("mnist")
        batch = _random_batch(executor, 2, seed=5)
        slim = executor.forward_batch(batch)
        full = executor.forward_batch(batch, all_blobs=True)
        assert len(slim) == 1
        (output_blob,) = slim
        assert len(full) > 1
        np.testing.assert_array_equal(slim[output_blob],
                                      full[output_blob])


class TestServingIntegration:
    def test_server_publishes_plan_gauges(self):
        from repro.runtime import CompiledModel, InferenceServer

        model = CompiledModel.from_zoo("mnist", fraction=0.2)
        server = InferenceServer(model, workers=1, max_batch_size=4,
                                 batch_timeout_s=0.001)
        with server:
            pending = [server.submit(inputs)
                       for inputs in model.random_requests(4, seed=2)]
            for request in pending:
                assert request.result().ok
        assert server.metrics.gauge("plan_total_steps").value > 0
        assert server.metrics.gauge("plan_fused_steps").value > 0
        assert server.metrics.gauge("plan_peak_arena_bytes").value > 0
