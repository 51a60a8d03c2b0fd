"""The execution plan: fusion, serial node order, liveness.

The plan's contract is bit-exactness: its batched kernels — fused, run
node after node and, on the serving path, with every intermediate
dropped after its last reader — must produce integer-identical blobs
to the independent per-sample ``forward_raw`` path across every zoo
benchmark, including the recurrent (hopfield) and branchy
(concat/eltwise) topologies.  These tests pin that contract, the
ownership of the blobs an inspection flush returns, concurrent flushes
sharing one plan and the serving gauges.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import api
from repro.sim.plan import ExecutionPlan
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
    """A fresh plan over the executor's net."""
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
        blobs = plan.forward_batch_raw(stacked[:3], {}, keep="all")
        items = sorted(blobs.items())
        for index, (first, a) in enumerate(items):
            for second, b in items[index + 1:]:
                assert not np.shares_memory(a, b), \
                    f"{name}: {first} and {second} share memory"
        kept = {blob: values.copy() for blob, values in blobs.items()}
        plan.forward_batch_raw(stacked[3:6], {}, keep="output")
        for blob, values in kept.items():
            np.testing.assert_array_equal(values, blobs[blob],
                                          err_msg=f"{name}:{blob}")


class TestPlanStats:
    def test_fusion_counts(self):
        stats = _plan(_executor("mnist")).stats()
        assert 0 < stats["fused_steps"] < stats["total_steps"]


class TestConcurrentFlushes:
    """A plan holds no per-flush state, so threads may share one."""

    THREADS = 4
    ROUNDS = 3

    @pytest.mark.parametrize("name", ["squeezenet_tiny", "resnet_tiny"])
    def test_threads_sharing_a_plan_match_serial(self, name):
        plan = _plan(_executor(name))
        stacked, _ = _references(name)
        batches = (stacked[:3], stacked[3:11])
        keeps = ("output", "all")

        def flushes() -> list:
            return [plan.forward_batch_raw(batch, {}, keep=keep)
                    for batch in batches for keep in keeps]

        serial = flushes()
        barrier = threading.Barrier(self.THREADS, timeout=60)

        def worker() -> list:
            barrier.wait()  # start every thread's flushes together
            return [blobs for _ in range(self.ROUNDS) for blobs in flushes()]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often mid-flush
        try:
            with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
                futures = [pool.submit(worker) for _ in range(self.THREADS)]
                runs = [future.result(timeout=300) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for thread, results in enumerate(runs):
            for index, blobs in enumerate(results):
                expected = serial[index % len(serial)]
                assert blobs.keys() == expected.keys()
                for blob, values in expected.items():
                    np.testing.assert_array_equal(
                        blobs[blob], values,
                        err_msg=f"{name}:{blob} thread {thread} "
                                f"flush {index}")


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
