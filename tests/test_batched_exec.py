"""Bit-exactness and serving tests for the batched execution plan.

The vectorized :meth:`QuantizedExecutor.forward_batch` path is a second,
independent implementation of the fixed-point semantics; these tests pin
it to the per-sample :meth:`forward_raw` reference *integer by integer*
(``assert_array_equal`` on raw blobs, never floats-close) across every
zoo benchmark — including AlexNet's grouped convolutions and NiN's
non-power-of-two average pooling — plus the recurrent-state, lazy
dequantization, server fallback and bench-sweep behaviour around it.
"""

import numpy as np
import pytest

from repro import api
from repro.errors import SimulationError
from repro.fixedpoint import QFormat
from repro.frontend import load
from repro.frontend.shapes import infer_shapes
from repro.nn.reference import init_weights
from repro.runtime import CompiledModel, InferenceServer
from repro.sim.quantized import QuantizedExecutor
from repro.zoo import BENCHMARKS, benchmark_graph

#: Batch sizes per network: big CNNs get a small batch to keep the
#: suite fast, everything else gets enough samples to exercise the
#: batched kernels properly.
BATCH_SIZES = {"alexnet": 2, "nin": 2}

SCRIPT = """
name: "batched_net"
layers { name: "data" type: DATA top: "data" param { dim: 8 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 16 } }
layers { name: "relu1" type: RELU bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 4 } }
"""


#: The Q15.16 data / Q15.16 weight pair: its partial sums overflow the
#: 2^53 float64 mantissa bound, so every plan GEMM runs on int64.
WIDE = (QFormat(15, 16), QFormat(15, 16))

#: Every zoo net at the default 16-bit pair (every GEMM on exact
#: float64), and every net but alexnet at the wide pair.
BIT_EXACT_CASES = [pytest.param(name, None, id=name)
                   for name in sorted(BENCHMARKS)] + [
    pytest.param(name, WIDE, id=f"{name}-q15.16")
    for name in sorted(BENCHMARKS) if name != "alexnet"]


def make_executor(name, formats=None):
    data_format, weight_format = formats or (QFormat(5, 10), QFormat(3, 12))
    graph = benchmark_graph(name)
    weights = init_weights(graph, np.random.default_rng(1))
    shapes = infer_shapes(graph)
    return QuantizedExecutor(
        graph=graph,
        weights=weights,
        blob_formats={blob: data_format for blob in shapes},
        weight_format=weight_format,
    )


class TestBatchedBitExactness:
    @pytest.mark.parametrize("name, formats", BIT_EXACT_CASES)
    def test_forward_batch_matches_per_sample_reference(self, name,
                                                        formats):
        executor = make_executor(name, formats)
        plan = executor.plan()
        gemm_dtype = np.int64 if formats else np.float64
        packs = [pack for step in plan.steps
                 for pack in step.weights + [step.recurrent_t]
                 if pack is not None]
        assert packs and all(pack.dtype == gemm_dtype for pack in packs)
        count = BATCH_SIZES.get(name, 3)
        rng = np.random.default_rng(7)
        batch = [rng.standard_normal(plan.input_dims) for _ in range(count)]
        # A recurrent net gets a second, state-carrying flush, so its
        # feedback GEMM runs too.
        flushes = 2 if any(step.recurrent_t is not None
                           for step in plan.steps) else 1

        reference = []
        for sample in batch:
            executor.reset_state()
            reference.append([executor.forward_raw(sample)
                              for _ in range(flushes)])

        shapes = executor.resolved.shapes
        executor.reset_state()
        for flush in range(flushes):
            stacked = executor.forward_batch_raw(batch)
            assert stacked.keys() == reference[0][flush].keys()
            for blob, array in stacked.items():
                assert array.dtype == np.int64
                # Both executors agree with the one resolved shape.
                assert {array.shape[1:]} | {
                    sample[flush][blob].shape for sample in reference
                } == {shapes[blob].dims}, blob
                for index in range(count):
                    np.testing.assert_array_equal(
                        array[index], reference[index][flush][blob],
                        err_msg=f"{name}: blob '{blob}', sample {index}, "
                                f"flush {flush}")

    @pytest.mark.parametrize("kind", ["RELU", "SIGMOID"])
    def test_in_place_layer_on_the_input_blob(self, kind):
        """An in-place layer on the data blob reads the quantized input,
        not its own (not yet written) value."""
        graph = load(f"""
name: "in_place_input"
layers {{ name: "data" type: DATA top: "data" param {{ dim: 8 }} }}
layers {{ name: "act" type: {kind} bottom: "data" top: "data" }}
layers {{ name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param {{ num_output: 4 }} }}
""", format="prototxt")
        executor = QuantizedExecutor(
            graph=graph, weights=init_weights(graph, np.random.default_rng(2)),
            blob_formats=dict.fromkeys(infer_shapes(graph), QFormat(5, 10)),
            weight_format=QFormat(3, 12))
        rng = np.random.default_rng(4)
        batch = [rng.standard_normal(8) for _ in range(3)]
        reference = [executor.forward_raw(sample) for sample in batch]
        for keep, blobs in (("all", ["data", "ip1"]), ("output", ["ip1"])):
            stacked = executor.forward_batch_raw(batch, keep=keep)
            assert sorted(stacked) == blobs
            for blob in blobs:
                np.testing.assert_array_equal(
                    stacked[blob], np.stack([r[blob] for r in reference]))

    def test_ndarray_batch_equals_list_batch(self):
        executor = make_executor("mnist")
        rng = np.random.default_rng(3)
        batch = [rng.standard_normal(executor.plan().input_dims)
                 for _ in range(2)]
        from_list = executor.forward_batch_raw(batch)
        from_array = executor.forward_batch_raw(np.stack(batch))
        for blob in from_list:
            np.testing.assert_array_equal(from_list[blob],
                                          from_array[blob])

    def test_bad_item_shape_rejected(self):
        executor = make_executor("mnist")
        good = np.zeros(executor.plan().input_dims)
        with pytest.raises(SimulationError, match="batch item 1"):
            executor.stack_batch([good, np.zeros(3)])


class TestRecurrentState:
    def test_forward_batch_state_evolves_without_reset(self):
        """Batched recurrent state is per-sample and carries over calls."""
        executor = make_executor("hopfield")
        rng = np.random.default_rng(5)
        batch = [rng.standard_normal(executor.plan().input_dims)
                 for _ in range(3)]

        executor.reset_state()
        first = executor.forward_batch_raw(batch)
        second = executor.forward_batch_raw(batch)

        # The reference: two forward_raw settling steps per sample.
        per_sample_second = []
        for sample in batch:
            executor.reset_state()
            executor.forward_raw(sample)
            per_sample_second.append(executor.forward_raw(sample))
        for blob in second:
            for index in range(3):
                np.testing.assert_array_equal(
                    second[blob][index], per_sample_second[index][blob])
        # And the evolution is real: at least one blob changed.
        assert any(not np.array_equal(first[blob], second[blob])
                   for blob in first)

    def test_reset_state_restores_first_step(self):
        executor = make_executor("hopfield")
        batch = [np.random.default_rng(6).standard_normal(
            executor.plan().input_dims) for _ in range(2)]
        executor.reset_state()
        first = executor.forward_batch_raw(batch)
        executor.forward_batch_raw(batch)
        executor.reset_state()
        again = executor.forward_batch_raw(batch)
        for blob in first:
            np.testing.assert_array_equal(first[blob], again[blob])

    def test_mixing_batch_shapes_without_reset_rejected(self):
        executor = make_executor("hopfield")
        dims = executor.plan().input_dims
        executor.reset_state()
        executor.forward_batch_raw([np.zeros(dims), np.zeros(dims)])
        with pytest.raises(SimulationError, match="reset_state"):
            executor.forward_batch_raw([np.zeros(dims)])

    def test_run_batch_requests_start_from_clean_state(self):
        """Every run_batch request is independent — no state leakage."""
        artifacts = api.build(benchmark_graph("hopfield"),
                              device="Z-7045", fraction=0.3)
        simulator = api.simulator(artifacts)
        stream = [artifacts.random_input(seed) for seed in (1, 2, 3)]

        batched = simulator.run_batch(stream)
        for inputs, result in zip(stream, batched):
            fresh = api.simulator(artifacts).run(inputs)
            np.testing.assert_array_equal(result.output, fresh.output)
        # A second identical batch on the same session: same answers.
        again = simulator.run_batch(stream)
        for first, second in zip(batched, again):
            np.testing.assert_array_equal(first.output, second.output)


class TestSimulateBatchFacade:
    def test_bit_identical_to_simulate(self):
        artifacts = api.build(SCRIPT, device="Z-7045", fraction=0.3)
        stream = [artifacts.random_input(seed) for seed in (1, 2, 3, 4)]
        batched = api.simulate_batch(artifacts, stream)
        assert len(batched) == 4
        for inputs, result in zip(stream, batched):
            solo = api.simulate(artifacts, inputs)
            np.testing.assert_array_equal(result.output, solo.output)
            assert result.cycles == solo.cycles

    def test_all_blobs_flag(self):
        artifacts = api.build(SCRIPT, device="Z-7045", fraction=0.3)
        stream = [artifacts.random_input(1)]
        full = api.simulate_batch(artifacts, stream, all_blobs=True)[0]
        assert {"data", "ip1", "ip2"} <= set(full.outputs)


class TestLazyDequantize:
    def test_forward_default_returns_output_blob_only(self):
        executor = make_executor("mnist")
        inputs = np.zeros(executor.plan().input_dims)
        blobs = executor.forward(inputs)
        output_blob = executor.graph.outputs()[-1].tops[0]
        assert set(blobs) == {output_blob}

    def test_forward_all_blobs_matches_default_output(self):
        executor = make_executor("mnist")
        inputs = np.random.default_rng(8).standard_normal(
            executor.plan().input_dims)
        lazy = executor.forward(inputs)
        executor.reset_state()
        full = executor.forward(inputs, all_blobs=True)
        output_blob = executor.graph.outputs()[-1].tops[0]
        assert len(full) > 1
        np.testing.assert_array_equal(lazy[output_blob], full[output_blob])

    def test_simulate_all_blobs_flag(self):
        artifacts = api.build(SCRIPT, device="Z-7045", fraction=0.3)
        lean = api.simulate(artifacts)
        full = api.simulate(artifacts, all_blobs=True)
        assert set(lean.outputs) == {"ip2", "__output__"}
        assert {"data", "ip1", "ip2", "__output__"} <= set(full.outputs)
        np.testing.assert_array_equal(lean.output, full.output)


class TestServerBatchedPath:
    @pytest.fixture(scope="class")
    def model(self):
        return CompiledModel.build(SCRIPT, device="Z-7045", fraction=0.3)

    def test_batched_responses_bit_identical_to_solo(self, model):
        server = InferenceServer(model, workers=1, max_batch_size=4,
                                 batch_timeout_s=0.0)
        stream = model.random_requests(4, seed=9)
        pending = [server.submit(x) for x in stream]
        with server:
            responses = [p.result() for p in pending]
        assert [r.batch_size for r in responses] == [4] * 4
        for inputs, response in zip(stream, responses):
            expected = api.simulate(model.artifacts, inputs)
            np.testing.assert_array_equal(response.output, expected.output)

    def test_bad_request_does_not_poison_batch_mates(self, model):
        """One malformed input fails alone; the rest of its batch is ok."""
        server = InferenceServer(model, workers=1, max_batch_size=4,
                                 batch_timeout_s=0.0)
        stream = model.random_requests(3, seed=10)
        pending = [server.submit(stream[0]), server.submit(np.zeros(3)),
                   server.submit(stream[1]), server.submit(stream[2])]
        with server:
            responses = [p.result() for p in pending]
        statuses = [r.status for r in responses]
        assert statuses == ["ok", "error", "ok", "ok"]
        for inputs, response in zip(stream, [responses[0], responses[2],
                                             responses[3]]):
            expected = api.simulate(model.artifacts, inputs)
            np.testing.assert_array_equal(response.output, expected.output)
        assert server.metrics.counter("requests_error").value == 1
        assert server.metrics.counter("requests_completed").value == 3
