"""Tests for the bit-level quantized executor."""

import numpy as np
import pytest

from repro.compiler import DeepBurningCompiler
from repro.devices import Z7020, budget_fraction
from repro.errors import SimulationError
from repro.fixedpoint.format import QFormat
from repro.frontend import load
from repro.nn.reference import ReferenceNetwork, init_weights
from repro.nngen import NNGen
from repro.sim.quantized import QuantizedExecutor

MLP_TEXT = """
name: "mlp"
layers { name: "data" type: DATA top: "data" param { dim: 8 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 12 } }
layers { name: "sig1" type: SIGMOID bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 3 } }
"""

CNN_TEXT = """
name: "cnn"
layers { name: "data" type: DATA top: "data" param { dim: 1 dim: 10 dim: 10 } }
layers { name: "conv1" type: CONVOLUTION bottom: "data" top: "conv1" param { num_output: 3 kernel_size: 3 stride: 1 } }
layers { name: "relu1" type: RELU bottom: "conv1" top: "conv1" }
layers { name: "pool1" type: POOLING bottom: "conv1" top: "pool1" param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "pool1" top: "ip1" param { num_output: 4 } }
"""

AVGPOOL_TEXT = """
name: "avg"
layers { name: "data" type: DATA top: "data" param { dim: 2 dim: 6 dim: 6 } }
layers { name: "pool" type: POOLING bottom: "data" top: "pool" param { pool: AVE kernel_size: 2 stride: 2 } }
"""

AVGPOOL3_TEXT = """
name: "avg3"
layers { name: "data" type: DATA top: "data" param { dim: 1 dim: 9 dim: 9 } }
layers { name: "pool" type: POOLING bottom: "data" top: "pool" param { pool: AVE kernel_size: 3 stride: 3 } }
"""


def make_executor(text, seed=0, formats=None):
    graph = load(text, format="prototxt")
    weights = init_weights(graph, np.random.default_rng(seed))
    from repro.frontend.shapes import infer_shapes
    shapes = infer_shapes(graph)
    default = QFormat(5, 10)
    blob_formats = formats or {blob: default for blob in shapes}
    return graph, weights, QuantizedExecutor(
        graph=graph, weights=weights, blob_formats=blob_formats,
        weight_format=QFormat(3, 12),
    )


class TestAgainstFloatReference:
    def test_mlp_close_to_reference(self):
        graph, weights, executor = make_executor(MLP_TEXT)
        reference = ReferenceNetwork(graph, weights)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.uniform(-1, 1, 8)
            expected = reference.output(x)
            got = executor.output(x)
            assert np.allclose(got, expected, atol=0.02)

    def test_cnn_close_to_reference(self):
        graph, weights, executor = make_executor(CNN_TEXT)
        reference = ReferenceNetwork(graph, weights)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (1, 10, 10))
        assert np.allclose(executor.output(x), reference.output(x), atol=0.05)

    def test_error_shrinks_with_precision(self):
        graph = load(MLP_TEXT, format="prototxt")
        weights = init_weights(graph, np.random.default_rng(0))
        from repro.frontend.shapes import infer_shapes
        shapes = infer_shapes(graph)
        reference = ReferenceNetwork(graph, weights)
        x = np.random.default_rng(3).uniform(-1, 1, 8)
        expected = reference.output(x)

        def error_with(bits):
            fmt = QFormat(5, bits - 6)
            executor = QuantizedExecutor(
                graph=graph, weights=weights,
                blob_formats={blob: fmt for blob in shapes},
                weight_format=QFormat(3, bits - 4),
            )
            return float(np.max(np.abs(executor.output(x) - expected)))

        assert error_with(16) < error_with(8)


class TestRawSemantics:
    def test_raw_outputs_are_int64(self):
        _, _, executor = make_executor(MLP_TEXT)
        raw = executor.forward_raw(np.zeros(8))
        for blob, values in raw.items():
            assert values.dtype == np.int64, blob

    def test_relu_clamps_raw(self):
        _, _, executor = make_executor(CNN_TEXT)
        raw = executor.forward_raw(np.random.default_rng(0).uniform(-1, 1, (1, 10, 10)))
        assert np.all(raw["conv1"] >= 0)

    def test_avgpool_power_of_two_exact(self):
        graph = load(AVGPOOL_TEXT, format="prototxt")
        from repro.frontend.shapes import infer_shapes
        fmt = QFormat(5, 10)
        executor = QuantizedExecutor(
            graph=graph, weights={},
            blob_formats={b: fmt for b in infer_shapes(graph)},
            weight_format=QFormat(3, 12),
        )
        # Values exactly representable: average of a 2x2 window is exact
        # after the shifting latch (division by 4 = shift by 2).
        x = np.zeros((2, 6, 6))
        x[:, 0, 0], x[:, 0, 1], x[:, 1, 0], x[:, 1, 1] = 1.0, 2.0, 3.0, 4.0
        out = executor.output(x)
        assert out[0, 0, 0] == pytest.approx(2.5)

    def test_avgpool_non_power_of_two_approximate(self):
        graph = load(AVGPOOL3_TEXT, format="prototxt")
        from repro.frontend.shapes import infer_shapes
        fmt = QFormat(5, 10)
        executor = QuantizedExecutor(
            graph=graph, weights={},
            blob_formats={b: fmt for b in infer_shapes(graph)},
            weight_format=QFormat(3, 12),
        )
        x = np.ones((1, 9, 9))
        out = executor.output(x)
        # Reciprocal-multiply division: within a couple LSB of exact.
        assert np.allclose(out, 1.0, atol=3 * fmt.scale)

    def test_sigmoid_via_lut(self):
        _, _, executor = make_executor(MLP_TEXT)
        executor.output(np.zeros(8))
        assert "sigmoid" in executor.luts

    def test_recurrent_state(self):
        text = """
        layers { name: "data" type: DATA top: "d" param { dim: 4 } }
        layers { name: "rec" type: RECURRENT bottom: "d" top: "r"
                 param { num_output: 4 } connect { name: "l" direction: recurrent } }
        """
        graph, weights, executor = make_executor(text)
        x = np.full(4, 0.5)
        first = executor.output(x).copy()
        second = executor.output(x).copy()
        assert not np.allclose(first, second)
        executor.reset_state()
        assert np.allclose(executor.output(x), first)

    def test_classifier_returns_indices(self):
        text = """
        layers { name: "data" type: DATA top: "d" param { dim: 6 } }
        layers { name: "cls" type: CLASSIFIER bottom: "d" top: "c" param { top_k: 2 } }
        """
        graph = load(text, format="prototxt")
        from repro.frontend.shapes import infer_shapes
        fmt = QFormat(5, 10)
        executor = QuantizedExecutor(
            graph=graph, weights={},
            blob_formats={b: fmt for b in infer_shapes(graph)},
            weight_format=QFormat(3, 12),
        )
        raw = executor.forward_raw(np.array([0.1, 0.9, 0.2, 0.8, 0.0, 0.3]))
        assert list(raw["c"]) == [1, 3]


RECURRENT_TEXT = """
layers { name: "data" type: DATA top: "d" param { dim: 4 } }
layers { name: "rec" type: RECURRENT bottom: "d" top: "r"
         param { num_output: 4 } connect { name: "l" direction: recurrent } }
"""


class TestGemmDtype:
    """The oracle picks each GEMM's dtype by the plan's 2^53 predicate."""

    @staticmethod
    def executor(text, data_format, weight_format):
        graph = load(text, format="prototxt")
        from repro.frontend.shapes import infer_shapes
        return QuantizedExecutor(
            graph=graph,
            weights=init_weights(graph, np.random.default_rng(0)),
            blob_formats={b: data_format for b in infer_shapes(graph)},
            weight_format=weight_format,
        )

    @staticmethod
    def run_twice(executor, seed=3):
        """Two calls, so a recurrent layer's feedback GEMM runs too."""
        rng = np.random.default_rng(seed)
        dims = executor.resolved.shapes[executor.graph.inputs()[0].tops[0]].dims
        return [executor.forward_raw(rng.standard_normal(dims))
                for _ in range(2)]

    @pytest.mark.parametrize("formats, dtype", [
        ((QFormat(5, 10), QFormat(3, 12)), np.float64),
        ((QFormat(15, 16), QFormat(15, 16)), np.int64),
    ], ids=["q5.10-q3.12", "q15.16"])
    @pytest.mark.parametrize("text, gemms", [
        (CNN_TEXT, 4), (RECURRENT_TEXT, 3)], ids=["cnn", "recurrent"])
    def test_gemm_dtype_follows_the_predicate(self, monkeypatch, formats,
                                              dtype, text, gemms):
        picked = []
        original = QuantizedExecutor._gemm_dtype

        def spy(self, reduce_dim, in_fmt):
            picked.append(original(self, reduce_dim, in_fmt))
            return picked[-1]

        monkeypatch.setattr(QuantizedExecutor, "_gemm_dtype", spy)
        self.run_twice(self.executor(text, *formats))
        # cnn: conv + ip per call; recurrent: drive twice + feedback once.
        assert len(picked) == gemms
        assert set(picked) == {dtype}

    @pytest.mark.parametrize("text", [CNN_TEXT, RECURRENT_TEXT],
                             ids=["cnn", "recurrent"])
    def test_float64_gemm_equals_int64_gemm(self, monkeypatch, text):
        formats = (QFormat(5, 10), QFormat(3, 12))
        floated = self.run_twice(self.executor(text, *formats))
        monkeypatch.setattr(QuantizedExecutor, "_gemm_dtype",
                            lambda self, reduce_dim, in_fmt: np.int64)
        integer = self.run_twice(self.executor(text, *formats))
        for got, want in zip(floated, integer):
            assert got.keys() == want.keys()
            for blob in want:
                np.testing.assert_array_equal(got[blob], want[blob])


class TestValidation:
    def test_missing_format_rejected(self):
        graph = load(MLP_TEXT, format="prototxt")
        weights = init_weights(graph)
        with pytest.raises(SimulationError):
            QuantizedExecutor(graph=graph, weights=weights,
                              blob_formats={}, weight_format=QFormat(3, 12))

    def test_missing_weights_rejected(self):
        graph = load(MLP_TEXT, format="prototxt")
        from repro.frontend.shapes import infer_shapes
        fmt = QFormat(5, 10)
        with pytest.raises(SimulationError):
            QuantizedExecutor(
                graph=graph, weights={},
                blob_formats={b: fmt for b in infer_shapes(graph)},
                weight_format=QFormat(3, 12))

    def test_bad_input_shape_rejected(self):
        _, _, executor = make_executor(MLP_TEXT)
        with pytest.raises(SimulationError):
            executor.forward_raw(np.zeros(9))


class TestFromProgram:
    def test_roundtrip_through_compiler(self):
        graph = load(MLP_TEXT, format="prototxt")
        weights = init_weights(graph, np.random.default_rng(4))
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        rng = np.random.default_rng(5)
        inputs = [rng.uniform(-1, 1, 8) for _ in range(3)]
        program = DeepBurningCompiler().compile(design, weights=weights,
                                                calibration_inputs=inputs)
        executor = QuantizedExecutor.from_program(program, weights)
        reference = ReferenceNetwork(graph, weights)
        x = rng.uniform(-1, 1, 8)
        assert np.allclose(executor.output(x), reference.output(x), atol=0.05)
