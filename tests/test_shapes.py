"""Tests for shape inference and MAC counting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.frontend import load, resolve
from repro.frontend.layers import LayerKind, LayerSpec
from repro.frontend.shapes import (
    TensorShape,
    conv_output_hw,
    infer_shapes,
    macs_for_layer,
    weight_shape,
)

LENET_TEXT = """
name: "lenet"
layers { name: "data" type: DATA top: "data" param { dim: 1 dim: 28 dim: 28 } }
layers { name: "conv1" type: CONVOLUTION bottom: "data" top: "conv1" param { num_output: 20 kernel_size: 5 stride: 1 } }
layers { name: "pool1" type: POOLING bottom: "conv1" top: "pool1" param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "conv2" type: CONVOLUTION bottom: "pool1" top: "conv2" param { num_output: 50 kernel_size: 5 stride: 1 } }
layers { name: "pool2" type: POOLING bottom: "conv2" top: "pool2" param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "pool2" top: "ip1" param { num_output: 500 } }
layers { name: "relu1" type: RELU bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 10 } }
layers { name: "prob" type: SOFTMAX bottom: "ip2" top: "prob" }
"""


class TestTensorShape:
    def test_size(self):
        assert TensorShape((3, 4, 5)).size == 60

    def test_spatial_accessors(self):
        shape = TensorShape((3, 8, 9))
        assert shape.is_spatial
        assert shape.channels == 3
        assert shape.height == 8
        assert shape.width == 9

    def test_flat_accessors(self):
        shape = TensorShape((16,))
        assert not shape.is_spatial
        assert shape.channels == 1
        assert shape.width == 16

    def test_flat_conversion(self):
        assert TensorShape((3, 4, 5)).flat() == TensorShape((60,))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            TensorShape(())

    def test_rejects_nonpositive(self):
        with pytest.raises(ShapeError):
            TensorShape((3, 0))

    def test_str(self):
        assert str(TensorShape((1, 28, 28))) == "1x28x28"


class TestConvOutput:
    def test_basic(self):
        assert conv_output_hw(28, 28, 5, 1, 0) == (24, 24)

    def test_with_stride(self):
        assert conv_output_hw(227, 227, 11, 4, 0) == (55, 55)

    def test_with_pad(self):
        assert conv_output_hw(28, 28, 3, 1, 1) == (28, 28)

    def test_too_large_kernel(self):
        with pytest.raises(ShapeError):
            conv_output_hw(4, 4, 7, 1, 0)

    @given(st.integers(1, 64), st.integers(1, 11), st.integers(1, 4),
           st.integers(0, 3))
    @settings(max_examples=200)
    def test_output_windows_fit(self, size, kernel, stride, pad):
        if kernel > size + 2 * pad:
            return
        out_h, out_w = conv_output_hw(size, size, kernel, stride, pad)
        # The last window must end inside the padded input.
        assert (out_h - 1) * stride + kernel <= size + 2 * pad
        # One more window would not fit.
        assert out_h * stride + kernel > size + 2 * pad


class TestInferShapes:
    def test_lenet_shapes(self):
        graph = load(LENET_TEXT, format="prototxt")
        shapes = infer_shapes(graph)
        assert shapes["data"].dims == (1, 28, 28)
        assert shapes["conv1"].dims == (20, 24, 24)
        assert shapes["pool1"].dims == (20, 12, 12)
        assert shapes["conv2"].dims == (50, 8, 8)
        assert shapes["pool2"].dims == (50, 4, 4)
        assert shapes["ip1"].dims == (500,)
        assert shapes["ip2"].dims == (10,)
        assert shapes["prob"].dims == (10,)

    def test_layer_output_shapes(self):
        resolved = resolve(load(LENET_TEXT, format="prototxt"))

        def output(name):
            return resolved.shapes[resolved.layer(name).tops[0]]

        assert output("conv1").dims == (20, 24, 24)
        # In-place ReLU reports its blob's shape.
        assert output("relu1").dims == (500,)

    def test_layer_input_shape(self):
        resolved = resolve(load(LENET_TEXT, format="prototxt"))
        conv2 = resolved.layer("conv2")
        assert resolved.shapes[conv2.bottoms[0]].dims == (20, 12, 12)
        assert resolved.layer("data").bottoms == ()

    def test_conv_needs_spatial_input(self):
        text = """
        layers { name: "data" type: DATA top: "d" param { dim: 16 } }
        layers { name: "c" type: CONVOLUTION bottom: "d" top: "c" param { num_output: 2 kernel_size: 3 } }
        """
        with pytest.raises(ShapeError):
            infer_shapes(load(text, format="prototxt"))

    def test_concat_channels(self):
        text = """
        layers { name: "data" type: DATA top: "d" param { dim: 3 dim: 8 dim: 8 } }
        layers { name: "a" type: CONVOLUTION bottom: "d" top: "a" param { num_output: 4 kernel_size: 3 pad: 1 } }
        layers { name: "b" type: CONVOLUTION bottom: "d" top: "b" param { num_output: 6 kernel_size: 1 } }
        layers { name: "cat" type: CONCAT bottom: "a" bottom: "b" top: "cat" }
        """
        shapes = infer_shapes(load(text, format="prototxt"))
        assert shapes["cat"].dims == (10, 8, 8)

    def test_concat_mismatched_spatial_rejected(self):
        text = """
        layers { name: "data" type: DATA top: "d" param { dim: 3 dim: 8 dim: 8 } }
        layers { name: "a" type: CONVOLUTION bottom: "d" top: "a" param { num_output: 4 kernel_size: 3 } }
        layers { name: "b" type: CONVOLUTION bottom: "d" top: "b" param { num_output: 6 kernel_size: 1 } }
        layers { name: "cat" type: CONCAT bottom: "a" bottom: "b" top: "cat" }
        """
        with pytest.raises(ShapeError):
            infer_shapes(load(text, format="prototxt"))

    def test_pooling_ceil_semantics(self):
        # 5x5 input, 2x2 pool stride 2 -> ceil((5-2)/2)+1 = 3
        text = """
        layers { name: "data" type: DATA top: "d" param { dim: 1 dim: 5 dim: 5 } }
        layers { name: "p" type: POOLING bottom: "d" top: "p" param { pool: MAX kernel_size: 2 stride: 2 } }
        """
        shapes = infer_shapes(load(text, format="prototxt"))
        assert shapes["p"].dims == (1, 3, 3)

    def test_classifier_shape(self):
        text = """
        layers { name: "data" type: DATA top: "d" param { dim: 10 } }
        layers { name: "cls" type: CLASSIFIER bottom: "d" top: "cls" param { top_k: 3 } }
        """
        shapes = infer_shapes(load(text, format="prototxt"))
        assert shapes["cls"].dims == (3,)

    def test_classifier_top_k_beyond_input_rejected(self):
        # Every executor returns at most as many indices as there are
        # features, so a wider top_k has no consistent shape.
        text = """
        layers { name: "data" type: DATA top: "d" param { dim: 4 } }
        layers { name: "cls" type: CLASSIFIER bottom: "d" top: "cls" param { top_k: 9 } }
        """
        with pytest.raises(ShapeError, match="classifier 'cls'.*top_k 9"):
            infer_shapes(load(text, format="prototxt"))


class TestWeightShape:
    def test_conv_weight_shape(self):
        spec = LayerSpec(name="c", kind=LayerKind.CONVOLUTION, num_output=20,
                         kernel_size=5)
        assert weight_shape(spec, TensorShape((1, 28, 28))) == (20, 1, 5, 5)

    def test_fc_weight_shape(self):
        spec = LayerSpec(name="f", kind=LayerKind.INNER_PRODUCT, num_output=10)
        assert weight_shape(spec, TensorShape((50, 4, 4))) == (10, 800)

    def test_grouped_conv(self):
        spec = LayerSpec(name="c", kind=LayerKind.CONVOLUTION, num_output=8,
                         kernel_size=3, group=2)
        assert weight_shape(spec, TensorShape((4, 8, 8))) == (8, 2, 3, 3)

    def test_unweighted_raises(self):
        spec = LayerSpec(name="p", kind=LayerKind.POOLING, kernel_size=2)
        with pytest.raises(ShapeError):
            weight_shape(spec, TensorShape((4, 8, 8)))


class TestMacs:
    def test_conv_macs(self):
        spec = LayerSpec(name="c", kind=LayerKind.CONVOLUTION, num_output=20,
                         kernel_size=5)
        macs = macs_for_layer(spec, TensorShape((1, 28, 28)),
                              TensorShape((20, 24, 24)))
        assert macs == 25 * 20 * 24 * 24

    def test_fc_macs(self):
        spec = LayerSpec(name="f", kind=LayerKind.INNER_PRODUCT, num_output=10)
        macs = macs_for_layer(spec, TensorShape((800,)), TensorShape((10,)))
        assert macs == 8000

    def test_recurrent_macs_include_feedback(self):
        spec = LayerSpec(name="r", kind=LayerKind.RECURRENT, num_output=6)
        macs = macs_for_layer(spec, TensorShape((4,)), TensorShape((6,)))
        assert macs == 4 * 6 + 6 * 6

    def test_activation_macs(self):
        spec = LayerSpec(name="r", kind=LayerKind.RELU, bottoms=("x",))
        macs = macs_for_layer(spec, TensorShape((100,)), TensorShape((100,)))
        assert macs == 100
