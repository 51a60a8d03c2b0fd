"""Tests for the benchmark model zoo."""

import pytest

from repro.errors import GraphError
from repro.frontend import resolve
from repro.frontend.layers import LayerKind
from repro.frontend.shapes import infer_shapes
from repro.zoo import (
    BENCHMARKS,
    alexnet,
    ann,
    ann_fft,
    ann_jpeg,
    ann_kmeans,
    benchmark_graph,
    cifar,
    cmac_net,
    googlenet_sample,
    hopfield_net,
    mnist,
    nin,
)


class TestANNs:
    def test_ann_fft_topology(self):
        graph = ann_fft()
        shapes = infer_shapes(graph)
        assert shapes["data"].dims == (1,)
        assert shapes["ip3"].dims == (2,)
        # 4-layer ANN: 3 weighted layers.
        assert len(graph.weighted_layers()) == 3

    def test_ann_jpeg_dims(self):
        shapes = infer_shapes(ann_jpeg())
        assert shapes["data"].dims == (64,)
        assert shapes["ip3"].dims == (64,)

    def test_ann_kmeans_dims(self):
        shapes = infer_shapes(ann_kmeans())
        assert shapes["data"].dims == (6,)
        assert shapes["ip3"].dims == (1,)

    def test_ann_hidden_activations(self):
        graph = ann("t", [4, 8, 2])
        kinds = [spec.kind for spec in graph.layers]
        assert kinds.count(LayerKind.SIGMOID) == 1  # only between layers

    def test_ann_requires_two_sizes(self):
        with pytest.raises(GraphError):
            ann("bad", [4])


class TestRecurrentModels:
    def test_hopfield_recurrent_edge(self):
        graph = hopfield_net(25)
        assert graph.recurrent_edges
        assert graph.layer("hop").num_output == 25

    def test_cmac_is_associative(self):
        graph = cmac_net(table_size=512, outputs=2)
        assoc = graph.layer("assoc")
        assert assoc.kind is LayerKind.ASSOCIATIVE
        assert infer_shapes(graph)["assoc"].dims == (2,)


class TestCNNs:
    def test_mnist_shapes(self):
        shapes = resolve(mnist()).shapes
        assert shapes["conv1"].dims == (20, 24, 24)
        assert shapes["ip2"].dims == (10,)

    def test_alexnet_canonical_shapes(self):
        shapes = resolve(alexnet()).shapes
        assert shapes["conv1"].dims == (96, 55, 55)
        assert shapes["pool1"].dims == (96, 27, 27)
        assert shapes["conv2"].dims == (256, 27, 27)
        assert shapes["conv3"].dims == (384, 13, 13)
        assert shapes["conv5"].dims == (256, 13, 13)
        assert shapes["pool5"].dims == (256, 6, 6)
        assert shapes["fc6"].dims == (4096,)
        assert shapes["fc8"].dims == (1000,)

    def test_alexnet_has_expected_layer_kinds(self):
        kinds = {spec.kind for spec in alexnet().layers}
        assert LayerKind.LRN in kinds
        assert LayerKind.DROPOUT in kinds
        assert LayerKind.POOLING in kinds

    def test_nin_all_conv_classifier(self):
        graph = nin()
        shapes = resolve(graph).shapes
        assert shapes["cccp4b"].dims[0] == 1000
        # NiN ends in global average pooling, no FC layers.
        assert not any(spec.kind is LayerKind.INNER_PRODUCT
                       for spec in graph.layers)

    def test_cifar_shapes(self):
        shapes = resolve(cifar()).shapes
        assert shapes["conv1"].dims == (32, 32, 32)
        assert shapes["ip2"].dims == (10,)

    def test_googlenet_sample_has_inception(self):
        kinds = {spec.kind for spec in googlenet_sample().layers}
        assert LayerKind.INCEPTION in kinds


class TestBenchmarkRegistry:
    def test_eight_paper_benchmarks_present(self):
        for name in ("ann0", "ann1", "ann2", "alexnet", "nin", "cifar",
                     "cmac", "hopfield", "mnist"):
            assert name in BENCHMARKS

    def test_benchmark_graph_builds_everything(self):
        for name in BENCHMARKS:
            graph = benchmark_graph(name)
            graph.validate()
            infer_shapes(graph)

    def test_unknown_benchmark(self):
        with pytest.raises(GraphError):
            benchmark_graph("resnet152")

    def test_table2_conv_fc_rec_flags(self):
        """Paper Table 2: which benchmarks have Conv / FC / Rec layers."""
        def flags(name):
            graph = benchmark_graph(name)
            kinds = {spec.kind for spec in graph.layers}
            has_conv = LayerKind.CONVOLUTION in kinds
            has_fc = bool({LayerKind.INNER_PRODUCT, LayerKind.RECURRENT,
                           LayerKind.ASSOCIATIVE} & kinds)
            has_rec = bool(graph.recurrent_edges)
            return has_conv, has_fc, has_rec

        assert flags("ann0") == (False, True, False)
        assert flags("alexnet") == (True, True, False)
        assert flags("cifar") == (True, True, False)
        assert flags("cmac") == (False, True, True)
        assert flags("hopfield") == (False, True, True)
        assert flags("mnist") == (True, True, False)
