"""The DRAM image is the only integer copy of the weights.

The compiler quantizes each weight set once, straight into the image at
the weight format's storage width.  A seeded build draws its Gaussian
weights block by block straight into the image; the float weights
(``BuildArtifacts.weights``, a :class:`SeededWeights`) are drawn only
when something reads them.  The functional executor, its execution plan
and the range pass read views of the image.  These tests pin five
things: the views hold exactly what quantizing the float weights gives;
the image holds what the reference layout (each layer's weights,
state-feedback rows and bias concatenated, then quantized to ``int64``)
gives; the streamed image equals the image quantized from
``init_weights``, byte for byte; the flow draws no float copy of the
weights unless something reads it, and then draws it once; and no
reader makes a copy of its own.
"""

import pickle
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro import api
from repro.analysis import verify_artifacts
from repro.compiler.compiler import DeepBurningCompiler
from repro.fixedpoint.format import QFormat
from repro.fixedpoint.ops import quantize_to_ints
from repro.frontend import load
from repro.frontend.layers import LayerKind
from repro.nn import reference
from repro.nn.reference import SeededWeights, init_weights
from repro.pipeline import BuildPipeline
from repro.sim.quantized import QuantizedExecutor
from repro.zoo.models import BENCHMARKS, benchmark_graph

BIASLESS_TEXT = """
name: "biasless"
layers { name: "data" type: DATA top: "data" param { dim: 8 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1"
         param { num_output: 6 bias_term: false } }
layers { name: "relu1" type: RELU bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2"
         param { num_output: 3 } }
"""

def _build(graph, **kwargs):
    # A private pipeline keeps the big nets out of the shared cache.
    return api.build(graph, pipeline=BuildPipeline(), **kwargs)


def _assert_views_match_quantized(artifacts):
    """Each layer's views equal ``quantize_layer_weights`` in value and,
    after reshaping to ``(rows, depth)``, in shape."""
    program = artifacts.program
    expected = QuantizedExecutor.quantize_layer_weights(
        artifacts.graph, artifacts.weights, program.weight_format)
    views = program.weight_views()
    assert set(views) == set(expected)
    for layer, tensors in expected.items():
        assert set(views[layer]) == set(tensors), layer
        for key, value in tensors.items():
            view = views[layer][key]
            assert view.dtype == program.weight_format.storage_dtype
            rows = value.shape[0]
            assert view.shape == ((rows,) if value.ndim == 1
                                  else (rows, value.size // rows))
            np.testing.assert_array_equal(view, value.reshape(view.shape),
                                          err_msg=f"{layer}/{key}")


def _assert_reference_layout(artifacts):
    """The image equals the reference ``int64`` image region by region:
    zeroed feature regions, then each layer's linearized
    ``[weight | recurrent]`` rows and bias, quantized."""
    program = artifacts.program
    image = program.dram_image
    fmt = program.weight_format
    regions = sorted(program.memory_map.weight_regions.values(),
                     key=lambda region: region.base_address)
    assert not image[:regions[0].base_address].any()
    cursor = regions[0].base_address
    for region in regions:
        assert region.base_address == cursor
        entry = artifacts.weights[region.layer]
        weight = np.asarray(entry["weight"], dtype=np.float64)
        if "recurrent_weight" in entry:
            weight = np.concatenate(
                [weight.reshape(region.rows, -1), entry["recurrent_weight"]],
                axis=1)
        reference = quantize_to_ints(
            region.linearize(weight, entry.get("bias")), fmt)
        assert reference.dtype == np.int64
        cursor += region.total_elements
        assert np.array_equal(image[region.base_address:cursor], reference), \
            region.layer
    assert cursor == image.size


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_zoo_image_holds_the_quantized_weights(name):
    artifacts = _build(benchmark_graph(name))
    assert artifacts.program.dram_image.dtype == np.int16  # Q3.12
    _assert_views_match_quantized(artifacts)
    _assert_reference_layout(artifacts)


def test_recurrent_row_splits_into_weight_and_feedback():
    artifacts = _build(benchmark_graph("hopfield"))
    fmt = artifacts.program.weight_format
    views = artifacts.program.weight_views()
    recurrent = [spec for spec in artifacts.graph.weighted_layers()
                 if spec.kind is LayerKind.RECURRENT]
    assert recurrent
    for spec in recurrent:
        entry = artifacts.weights[spec.name]
        feedback = views[spec.name]["recurrent_weight"]
        assert feedback.shape == (spec.num_output, spec.num_output)
        np.testing.assert_array_equal(
            feedback, quantize_to_ints(entry["recurrent_weight"], fmt))
        np.testing.assert_array_equal(
            views[spec.name]["weight"],
            quantize_to_ints(entry["weight"], fmt).reshape(
                spec.num_output, -1))


def test_biasless_layer_has_no_bias_view():
    graph = load(BIASLESS_TEXT, format="prototxt")
    artifacts = _build(graph, seed=2)
    views = artifacts.program.weight_views()
    assert "bias" not in views["ip1"]
    assert "bias" in views["ip2"]
    _assert_views_match_quantized(artifacts)
    _assert_reference_layout(artifacts)
    # The image-backed executor computes what one quantizing the float
    # weights itself computes.
    program = artifacts.program
    from_floats = QuantizedExecutor(
        graph=graph, weights=artifacts.weights,
        blob_formats=dict(program.blob_formats),
        weight_format=program.weight_format)
    from_image = QuantizedExecutor.from_program(program, artifacts.weights)
    x = np.random.default_rng(3).uniform(-1, 1, 8)
    actual = from_image.forward_raw(x)
    for blob, raw in from_floats.forward_raw(x).items():
        np.testing.assert_array_equal(actual[blob], raw, err_msg=blob)


def test_image_and_its_views_are_read_only():
    """The ``dram`` stage shares one image between designs, so no reader
    may write to it."""
    program = _build(benchmark_graph("mnist")).program
    layer = next(iter(program.memory_map.weight_regions))
    views = program.weight_views()[layer]
    with pytest.raises(ValueError):
        program.dram_image[0] = 1
    with pytest.raises(ValueError):
        views["weight"][0, 0] = 1
    with pytest.raises(ValueError):
        views["bias"][0] = 1


def test_readers_allocate_no_copy_of_the_weights():
    """The range pass and the per-sample executor read the image in
    place: neither peaks near the size of the weights."""
    artifacts = _build(benchmark_graph("nin"))
    float_bytes = sum(value.nbytes for entry in artifacts.weights.values()
                      for value in entry.values())
    inputs = artifacts.random_input()
    tracemalloc.start()
    try:
        verify_artifacts(artifacts)
        _, verify_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        api.simulate(artifacts, inputs)
        _, simulate_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verify_peak < artifacts.program.dram_image.nbytes
    assert simulate_peak < float_bytes


def test_executor_from_image_equals_executor_from_floats():
    artifacts = _build(benchmark_graph("cifar"), seed=5)
    program = artifacts.program
    from_floats = QuantizedExecutor(
        graph=artifacts.graph, weights=artifacts.weights,
        blob_formats=dict(program.blob_formats),
        weight_format=program.weight_format)
    from_image = QuantizedExecutor.from_program(program, artifacts.weights)
    x = artifacts.random_input()
    expected = from_floats.forward_raw(x)
    actual = from_image.forward_raw(x)
    assert set(actual) == set(expected)
    for blob, raw in actual.items():
        np.testing.assert_array_equal(raw, expected[blob], err_msg=blob)


def _image_from_init_weights(artifacts, seed):
    """The image quantized from one whole ``init_weights`` draw."""
    design = artifacts.design
    weights = init_weights(design.graph, np.random.default_rng(seed),
                           lowered=design.resolved)
    return DeepBurningCompiler()._build_dram_image(
        design, artifacts.program.memory_map, weights,
        artifacts.program.weight_format)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_streamed_image_equals_image_from_init_weights(name, seed):
    artifacts = _build(benchmark_graph(name), seed=seed)
    assert not artifacts.weights.drawn
    image = artifacts.program.dram_image
    expected = _image_from_init_weights(artifacts, seed)
    assert image.dtype == expected.dtype
    assert image.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["mnist", "hopfield"])
def test_streamed_image_at_a_wider_storage_dtype(name):
    fmt = QFormat(15, 16)
    artifacts = _build(benchmark_graph(name), seed=3, weight_format=fmt)
    image = artifacts.program.dram_image
    assert image.dtype == np.int32
    assert image.tobytes() == _image_from_init_weights(artifacts,
                                                       3).tobytes()


def test_drawn_weights_equal_init_weights():
    artifacts = _build(benchmark_graph("hopfield"), seed=4)
    graph = artifacts.graph
    expected = init_weights(graph, np.random.default_rng(4))
    assert list(artifacts.weights) == list(expected)
    for layer, tensors in expected.items():
        drawn = artifacts.weights[layer]
        assert drawn.keys() == tensors.keys()
        for key, value in tensors.items():
            assert drawn[key].dtype == value.dtype
            np.testing.assert_array_equal(drawn[key], value,
                                          err_msg=f"{layer}/{key}")
    # The quantized image built first reads the same values.
    _assert_views_match_quantized(artifacts)


def _count_draws(monkeypatch, delay_s: float = 0.0) -> list:
    """Patch ``init_weights`` where :class:`SeededWeights` calls it to
    log (and optionally slow down) every draw; returns the log."""
    draws: list = []
    draw = reference.init_weights

    def logged(*args, **kwargs):
        draws.append(threading.get_ident())
        time.sleep(delay_s)
        return draw(*args, **kwargs)

    monkeypatch.setattr(reference, "init_weights", logged)
    return draws


def test_flow_draws_no_float_weights_and_the_reference_draws_once(
        monkeypatch):
    draws = _count_draws(monkeypatch)
    pipe = BuildPipeline()
    artifacts = api.build(benchmark_graph("mnist"), pipeline=pipe)
    verify_artifacts(artifacts)
    api.estimate(artifacts)
    api.simulate(artifacts)
    api.simulate(artifacts, functional=False)
    assert draws == []
    first = pipe.reference_output(artifacts)
    assert len(draws) == 1
    # Memoized, and the drawn weights are kept for the next reader.
    np.testing.assert_array_equal(pipe.reference_output(artifacts), first)
    assert artifacts.weights.drawn
    assert len(draws) == 1


def test_equality_repr_pickling_and_none_checks_never_draw(monkeypatch):
    artifacts = _build(benchmark_graph("mnist"))
    draws = _count_draws(monkeypatch)
    weights = artifacts.weights
    assert weights is not None
    assert weights == weights
    assert weights == SeededWeights(artifacts.design.resolved, seed=0)
    assert weights != SeededWeights(artifacts.design.resolved, seed=1)
    assert "drawn=False" in repr(weights)
    repr(artifacts)
    assert list(weights) == [spec.name for spec in
                             artifacts.graph.weighted_layers()]
    assert len(weights) == 4 and "ip1" in weights and "relu1" not in weights
    copy = pickle.loads(pickle.dumps(weights))
    assert copy == weights and not copy.drawn
    assert draws == []
    # Reading a key draws, once; the unpickled copy draws the same.
    np.testing.assert_array_equal(copy["ip1"]["weight"],
                                  weights["ip1"]["weight"])
    assert len(draws) == 2


def test_concurrent_first_reads_draw_once(monkeypatch):
    """Eight threads (more than cores) read one undrawn source at the
    same moment: one draw, and every reader gets its arrays."""
    weights = _build(benchmark_graph("mnist")).weights
    draws = _count_draws(monkeypatch, delay_s=0.02)
    barrier = threading.Barrier(8, timeout=10)
    seen = []

    def read():
        barrier.wait()
        seen.append(weights["ip1"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(draws) == 1
    assert len(seen) == 8 and all(entry is seen[0] for entry in seen)


def test_seeded_build_allocates_no_float_copy_of_the_weights():
    """A seeded build draws its weights straight into the image: its
    traced peak stays below the float weights' size."""
    tracemalloc.start()
    try:
        artifacts = _build(benchmark_graph("nin"))
        _, build_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    float_bytes = sum(value.nbytes for entry in artifacts.weights.values()
                      for value in entry.values())
    assert float_bytes > 59e6
    assert build_peak < float_bytes
