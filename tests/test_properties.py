"""Cross-module property-based tests (hypothesis).

These pin the invariants the whole flow rests on: folding partitions
work exactly, fold working sets respect the buffers, DRAM regions never
overlap, and fixed-point execution converges to the float reference as
precision grows.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compiler.memmap import build_memory_map
from repro.errors import ResourceError
from repro.fixedpoint.format import DEFAULT_DATA_FORMAT, DEFAULT_WEIGHT_FORMAT
from repro.frontend import load, resolve
from repro.frontend.shapes import infer_shapes, macs_for_layer
from repro.nngen.design import DatapathConfig
from repro.nngen.folding import build_folding_plan


def _config(lanes, simd):
    return DatapathConfig(lanes=lanes, simd=simd,
                          data_format=DEFAULT_DATA_FORMAT,
                          weight_format=DEFAULT_WEIGHT_FORMAT)


def dense_graph(in_size: int, out_size: int) -> str:
    return (
        f'layers {{ name: "data" type: DATA top: "d" param {{ dim: {in_size} }} }}\n'
        f'layers {{ name: "fc" type: INNER_PRODUCT bottom: "d" top: "o" '
        f'param {{ num_output: {out_size} }} }}'
    )


def conv_graph(cin: int, size: int, dout: int, kernel: int, stride: int) -> str:
    return (
        f'layers {{ name: "data" type: DATA top: "d" '
        f'param {{ dim: {cin} dim: {size} dim: {size} }} }}\n'
        f'layers {{ name: "c" type: CONVOLUTION bottom: "d" top: "o" '
        f'param {{ num_output: {dout} kernel_size: {kernel} '
        f'stride: {stride} }} }}'
    )


class TestDenseFoldingProperties:
    @given(
        in_size=st.integers(1, 600),
        out_size=st.integers(1, 200),
        lanes=st.sampled_from([1, 2, 4, 8, 16]),
        feature_cap=st.integers(32, 4096),
        weight_cap=st.integers(32, 4096),
    )
    @settings(max_examples=120, deadline=None)
    def test_folds_partition_work(self, in_size, out_size, lanes,
                                  feature_cap, weight_cap):
        graph = load(dense_graph(in_size, out_size), format="prototxt")
        try:
            plan = build_folding_plan(resolve(graph), _config(lanes, 4),
                                      feature_cap, weight_cap)
        except ResourceError:
            assume(False)
            return
        folds = plan.for_layer("fc")
        # MACs conserved.
        assert sum(p.macs for p in folds) == in_size * out_size
        # Outputs covered exactly once by the completing folds.
        produced = sum(p.out_count for p in folds if not p.partial)
        assert produced == out_size
        # Every fold's working set respects the buffers.
        for phase in folds:
            assert phase.weight_words <= weight_cap
            assert phase.in_count + phase.out_count <= feature_cap + out_size

    @given(
        in_size=st.integers(1, 400),
        out_size=st.integers(1, 100),
        weight_cap=st.integers(16, 512),
    )
    @settings(max_examples=80, deadline=None)
    def test_partial_chain_ends_complete(self, in_size, out_size, weight_cap):
        graph = load(dense_graph(in_size, out_size), format="prototxt")
        try:
            plan = build_folding_plan(resolve(graph), _config(4, 4), 4096, weight_cap)
        except ResourceError:
            assume(False)
            return
        folds = plan.for_layer("fc")
        # Grouped by out_start: the last fold of each chain is complete.
        by_out: dict[int, list] = {}
        for phase in folds:
            by_out.setdefault(phase.out_start, []).append(phase)
        for chain in by_out.values():
            chain.sort(key=lambda p: p.in_start)
            assert not chain[-1].partial
            assert all(p.partial for p in chain[:-1])
            # Input slices tile [0, in_size) without gaps or overlap.
            cursor = 0
            for phase in chain:
                assert phase.in_start == cursor
                cursor += phase.in_count
            assert cursor == in_size


class TestConvFoldingProperties:
    @given(
        cin=st.integers(1, 8),
        size=st.integers(4, 24),
        dout=st.integers(1, 16),
        kernel=st.integers(1, 5),
        stride=st.integers(1, 3),
        feature_cap=st.integers(256, 8192),
        weight_cap=st.integers(64, 4096),
    )
    @settings(max_examples=100, deadline=None)
    def test_conv_macs_conserved(self, cin, size, dout, kernel, stride,
                                 feature_cap, weight_cap):
        assume(kernel <= size)
        graph = load(conv_graph(cin, size, dout, kernel, stride), format="prototxt")
        shapes = infer_shapes(graph)
        try:
            plan = build_folding_plan(resolve(graph), _config(4, 4),
                                      feature_cap, weight_cap)
        except ResourceError:
            assume(False)
            return
        spec = graph.layer("c")
        expected = macs_for_layer(spec, shapes["d"], shapes["o"])
        folds = plan.for_layer("c")
        assert sum(p.macs for p in folds) == expected
        # Completing folds produce each output value exactly once.
        produced = sum(p.out_count for p in folds if not p.partial)
        assert produced == shapes["o"].size

    @given(
        cin=st.integers(1, 6),
        size=st.integers(4, 20),
        dout=st.integers(1, 12),
        kernel=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_conv_geometry_fields_consistent(self, cin, size, dout, kernel):
        assume(kernel <= size)
        graph = load(conv_graph(cin, size, dout, kernel, 1), format="prototxt")
        try:
            plan = build_folding_plan(resolve(graph), _config(4, 4), 8192, 4096)
        except ResourceError:
            assume(False)
            return
        shapes = infer_shapes(graph)
        out_w = shapes["o"].width
        for phase in plan.for_layer("c"):
            assert phase.out_count == (phase.out_ch_count * phase.row_count
                                       * out_w)
            assert phase.macs == phase.out_count * phase.macs_per_output
            assert phase.macs_per_output == kernel * kernel * phase.in_ch_count


_blob_sizes = st.lists(st.integers(1, 64), min_size=1, max_size=4)


class TestMemoryMapProperties:
    @given(sizes=_blob_sizes, port=st.sampled_from([1, 2, 4, 8, 16]))
    @settings(max_examples=80, deadline=None)
    def test_regions_disjoint_for_random_mlps(self, sizes, port):
        lines = [f'layers {{ name: "data" type: DATA top: "b0" '
                 f'param {{ dim: {sizes[0]} }} }}']
        for index, width in enumerate(sizes[1:], start=1):
            lines.append(
                f'layers {{ name: "fc{index}" type: INNER_PRODUCT '
                f'bottom: "b{index - 1}" top: "b{index}" '
                f'param {{ num_output: {width} }} }}')
        graph = load("\n".join(lines), format="prototxt")
        memory_map = build_memory_map(resolve(graph), port)
        intervals = []
        for base, layout in memory_map.feature_regions.values():
            intervals.append((base, base + layout.total_elements))
        for region in memory_map.weight_regions.values():
            intervals.append((region.base_address,
                              region.base_address + region.total_elements))
        intervals.sort()
        for (_, a_end), (b_start, _) in zip(intervals, intervals[1:]):
            assert a_end <= b_start
        assert intervals[-1][1] == memory_map.total_elements


class TestQuantizedConvergence:
    @given(
        hidden=st.integers(2, 24),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_16bit_mlp_tracks_float(self, hidden, seed):
        from repro.fixedpoint.format import QFormat
        from repro.nn.reference import ReferenceNetwork, init_weights
        from repro.sim.quantized import QuantizedExecutor

        text = (
            'layers { name: "data" type: DATA top: "d" param { dim: 6 } }\n'
            f'layers {{ name: "ip1" type: INNER_PRODUCT bottom: "d" top: "h" '
            f'param {{ num_output: {hidden} }} }}\n'
            'layers { name: "act" type: TANH bottom: "h" top: "h" }\n'
            'layers { name: "ip2" type: INNER_PRODUCT bottom: "h" top: "o" '
            'param { num_output: 3 } }'
        )
        graph = load(text, format="prototxt")
        weights = init_weights(graph, np.random.default_rng(seed), scale=0.2)
        fmt = QFormat(4, 11)
        shapes = infer_shapes(graph)
        executor = QuantizedExecutor(
            graph=graph, weights=weights,
            blob_formats={b: fmt for b in shapes},
            weight_format=QFormat(2, 13),
        )
        reference = ReferenceNetwork(graph, weights)
        x = np.random.default_rng(seed + 1).uniform(-1, 1, 6)
        assert np.allclose(executor.output(x), reference.output(x),
                           atol=0.02)


class TestPatternRoundTrip:
    """``expand(infer(stream)) == stream`` — the analyzer contract the
    AGU compiler and the static memory pass both rest on."""

    @given(
        start=st.integers(0, 4096),
        x_length=st.integers(1, 48),
        stride=st.integers(0, 64),
        y_length=st.integers(1, 8),
        offset=st.integers(0, 512),
    )
    @settings(max_examples=200)
    def test_single_pattern_round_trips(self, start, x_length, stride,
                                        y_length, offset):
        from repro.compiler.patterns import (
            AccessPattern,
            expand_patterns,
            infer_pattern,
        )

        original = AccessPattern(start_address=start, x_length=x_length,
                                 stride=stride, y_length=y_length,
                                 offset=offset)
        stream = original.expand()
        inferred = infer_pattern(stream)
        assert inferred.expand() == stream
        assert inferred.footprint == original.footprint
        assert expand_patterns([inferred]) == stream

    @given(stream=st.lists(st.integers(0, 1000), min_size=1, max_size=120))
    @settings(max_examples=200)
    def test_arbitrary_stream_round_trips(self, stream):
        from repro.compiler.patterns import expand_patterns, infer_patterns

        patterns = infer_patterns(stream, max_patterns=len(stream))
        assert expand_patterns(patterns) == stream
        assert sum(p.footprint for p in patterns) == len(stream)

    @given(
        specs=st.lists(
            st.tuples(st.integers(0, 2000), st.integers(1, 16),
                      st.integers(0, 32), st.integers(1, 4),
                      st.integers(0, 128)),
            min_size=1, max_size=4,
        ),
    )
    @settings(max_examples=100)
    def test_concatenated_sweeps_round_trip(self, specs):
        from repro.compiler.patterns import (
            AccessPattern,
            expand_patterns,
            infer_patterns,
        )

        stream = expand_patterns([
            AccessPattern(start_address=s, x_length=x, stride=dx,
                          y_length=y, offset=dy)
            for s, x, dx, y, dy in specs
        ])
        patterns = infer_patterns(stream, max_patterns=len(stream))
        assert expand_patterns(patterns) == stream
