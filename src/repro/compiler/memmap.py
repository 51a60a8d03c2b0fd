"""DRAM memory map: where blobs and weights live.

The compiler assigns every feature blob a Method-1-tiled region and
every weighted layer a weight region.  Addresses are in datapath
*elements* (one feature/weight word); the AXI byte address is the
element address times the word size, applied at the boundary by the
simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.compiler.layout import (
    FeatureLayout,
    WeightLayout,
    choose_tile_side,
    method1_layout,
)
from repro.errors import LayoutError
from repro.frontend.layers import LayerKind, LayerSpec
from repro.frontend.resolver import ResolvedGraph
from repro.frontend.shapes import TensorShape


@dataclass
class MemoryMap:
    """Element-addressed DRAM map of one compiled network."""

    feature_regions: dict[str, tuple[int, FeatureLayout]] = field(default_factory=dict)
    weight_regions: dict[str, WeightLayout] = field(default_factory=dict)
    total_elements: int = 0

    def feature_base(self, blob: str) -> int:
        try:
            return self.feature_regions[blob][0]
        except KeyError:
            raise LayoutError(f"no DRAM region for blob '{blob}'") from None

    def feature_layout(self, blob: str) -> FeatureLayout:
        try:
            return self.feature_regions[blob][1]
        except KeyError:
            raise LayoutError(f"no DRAM region for blob '{blob}'") from None

    def weights(self, layer: str) -> WeightLayout:
        try:
            return self.weight_regions[layer]
        except KeyError:
            raise LayoutError(f"no weight region for layer '{layer}'") from None

    def address_of_pixel(self, blob: str, map_index: int, y: int, x: int) -> int:
        base, layout = self.feature_regions[blob]
        return base + layout.address_of(map_index, y, x)


def _layout_for_blob(resolved: ResolvedGraph, blob: str,
                     shape: TensorShape, port_width: int) -> FeatureLayout:
    if shape.is_spatial:
        kernel, stride = resolved.windows.get(blob, (1, 1))
        return method1_layout(shape.channels, shape.height, shape.width,
                              kernel=max(1, kernel), stride=max(1, stride),
                              port_width=port_width)
    return FeatureLayout(maps=1, height=1, width=shape.size, side=1)


def _weight_dims(spec: LayerSpec,
                 dims: tuple[int, ...]) -> tuple[int, int, int]:
    """(rows, depth, recurrent_depth) of one layer's weight region."""
    # The state-feedback matrix is stored as extra depth per row so
    # each output neuron's weights stay contiguous.
    recurrent = spec.num_output if spec.kind is LayerKind.RECURRENT else 0
    return dims[0], math.prod(dims[1:]) + recurrent, recurrent


def port_alignment(resolved: ResolvedGraph,
                   port_width: int) -> tuple[tuple[int, bool], ...]:
    """The Method-1 tile choice (:func:`choose_tile_side`) of every
    spatial feature blob.

    This is all the port width decides in :func:`build_memory_map`, so
    two widths with the same alignment lay DRAM out identically.
    """
    windows = resolved.windows
    alignment = []
    for blob, shape in resolved.shapes.items():
        if shape.is_spatial:
            kernel, stride = windows.get(blob, (1, 1))
            alignment.append(choose_tile_side(max(1, kernel), max(1, stride),
                                              port_width))
    return tuple(alignment)


def build_memory_map(resolved: ResolvedGraph, port_width: int) -> MemoryMap:
    """Lay every blob and weight tensor out in element-addressed DRAM."""
    if port_width < 1:
        raise LayoutError("port width must be at least one element")
    memory_map = MemoryMap()
    cursor = 0
    for blob, shape in resolved.shapes.items():
        layout = _layout_for_blob(resolved, blob, shape, port_width)
        memory_map.feature_regions[blob] = (cursor, layout)
        cursor += layout.total_elements
    for spec in resolved.graph.weighted_layers():
        rows, depth, recurrent = _weight_dims(
            spec, resolved.weight_shapes[spec.name])
        region = WeightLayout(layer=spec.name, base_address=cursor,
                              rows=rows, depth=depth, has_bias=spec.bias,
                              recurrent_depth=recurrent)
        memory_map.weight_regions[spec.name] = region
        cursor += region.total_elements
    memory_map.total_elements = cursor
    return memory_map
