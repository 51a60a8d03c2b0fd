"""The resolved graph: a network lowered once, read by every stage.

:func:`resolve` derives in one pass the facts NN-Gen, the compiler, the
executors, the analysis passes and the baselines all need; the build
pipeline memoizes the result per graph fingerprint.  :func:`lower` is
the same pass without raising, for the lint pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeepBurningError, GraphError, ShapeError
from repro.frontend.graph import NetworkGraph
from repro.frontend.layers import LayerKind, LayerSpec
from repro.frontend.shapes import (
    TensorShape,
    infer_layer,
    macs_for_layer,
    weight_shape,
)


@dataclass(frozen=True)
class ResolvedGraph:
    """Every stage-independent fact about one network, shared by every
    stage of every build of it (treat the mappings as read-only).  Layer
    ``i`` writes SSA value ``i``: an in-place re-write gets a fresh one.
    """

    graph: NetworkGraph
    #: Layers in dependency order; a layer's id is its position.
    layers: tuple[LayerSpec, ...]
    #: Layer name -> id.
    ids: dict[str, int]
    #: Blob name -> shape, in inference order (the DRAM layout order).
    shapes: dict[str, TensorShape]
    #: Per layer id: the value id each bottom reads.
    reads: tuple[tuple[int, ...], ...]
    #: Blob name -> value id of its last write.
    final: dict[str, int]
    #: Blob name -> (kernel, stride) of its first declared windowed
    #: (convolution or pooling) consumer, the sweep its tiling serves;
    #: a blob only linear readers consume is absent.
    windows: dict[str, tuple[int, int]]
    #: Weighted layer name -> weight tensor shape.
    weight_shapes: dict[str, tuple[int, ...]]
    #: Layer name -> multiply-accumulate count of one forward pass.
    macs: dict[str, int]
    #: What breaks resolution, first failure first (:func:`lower` only).
    errors: tuple[DeepBurningError, ...]

    def layer(self, name: str) -> LayerSpec:
        try:
            return self.layers[self.ids[name]]
        except KeyError:
            raise GraphError(f"no layer named '{name}'") from None


def _consumer_geometry(graph: NetworkGraph) -> dict[str, tuple[int, int]]:
    # Last declared first, so the first declared consumer's entry wins.
    return {blob: (spec.kernel_size, spec.stride)
            for spec in reversed(graph.layers)
            if spec.kind.is_convolution or spec.kind is LayerKind.POOLING
            for blob in spec.bottoms}


def place(graph: NetworkGraph) -> tuple[list[LayerSpec], GraphError | None]:
    """The layers in dependency order (passes over the declaration order
    place each once its bottoms are written, so in-place layers keep file
    order), and the error naming any never placeable (a forward cycle or
    dangling blob)."""
    order: list[LayerSpec] = []
    written: set[str] = set()
    pending = list(graph.layers)
    while pending:
        remaining = []
        for spec in pending:
            if all(b in written for b in spec.bottoms):
                order.append(spec)
                written.update(spec.tops)
            else:
                remaining.append(spec)
        if len(remaining) == len(pending):
            stuck = ", ".join(spec.name for spec in remaining)
            return order, GraphError(
                f"forward graph has a cycle or dangling blob among: {stuck}")
        pending = remaining
    return order, None


def lower(graph: NetworkGraph) -> ResolvedGraph:
    """Resolve ``graph``, recording what fails instead of raising: an
    unplaceable layer first (the placeable ones still resolve), then each
    failing shape rule, which leaves its outputs unshaped."""
    order, stuck = place(graph)
    errors: list[DeepBurningError] = [] if stuck is None else [stuck]
    shapes: dict[str, TensorShape] = {}
    final: dict[str, int] = {}
    reads: list[tuple[int, ...]] = []
    weight_shapes: dict[str, tuple[int, ...]] = {}
    macs: dict[str, int] = {}
    for layer_id, spec in enumerate(order):
        reads.append(tuple(final[b] for b in spec.bottoms))
        final.update(dict.fromkeys(spec.tops, layer_id))
        if any(b not in shapes for b in spec.bottoms):
            continue
        inputs = [shapes[b] for b in spec.bottoms]
        try:
            out_shape = infer_layer(spec, inputs)
        except ShapeError as error:
            errors.append(error)
            continue
        shapes.update(dict.fromkeys(spec.tops, out_shape))
        in_shape = inputs[0] if inputs else out_shape
        if spec.kind.has_weights:
            weight_shapes[spec.name] = weight_shape(spec, in_shape)
        macs[spec.name] = macs_for_layer(spec, in_shape, out_shape)
    return ResolvedGraph(
        graph=graph, layers=tuple(order),
        ids={spec.name: index for index, spec in enumerate(order)},
        shapes=shapes, reads=tuple(reads), final=final,
        windows=_consumer_geometry(graph), weight_shapes=weight_shapes,
        macs=macs, errors=tuple(errors))


def resolve(graph: NetworkGraph,
            lowered: ResolvedGraph | None = None) -> ResolvedGraph:
    """Validate and resolve ``graph``; raises the first error
    (:class:`~repro.errors.GraphError` or a
    :class:`~repro.errors.ShapeError` naming the layer).  ``lowered``:
    ``lower(graph)``, if the caller already holds it."""
    graph.validate()
    resolved = lower(graph) if lowered is None else lowered
    if resolved.errors:
        raise resolved.errors[0]
    return resolved

