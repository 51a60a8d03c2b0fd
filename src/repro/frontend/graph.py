"""Network graph IR.

A :class:`NetworkGraph` is a DAG of :class:`~repro.frontend.layers.LayerSpec`
nodes connected through named blobs, plus explicit recurrent back-edges
(from ``connect { direction: recurrent }`` blocks or RECURRENT layers).
The forward sub-graph must be acyclic; recurrent edges are kept aside and
handled by the compiler as state feedback through the connection box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.errors import GraphError
from repro.frontend.layers import (
    ConnectDirection,
    LayerKind,
    LayerSpec,
    layers_from_document,
)
from repro.frontend.prototxt import Message

if TYPE_CHECKING:
    from repro.frontend.resolver import ResolvedGraph


@dataclass(frozen=True)
class RecurrentEdge:
    """A feedback connection from ``source`` layer to ``target`` layer."""

    name: str
    source: str
    target: str


@dataclass
class NetworkGraph:
    """The network IR consumed by NN-Gen and the compiler."""

    name: str
    layers: list[LayerSpec] = field(default_factory=list)
    recurrent_edges: list[RecurrentEdge] = field(default_factory=list)

    # --- indexed views -------------------------------------------------

    def layer(self, name: str) -> LayerSpec:
        for spec in self.layers:
            if spec.name == name:
                return spec
        raise GraphError(f"no layer named '{name}'")

    def __contains__(self, name: str) -> bool:
        return any(spec.name == name for spec in self.layers)

    @property
    def layer_names(self) -> list[str]:
        return [spec.name for spec in self.layers]

    def producers(self) -> dict[str, str]:
        """Map each blob name to the layer that produces it."""
        produced: dict[str, str] = {}
        for spec in self.layers:
            for top in spec.tops:
                # In-place layers (ReLU with top == bottom) re-produce the
                # same blob; the later producer wins, matching Caffe.
                produced[top] = spec.name
        return produced

    def consumers(self) -> dict[str, list[str]]:
        """Map each blob name to the layers that consume it."""
        used: dict[str, list[str]] = {}
        for spec in self.layers:
            for bottom in spec.bottoms:
                used.setdefault(bottom, []).append(spec.name)
        return used

    def predecessors(self, name: str) -> list[str]:
        """Layers whose tops feed this layer's bottoms (forward edges)."""
        spec = self.layer(name)
        preds: list[str] = []
        for other in self.layers:
            if other.name == name:
                # In-place chains: a layer never precedes itself.
                continue
            if any(top in spec.bottoms for top in other.tops):
                preds.append(other.name)
        return preds

    def successors(self, name: str) -> list[str]:
        spec = self.layer(name)
        succs: list[str] = []
        for other in self.layers:
            if other.name == name:
                continue
            if any(bottom in spec.tops for bottom in other.bottoms):
                succs.append(other.name)
        return succs

    # --- structure -----------------------------------------------------

    def inputs(self) -> list[LayerSpec]:
        """Data layers (or layers with no bottoms)."""
        return [
            spec
            for spec in self.layers
            if spec.kind is LayerKind.DATA or not spec.bottoms
        ]

    def outputs(self) -> list[LayerSpec]:
        """Layers whose tops feed nothing else."""
        consumers = self.consumers()
        outs = []
        for spec in self.layers:
            if spec.tops and all(consumers.get(top, [spec.name]) == [spec.name]
                                 for top in spec.tops):
                # A blob consumed only by its own producer (in-place) still
                # counts as a network output.
                outs.append(spec)
        return outs

    def topological_order(self) -> list[LayerSpec]:
        """Layers in dependency order, following forward edges only.

        In-place layers (top == bottom) are kept in file order relative to
        each other, matching Caffe's execution semantics.  The order is
        the resolver's; raises :class:`GraphError` on a forward cycle.
        """
        from repro.frontend.resolver import place

        order, stuck = place(self)
        if stuck is not None:
            raise stuck
        return order

    def validate(self) -> None:
        """Check structural well-formedness; raise :class:`GraphError`."""
        names = [spec.name for spec in self.layers]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise GraphError(f"duplicate layer names: {sorted(duplicates)}")
        produced = set()
        for spec in self.layers:
            produced.update(spec.tops)
        input_blobs = {
            top for spec in self.inputs() for top in spec.tops
        }
        for spec in self.layers:
            for bottom in spec.bottoms:
                if bottom not in produced and bottom not in input_blobs:
                    raise GraphError(
                        f"layer '{spec.name}' consumes undefined blob '{bottom}'"
                    )
        for edge in self.recurrent_edges:
            if edge.source not in self:
                raise GraphError(
                    f"recurrent edge '{edge.name}' from unknown layer '{edge.source}'"
                )
            if edge.target and edge.target not in self:
                raise GraphError(
                    f"recurrent edge '{edge.name}' to unknown layer '{edge.target}'"
                )
        if not self.inputs():
            raise GraphError("network has no input/data layer")
        self.topological_order()  # raises on forward cycles

    def weighted_layers(self) -> list[LayerSpec]:
        return [spec for spec in self.layers if spec.kind.has_weights]

    def fingerprint(self, lowered: ResolvedGraph | None = None) -> str:
        """Stable content hash of the network structure.

        Hashes layers (all typed parameters), recurrent edges and
        inferred blob shapes, with layers and edges sorted by name so the
        digest is independent of declaration order.  The network *name*
        is deliberately excluded: two scripts describing the same
        topology hash identically.  Used as the design-cache key
        component by :mod:`repro.dse`.  ``lowered``: ``lower(self)``,
        if the caller already holds it.
        """
        import hashlib
        import json

        from repro.frontend.resolver import lower

        def layer_record(spec: LayerSpec) -> dict[str, object]:
            return {
                "name": spec.name,
                "kind": spec.kind.value,
                "bottoms": list(spec.bottoms),
                "tops": list(spec.tops),
                "num_output": spec.num_output,
                "kernel_size": spec.kernel_size,
                "stride": spec.stride,
                "pad": spec.pad,
                "group": spec.group,
                "bias": spec.bias,
                "pool_method": spec.pool_method.value,
                "local_size": spec.local_size,
                "alpha": spec.alpha,
                "beta": spec.beta,
                "dropout_ratio": spec.dropout_ratio,
                "input_shape": list(spec.input_shape),
                "top_k": spec.top_k,
                "connections": [
                    {
                        "name": conn.name,
                        "direction": conn.direction.value,
                        "type": conn.type.value,
                        "target": conn.target,
                    }
                    for conn in spec.connections
                ],
            }

        resolved = lower(self) if lowered is None else lowered
        shapes = {} if resolved.errors else {
            blob: list(shape.dims) for blob, shape in resolved.shapes.items()
        }
        record = {
            "layers": sorted(
                (layer_record(spec) for spec in self.layers),
                key=lambda r: r["name"],
            ),
            "recurrent_edges": sorted(
                (
                    {"name": e.name, "source": e.source, "target": e.target}
                    for e in self.recurrent_edges
                ),
                key=lambda r: (r["name"], r["source"], r["target"]),
            ),
            "shapes": shapes,
        }
        canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


def _input_layers_from_document(doc: Message) -> list[LayerSpec]:
    """Synthesize DATA layers from legacy Caffe deploy-prototxt headers.

    Old deploy files declare the input outside any layer block::

        input: "data"
        input_dim: 1  input_dim: 3  input_dim: 227  input_dim: 227

    (or with ``input_shape { dim: ... }`` blocks).  The leading
    batch dimension of a 4-entry dim list is dropped — the accelerator
    processes one input at a time.
    """
    names = [str(n) for n in doc.get_all("input")]
    if not names:
        return []
    dims = [int(d) for d in doc.get_all("input_dim")]
    shape_blocks = doc.get_messages("input_shape")
    per_input: list[tuple[int, ...]] = []
    if shape_blocks:
        for block in shape_blocks:
            per_input.append(tuple(int(d) for d in block.get_all("dim")))
    elif dims:
        if len(names) > 1 and len(dims) % len(names) == 0:
            width = len(dims) // len(names)
            per_input = [tuple(dims[i * width:(i + 1) * width])
                         for i in range(len(names))]
        else:
            per_input = [tuple(dims)]
    layers = []
    for index, blob in enumerate(names):
        shape = per_input[index] if index < len(per_input) else ()
        if len(shape) == 4:
            shape = shape[1:]  # drop the batch dimension
        elif len(shape) == 2 and shape[0] == 1:
            shape = shape[1:]  # (N=1, features) -> flat vector
        if not shape:
            raise GraphError(f"input '{blob}' has no input_dim/input_shape")
        layers.append(LayerSpec(name=blob, kind=LayerKind.DATA,
                                tops=(blob,), input_shape=shape))
    return layers


def build_graph_from_layers(layers: list[LayerSpec], name: str = "") -> NetworkGraph:
    """Assemble and validate a graph from typed layer specs.

    Recurrent ``connect`` entries on the specs become explicit
    :class:`RecurrentEdge` back-edges.  This is the common tail of every
    frontend backend (prototxt, onnx, programmatic construction).
    """
    graph = NetworkGraph(name=name or "net", layers=list(layers))
    for spec in layers:
        for conn in spec.connections:
            if conn.direction is ConnectDirection.RECURRENT:
                graph.recurrent_edges.append(
                    RecurrentEdge(name=conn.name, source=spec.name,
                                  target=conn.target or spec.name)
                )
    graph.validate()
    return graph


def build_graph(doc: Message, name: str = "") -> NetworkGraph:
    """Assemble and validate a :class:`NetworkGraph` from a parsed script."""
    net_name = doc.get("name", name)
    layers = _input_layers_from_document(doc) + layers_from_document(doc)
    return build_graph_from_layers(layers, name=str(net_name) if net_name else "net")
