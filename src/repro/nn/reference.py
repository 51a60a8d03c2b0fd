"""Float-mode reference execution of a :class:`NetworkGraph`.

This is the paper's "software NN running on CPU": the golden model whose
outputs the generated accelerator is validated against, and the accuracy
baseline of Fig. 10.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeError
from repro.frontend.graph import NetworkGraph
from repro.frontend.layers import LayerKind, LayerSpec, PoolMethod
from repro.frontend.resolver import ResolvedGraph, resolve
from repro.frontend.shapes import conv_groups
from repro.nn import functional as F

LayerWeights = dict[str, np.ndarray]

#: Standard deviation of the seeded Gaussian weights.
WEIGHT_SCALE = 0.1


def drawn_shapes(spec: LayerSpec,
                 resolved: ResolvedGraph) -> dict[str, tuple[int, ...]]:
    """The shape of each tensor :func:`init_weights` draws for one
    weighted layer, in draw order (``weight``, then a recurrent layer's
    ``recurrent_weight``)."""
    shapes = {"weight": resolved.weight_shapes[spec.name]}
    if spec.kind is LayerKind.RECURRENT:
        shapes["recurrent_weight"] = (spec.num_output, spec.num_output)
    return shapes


def init_weights(
    graph: NetworkGraph,
    rng: np.random.Generator | None = None,
    scale: float = WEIGHT_SCALE,
    lowered: ResolvedGraph | None = None,
) -> dict[str, LayerWeights]:
    """Random (Gaussian) weights for every weighted layer in the graph,
    drawn layer by layer in declaration order (``lowered``: ``graph``
    already resolved, if the caller holds it)."""
    rng = rng or np.random.default_rng(0)
    resolved = lowered or resolve(graph)
    weights: dict[str, LayerWeights] = {}
    for spec in graph.weighted_layers():
        entry: LayerWeights = {
            key: rng.normal(0.0, scale, size=shape)
            for key, shape in drawn_shapes(spec, resolved).items()}
        if spec.bias:
            entry["bias"] = np.zeros(spec.num_output)
        weights[spec.name] = entry
    return weights


class SeededWeights(Mapping[str, LayerWeights]):
    """The seeded Gaussian weights of a resolved graph, drawn on first
    read.

    Reads as ``init_weights(resolved.graph, default_rng(seed),
    lowered=resolved)``, which runs once, under a lock, when a key is
    first read.  Until then the weights exist only as their recipe: a
    seeded build draws them block by block straight into its DRAM image
    (:meth:`~repro.compiler.compiler.DeepBurningCompiler._build_dram_image`),
    so a flow that never reads the floats holds no float copy.  Layer
    names, membership, length, ``==`` (same recipe), ``repr`` and
    pickling (the recipe only) never draw.
    """

    def __init__(self, resolved: ResolvedGraph, seed: int) -> None:
        self.resolved = resolved
        self.seed = seed
        self._names = tuple(spec.name
                            for spec in resolved.graph.weighted_layers())
        self._arrays: dict[str, LayerWeights] | None = None
        self._lock = threading.Lock()

    @property
    def drawn(self) -> bool:
        """Whether the float weights exist yet."""
        return self._arrays is not None

    def arrays(self) -> dict[str, LayerWeights]:
        """The float weights, drawn now if nothing has read them yet."""
        with self._lock:
            if self._arrays is None:
                self._arrays = init_weights(
                    self.resolved.graph, np.random.default_rng(self.seed),
                    lowered=self.resolved)
            return self._arrays

    def __getitem__(self, name: str) -> LayerWeights:
        return self.arrays()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def _recipe(self) -> tuple:
        return (self.seed,
                [(spec.name, drawn_shapes(spec, self.resolved))
                 for spec in self.resolved.graph.weighted_layers()])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeededWeights):
            return NotImplemented
        return other is self or self._recipe() == other._recipe()

    def __repr__(self) -> str:
        return (f"SeededWeights({self.resolved.graph.name!r}, "
                f"seed={self.seed}, drawn={self.drawn})")

    def __reduce__(self):
        return SeededWeights, (self.resolved, self.seed)


@dataclass
class ReferenceNetwork:
    """Executes a network graph in float64 with explicit recurrent state."""

    graph: NetworkGraph
    weights: Mapping[str, LayerWeights]
    dropout_rng: np.random.Generator | None = None
    #: When False (inference, the default) drop-out layers pass through,
    #: matching what the generated accelerator does at inference time.
    training: bool = False
    state: dict[str, np.ndarray] = field(default_factory=dict)
    resolved: ResolvedGraph = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.resolved = resolve(self.graph)
        missing = [
            spec.name
            for spec in self.graph.weighted_layers()
            if spec.name not in self.weights
        ]
        if missing:
            raise ShapeError(f"missing weights for layers: {missing}")

    def reset_state(self) -> None:
        """Clear recurrent state between independent input sequences."""
        self.state.clear()

    def forward(self, inputs: np.ndarray | dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One forward propagation; returns every blob's activation.

        ``inputs`` is either a single array (bound to the sole data layer)
        or a mapping from data-layer top blob names to arrays.
        """
        blobs: dict[str, np.ndarray] = {}
        data_layers = self.graph.inputs()
        if isinstance(inputs, np.ndarray):
            if len(data_layers) != 1:
                raise ShapeError(
                    "network has multiple inputs; pass a dict of blobs"
                )
            inputs = {data_layers[0].tops[0]: inputs}
        for blob_name, value in inputs.items():
            expected = self.resolved.shapes[blob_name]
            value = np.asarray(value, dtype=np.float64)
            if value.shape != expected.dims:
                if value.size == expected.size:
                    value = value.reshape(expected.dims)
                else:
                    raise ShapeError(
                        f"input blob '{blob_name}' has shape {value.shape}, "
                        f"expected {expected.dims}"
                    )
            blobs[blob_name] = value

        for spec in self.resolved.layers:
            if spec.kind is LayerKind.DATA:
                if spec.tops[0] not in blobs:
                    raise ShapeError(f"no input bound to blob '{spec.tops[0]}'")
                continue
            result = self._run_layer(spec, [blobs[b] for b in spec.bottoms])
            for top in spec.tops:
                blobs[top] = result
        return blobs

    def output(self, inputs: np.ndarray | dict[str, np.ndarray]) -> np.ndarray:
        """Activation of the network's final output blob."""
        blobs = self.forward(inputs)
        outputs = self.graph.outputs()
        if not outputs:
            raise ShapeError("network has no output layer")
        return blobs[outputs[-1].tops[0]]

    # ------------------------------------------------------------------

    def _run_layer(self, spec: LayerSpec, inputs: list[np.ndarray]) -> np.ndarray:
        kind = spec.kind
        first = inputs[0] if inputs else None
        params = self.weights.get(spec.name, {})

        if kind.is_convolution:
            return F.conv2d(
                first, params["weight"], params.get("bias"),
                stride=spec.stride, pad=spec.pad,
                groups=conv_groups(spec, first.shape[0]),
            )
        if kind is LayerKind.POOLING:
            if spec.pool_method is PoolMethod.MAX:
                return F.max_pool2d(first, spec.kernel_size, spec.stride,
                                    spec.pad)
            return F.avg_pool2d(first, spec.kernel_size, spec.stride,
                                spec.pad)
        if kind is LayerKind.INNER_PRODUCT:
            return F.linear(first, params["weight"], params.get("bias"))
        if kind is LayerKind.RECURRENT:
            drive = F.linear(first, params["weight"], params.get("bias"))
            state = self.state.get(spec.name)
            if state is None:
                state = np.zeros(spec.num_output)
            drive = drive + params["recurrent_weight"] @ state
            self.state[spec.name] = drive
            return drive
        if kind is LayerKind.ASSOCIATIVE:
            return F.linear(first, params["weight"], params.get("bias"))
        if kind is LayerKind.RELU:
            return F.relu(first)
        if kind is LayerKind.SIGMOID:
            return F.sigmoid(first)
        if kind is LayerKind.TANH:
            return F.tanh(first)
        if kind is LayerKind.LRN:
            return F.lrn(first, spec.local_size, spec.alpha, spec.beta)
        if kind is LayerKind.DROPOUT:
            if self.training and self.dropout_rng is not None:
                mask = F.dropout_mask(first.shape, spec.dropout_ratio,
                                      self.dropout_rng)
                return first * mask
            return first
        if kind is LayerKind.SOFTMAX:
            return F.softmax(first)
        if kind is LayerKind.CLASSIFIER:
            return F.argmax_classifier(first, spec.top_k).astype(np.float64)
        if kind is LayerKind.CONCAT:
            if all(a.ndim == 3 for a in inputs):
                return np.concatenate(inputs, axis=0)
            return np.concatenate([np.ravel(a) for a in inputs])
        if kind is LayerKind.ELTWISE:
            total = inputs[0]
            for other in inputs[1:]:
                total = total + other
            return total
        raise ShapeError(f"reference execution has no rule for {kind}")
