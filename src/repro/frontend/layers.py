"""Typed layer and connection specifications.

This module converts the raw parsed :class:`~repro.frontend.prototxt.Message`
of a ``layers { ... }`` block into a :class:`LayerSpec` with validated,
typed parameters.  The set of layer kinds is the one the paper lists as
supported by the current NN-Gen library: convolution, pooling, full
connection, recurrent, associative (memory), activation, LRN, drop-out,
classification, inception and data/input layers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from repro.errors import ParseError, UnsupportedLayerError
from repro.frontend.prototxt import Message


class LayerKind(enum.Enum):
    """Network layer kinds understood by NN-Gen."""

    DATA = "DATA"
    CONVOLUTION = "CONVOLUTION"
    DEPTHWISE_CONVOLUTION = "DEPTHWISE_CONVOLUTION"
    POOLING = "POOLING"
    INNER_PRODUCT = "INNER_PRODUCT"
    RECURRENT = "RECURRENT"
    ASSOCIATIVE = "ASSOCIATIVE"
    RELU = "RELU"
    SIGMOID = "SIGMOID"
    TANH = "TANH"
    LRN = "LRN"
    DROPOUT = "DROPOUT"
    SOFTMAX = "SOFTMAX"
    CLASSIFIER = "CLASSIFIER"
    CONCAT = "CONCAT"
    ELTWISE = "ELTWISE"
    INCEPTION = "INCEPTION"

    @property
    def is_activation(self) -> bool:
        return self in (LayerKind.RELU, LayerKind.SIGMOID, LayerKind.TANH)

    @property
    def has_weights(self) -> bool:
        return self in (
            LayerKind.CONVOLUTION,
            LayerKind.DEPTHWISE_CONVOLUTION,
            LayerKind.INNER_PRODUCT,
            LayerKind.RECURRENT,
            LayerKind.ASSOCIATIVE,
        )

    @property
    def is_convolution(self) -> bool:
        """True for kinds realized on the windowed MAC convolution path."""
        return self in (LayerKind.CONVOLUTION, LayerKind.DEPTHWISE_CONVOLUTION)


#: Aliases accepted in scripts (Caffe spellings included).
_KIND_ALIASES: Mapping[str, LayerKind] = {
    "DATA": LayerKind.DATA,
    "INPUT": LayerKind.DATA,
    "CONVOLUTION": LayerKind.CONVOLUTION,
    "CONV": LayerKind.CONVOLUTION,
    "DEPTHWISE_CONVOLUTION": LayerKind.DEPTHWISE_CONVOLUTION,
    "CONVOLUTION_DEPTHWISE": LayerKind.DEPTHWISE_CONVOLUTION,
    "DWCONV": LayerKind.DEPTHWISE_CONVOLUTION,
    "POOLING": LayerKind.POOLING,
    "POOL": LayerKind.POOLING,
    "INNER_PRODUCT": LayerKind.INNER_PRODUCT,
    "FULL_CONNECTION": LayerKind.INNER_PRODUCT,
    "FC": LayerKind.INNER_PRODUCT,
    "IP": LayerKind.INNER_PRODUCT,
    "RECURRENT": LayerKind.RECURRENT,
    "RNN": LayerKind.RECURRENT,
    "ASSOCIATIVE": LayerKind.ASSOCIATIVE,
    "MEMORY": LayerKind.ASSOCIATIVE,
    "RELU": LayerKind.RELU,
    "SIGMOID": LayerKind.SIGMOID,
    "TANH": LayerKind.TANH,
    "LRN": LayerKind.LRN,
    "DROPOUT": LayerKind.DROPOUT,
    "SOFTMAX": LayerKind.SOFTMAX,
    "SOFTMAX_LOSS": LayerKind.SOFTMAX,
    "CLASSIFIER": LayerKind.CLASSIFIER,
    "ARGMAX": LayerKind.CLASSIFIER,
    "CONCAT": LayerKind.CONCAT,
    "ELTWISE": LayerKind.ELTWISE,
    "ADD": LayerKind.ELTWISE,
    "SUM": LayerKind.ELTWISE,
    "INCEPTION": LayerKind.INCEPTION,
}


class PoolMethod(enum.Enum):
    MAX = "MAX"
    AVE = "AVE"


class ConnectDirection(enum.Enum):
    FORWARD = "forward"
    RECURRENT = "recurrent"


class ConnectType(enum.Enum):
    FULL = "full"
    FULL_PER_CHANNEL = "full_per_channel"
    FILE_SPECIFIED = "file_specified"


@dataclass(frozen=True)
class ConnectionSpec:
    """A ``connect { }`` block: explicit inter-layer wiring.

    ``recurrent`` connections form back-edges in the graph (RNN/Hopfield
    feedback); ``file_specified`` defers the exact synapse mask to an
    external file, which NN-Gen treats as a partially-connected layer.
    """

    name: str
    direction: ConnectDirection = ConnectDirection.FORWARD
    type: ConnectType = ConnectType.FULL
    target: str = ""


@dataclass(frozen=True)
class LayerSpec:
    """A single network layer with typed parameters."""

    name: str
    kind: LayerKind
    bottoms: tuple[str, ...] = ()
    tops: tuple[str, ...] = ()
    # Convolution / inner product
    num_output: int = 0
    kernel_size: int = 0
    stride: int = 1
    pad: int = 0
    group: int = 1
    bias: bool = True
    # Pooling
    pool_method: PoolMethod = PoolMethod.MAX
    # LRN
    local_size: int = 5
    alpha: float = 1e-4
    beta: float = 0.75
    # Dropout
    dropout_ratio: float = 0.5
    # Data layer
    input_shape: tuple[int, ...] = ()
    # Classifier
    top_k: int = 1
    # Explicit wiring
    connections: tuple[ConnectionSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ParseError("layer has no name")
        if self.kind in (
            LayerKind.CONVOLUTION,
            LayerKind.DEPTHWISE_CONVOLUTION,
            LayerKind.INNER_PRODUCT,
        ):
            if self.num_output <= 0:
                raise ParseError(f"layer '{self.name}' needs num_output > 0")
        if self.kind in (
            LayerKind.CONVOLUTION,
            LayerKind.DEPTHWISE_CONVOLUTION,
            LayerKind.POOLING,
        ):
            if self.kernel_size <= 0:
                raise ParseError(f"layer '{self.name}' needs kernel_size > 0")
            if self.stride <= 0:
                raise ParseError(f"layer '{self.name}' needs stride > 0")
            if self.pad < 0:
                raise ParseError(f"layer '{self.name}' needs pad >= 0")
        if self.kind is LayerKind.CONVOLUTION and self.group > 0 \
                and self.num_output % self.group != 0:
            raise ParseError(
                f"layer '{self.name}': num_output {self.num_output} is not "
                f"divisible by group {self.group}; every group needs the "
                "same number of output channels"
            )
        if self.kind is LayerKind.DEPTHWISE_CONVOLUTION and self.group != 1:
            raise ParseError(
                f"layer '{self.name}': depthwise convolution derives its group "
                "count from the input channels; leave 'group' unset"
            )
        if self.kind is LayerKind.DROPOUT and not 0.0 <= self.dropout_ratio < 1.0:
            raise ParseError(
                f"layer '{self.name}' dropout_ratio must be in [0, 1)"
            )
        if self.kind is LayerKind.LRN and self.local_size < 1:
            raise ParseError(f"layer '{self.name}' needs local_size >= 1")

    @property
    def is_recurrent(self) -> bool:
        return self.kind is LayerKind.RECURRENT or any(
            c.direction is ConnectDirection.RECURRENT for c in self.connections
        )


def supported_kind_names() -> tuple[str, ...]:
    """Every accepted ``type:`` spelling, sorted, for error messages."""
    return tuple(sorted(_KIND_ALIASES))


def parse_kind(text: str, *, layer: str = "") -> LayerKind:
    """Map a script ``type:`` token (any Caffe spelling) to a kind.

    Accepts old-style enums (``CONVOLUTION``), new-style CamelCase
    strings (``"InnerProduct"``) and lower-case aliases.  ``layer``
    names the offending layer in the error message.
    """
    text = str(text)
    kind = _KIND_ALIASES.get(text.upper())
    if kind is None:
        # CamelCase -> CAMEL_CASE (new-style Caffe layer type strings).
        snake = "".join(
            ("_" + c) if c.isupper() and i and not text[i - 1].isupper()
            else c
            for i, c in enumerate(text)
        ).upper()
        kind = _KIND_ALIASES.get(snake)
    if kind is None:
        where = f" in layer '{layer}'" if layer else ""
        raise UnsupportedLayerError(
            f"unknown layer type '{text}'{where}; supported types: "
            + ", ".join(supported_kind_names())
        )
    return kind


def _scalar_int(msg: Message, key: str, default: int) -> int:
    value = msg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"field '{key}' must be numeric, got {value!r}")
    return int(value)


def _scalar_float(msg: Message, key: str, default: float) -> float:
    value = msg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"field '{key}' must be numeric, got {value!r}")
    return float(value)


def _connection_from_message(msg: Message) -> ConnectionSpec:
    name = msg.get("name", "")
    if not isinstance(name, str) or not name:
        raise ParseError("connect block needs a name")
    direction_text = str(msg.get("direction", "forward")).lower()
    try:
        direction = ConnectDirection(direction_text)
    except ValueError as exc:
        raise ParseError(f"unknown connect direction '{direction_text}'") from exc
    type_text = str(msg.get("type", "full")).lower()
    try:
        connect_type = ConnectType(type_text)
    except ValueError:
        if type_text == "full_per_channel":
            connect_type = ConnectType.FULL_PER_CHANNEL
        else:
            raise ParseError(f"unknown connect type '{type_text}'") from None
    target = msg.get("target", "")
    return ConnectionSpec(
        name=name,
        direction=direction,
        type=connect_type,
        target=str(target) if target else "",
    )


def layer_from_message(msg: Message) -> LayerSpec:
    """Build a :class:`LayerSpec` from one parsed ``layers { }`` block."""
    name = msg.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError("layer block is missing 'name'")
    type_field = msg.get("type")
    if type_field is None:
        raise ParseError(f"layer '{name}' is missing 'type'")
    kind = parse_kind(str(type_field), layer=name)

    bottoms = tuple(str(b) for b in msg.get_all("bottom"))
    tops = tuple(str(t) for t in msg.get_all("top"))

    # Parameters may be nested in Caffe-style sub-messages or flat in the
    # generic ``param { }`` block used by the paper's Fig. 4 example.
    param = Message()
    for key in (
        "param",
        "convolution_param",
        "pooling_param",
        "inner_product_param",
        "lrn_param",
        "dropout_param",
        "input_param",
        "recurrent_param",
        "eltwise_param",
    ):
        nested = msg.get_message(key)
        if nested is not None:
            param.fields.extend(nested.fields)
    # Flat fields at layer level are accepted too.
    param.fields.extend(
        (key, value)
        for key, value in msg.fields
        if key not in ("name", "type", "bottom", "top", "connect")
        and not isinstance(value, Message)
    )

    if kind is LayerKind.ELTWISE:
        operation = str(param.get("operation", "SUM")).upper()
        if operation not in ("SUM", "ADD"):
            raise ParseError(
                f"layer '{name}': eltwise operation '{operation}' is not "
                "supported (only SUM)"
            )

    pool_text = str(param.get("pool", "MAX")).upper()
    try:
        pool_method = PoolMethod(pool_text)
    except ValueError as exc:
        raise ParseError(f"layer '{name}': unknown pool method '{pool_text}'") from exc

    input_shape: tuple[int, ...] = ()
    dims = [int(d) for d in param.get_all("dim") if isinstance(d, (int, float))]
    if not dims:
        for container in (msg, param):
            shape_value = container.get("shape")
            if isinstance(shape_value, Message):
                dims = [int(d) for d in shape_value.get_all("dim")]
                break
    if dims:
        input_shape = tuple(dims)

    connections = tuple(
        _connection_from_message(c) for c in msg.get_messages("connect")
    )

    return LayerSpec(
        name=name,
        kind=kind,
        bottoms=bottoms,
        tops=tops,
        num_output=_scalar_int(param, "num_output", 0),
        kernel_size=_scalar_int(param, "kernel_size", 0),
        stride=_scalar_int(param, "stride", 1),
        pad=_scalar_int(param, "pad", 0),
        group=_scalar_int(param, "group", 1),
        bias=bool(param.get("bias_term", True)),
        pool_method=pool_method,
        local_size=_scalar_int(param, "local_size", 5),
        alpha=_scalar_float(param, "alpha", 1e-4),
        beta=_scalar_float(param, "beta", 0.75),
        dropout_ratio=_scalar_float(param, "dropout_ratio", 0.5),
        input_shape=input_shape,
        top_k=_scalar_int(param, "top_k", 1),
        connections=connections,
    )


def layers_from_document(doc: Message) -> list[LayerSpec]:
    """Extract every ``layers { }`` (or ``layer { }``) block in order."""
    blocks = doc.get_messages("layers") + doc.get_messages("layer")
    if not blocks:
        raise ParseError("script defines no layers")
    return [layer_from_message(block) for block in blocks]
